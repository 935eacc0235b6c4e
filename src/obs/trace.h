#ifndef REVELIO_OBS_TRACE_H_
#define REVELIO_OBS_TRACE_H_

// Scoped-span tracing: RAII spans record nested begin/end events into
// per-thread logs; the recorder exports Chrome trace-event JSON (loadable in
// chrome://tracing and Perfetto) and a hierarchical self/total-time profile
// table.
//
// ScopedSpan uses util::Timer (steady_clock) as its clock and is safe on any
// thread, including ParallelFor workers. When telemetry is disabled
// (obs::Enabled() == false) a span costs one relaxed atomic load and
// allocates nothing (the const char* constructor); events recorded while
// enabled cost one small heap push under an uncontended per-thread mutex.
// Each thread's log is capped (SetMaxEventsPerThread); events past the cap
// are counted as dropped instead of recorded.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace revelio::obs {

struct TraceEvent {
  std::string name;
  double start_us = 0.0;  // since the recorder's process-wide epoch
  double dur_us = 0.0;
  int tid = 0;    // per-thread registration index (0 = first thread seen)
  int depth = 0;  // span nesting depth on its thread at begin
};

namespace internal {
struct ThreadLog;
}  // namespace internal

class TraceRecorder {
 public:
  static TraceRecorder& Global();

  // Microseconds since the recorder epoch (the first use in the process).
  static double NowMicros();

  // Drops every recorded event and the dropped-event count. Open spans keep
  // working; their completion events land in the cleared logs.
  void Clear();

  void SetMaxEventsPerThread(size_t cap);
  size_t max_events_per_thread() const;
  uint64_t dropped_events() const;

  // All completed events from every thread, sorted by start time.
  std::vector<TraceEvent> Consolidated() const;

  // Chrome trace-event JSON ("X" complete events + thread-name metadata).
  void AppendChromeTrace(JsonWriter* writer) const;
  bool WriteChromeTrace(const std::string& path) const;

  // Aggregated per-span profile: count, total, self (total minus direct
  // children), rendered with util::TablePrinter. Empty string when no
  // events were recorded.
  std::string ProfileTable() const;

 private:
  friend class ScopedSpan;
  TraceRecorder() = default;
  internal::ThreadLog* ThisThreadLog();
};

// Whether a span feeds the bounded flight ring in addition to the span log.
// Hot per-op kernel spans (fired thousands of times per explanation) opt out:
// their ring records cost more than the work they describe, and the crash
// ring wants coarse phase structure, not kernel-level noise.
enum class FlightPolicy { kRecord, kSkip };

class ScopedSpan {
 public:
  // The const char* overload records the pointer only (no allocation when
  // disabled); the string overload is for computed names.
  explicit ScopedSpan(const char* name, FlightPolicy flight = FlightPolicy::kRecord);
  explicit ScopedSpan(std::string name, FlightPolicy flight = FlightPolicy::kRecord);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Wall-clock seconds since construction, available whether or not the
  // span is being recorded — the replacement for ad-hoc util::Timer use.
  double ElapsedSeconds() const { return timer_.ElapsedSeconds(); }

 private:
  void Begin(FlightPolicy flight);
  util::Timer timer_;
  const char* literal_name_ = nullptr;
  std::string owned_name_;
  double start_us_ = 0.0;
  internal::ThreadLog* log_ = nullptr;   // non-null while recording
  const char* flight_name_ = nullptr;    // non-null while flight-recording
};

}  // namespace revelio::obs

#endif  // REVELIO_OBS_TRACE_H_
