#ifndef REVELIO_OBS_RECORDER_H_
#define REVELIO_OBS_RECORDER_H_

// Flight recorder: a fixed-capacity, thread-sharded, lock-free ring buffer of
// structured events that answers "what was the process doing just before
// now?" without a debugger. Span begin/end, counter deltas and explainer
// phase markers are appended as fixed-size records; when the ring wraps, the
// oldest records are simply overwritten, so memory stays bounded no matter
// how long the process runs.
//
// Write path (Record*): one relaxed fetch_add to claim a slot plus a handful
// of relaxed stores — wait-free, allocation-free, safe from any thread
// including ParallelFor workers and signal-adjacent code. Every event field
// is a relaxed atomic so concurrent writers and a concurrent DumpFlightRecord
// never constitute a data race; a dump taken while writers are active may
// contain a few torn records, which the exporter tolerates (post-mortem
// artifacts prefer availability over perfection).
//
// Toggles (read once at startup, overridable at runtime for benches):
//   REVELIO_FLIGHT_RECORDER=0   disables recording; the hot path is then one
//                               relaxed load + branch (measured-zero overhead,
//                               gated by BENCH_obs.json)
//   REVELIO_FLIGHT_CAPACITY=N   total event capacity (default 65536)
//   REVELIO_FLIGHT_DUMP=path    arms the SIGABRT/SIGSEGV crash handler: any
//                               crash writes the last-N-events Chrome trace
//                               to `path` before the default signal action
//
// Event names must be string literals or interned strings: the ring stores
// `const char*` only. Use InternFlightName for computed names (explainer
// phase markers); interning is a mutex + map hit, so keep it off per-epoch
// hot paths.

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/json.h"

namespace revelio::obs {

enum class FlightEventKind : uint8_t {
  kSpanBegin = 0,
  kSpanEnd = 1,
  kCounterDelta = 2,
  kPhase = 4,  // 3 was a retired event kind; values stay stable
};

// One decoded record, as returned by FlightRecorder::Collect.
struct FlightEvent {
  uint64_t seq = 0;  // global claim order (monotone per shard)
  FlightEventKind kind = FlightEventKind::kPhase;
  const char* name = nullptr;
  double t_us = 0.0;   // microseconds since the trace epoch
  double value = 0.0;  // counter delta / span duration (end)
  int tid = 0;         // metric shard index of the writing thread
};

// Global on/off switch, initialized from REVELIO_FLIGHT_RECORDER (default on).
bool FlightEnabled();
void SetFlightEnabled(bool enabled);

// Interns `name` into process-lifetime storage and returns a stable pointer.
// Repeated calls with the same contents return the same pointer.
const char* InternFlightName(const std::string& name);

class FlightRecorder {
 public:
  static FlightRecorder& Global();

  // Appends one event. No-op (one relaxed load) when FlightEnabled() is
  // false. `name` must outlive the process (literal or interned).
  void Record(FlightEventKind kind, const char* name, double value = 0.0);

  // Decoded snapshot of every retained event, oldest first. Safe to call
  // while writers are active (records claimed mid-dump may be torn or
  // skipped).
  std::vector<FlightEvent> Collect() const;

  // Total events the ring can retain across all shards.
  size_t capacity() const;
  // Events ever recorded (>= capacity once wrapped).
  uint64_t total_recorded() const;
  // Drops every retained event (testing; writers may run concurrently).
  void Clear();

  // Chrome trace-event JSON of the retained events: "B"/"E" span events,
  // "C" counter samples, "i" instants for phase markers.
  void AppendChromeTrace(JsonWriter* writer) const;
  bool WriteChromeTrace(const std::string& path) const;

  // Crash-dump plumbing. SetDumpPath + InstallCrashHandler arm SIGABRT and
  // SIGSEGV handlers that best-effort write the flight record to the dump
  // path and then re-raise with the default action. REVELIO_FLIGHT_DUMP=path
  // does both automatically on first FlightRecorder use.
  void SetDumpPath(const std::string& path);
  std::string dump_path() const;

 private:
  FlightRecorder();
  struct Shard;
  Shard* shards_;  // fixed array of kFlightShards, leaked with the singleton
  size_t shard_capacity_ = 0;
};

// Installs the SIGABRT/SIGSEGV flight-dump handlers (idempotent). The dump
// handler is best-effort, not strictly async-signal-safe; it exists to leave
// a post-mortem artifact, not to guarantee one under arbitrary corruption.
void InstallCrashHandler();

// Convenience wrappers used by the instrumentation sites.
inline void RecordFlightEvent(FlightEventKind kind, const char* name, double value = 0.0) {
  if (!FlightEnabled()) return;
  FlightRecorder::Global().Record(kind, name, value);
}
inline void RecordPhase(const char* name) {
  RecordFlightEvent(FlightEventKind::kPhase, name);
}

// Writes the flight record to REVELIO_FLIGHT_DUMP / SetDumpPath target.
// Returns false when no path is configured or the write failed. Called by
// the crash handler and usable directly before an expected abort.
bool DumpFlightRecord();

}  // namespace revelio::obs

#endif  // REVELIO_OBS_RECORDER_H_
