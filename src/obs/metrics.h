#ifndef REVELIO_OBS_METRICS_H_
#define REVELIO_OBS_METRICS_H_

// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms with thread-local sharded aggregation.
//
// Overhead contract (see DESIGN.md §7):
//   - disabled (the default): every update is one relaxed atomic load and a
//     branch; no allocation, no stores.
//   - enabled: counters/histograms pay ~one relaxed atomic RMW on a
//     shard selected per thread, so concurrent updaters rarely share a
//     cache line. Reads (Total/Snapshot) sum the shards and may tear
//     between shards; totals are exact once updaters quiesce.
//
// Metric objects are created on first GetCounter/GetGauge/GetHistogram and
// never destroyed, so hot paths can cache the returned pointer in a
// function-local static.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/recorder.h"

namespace revelio::obs {

// Global switch shared by metrics and tracing. Defaults to off.
namespace internal {
extern std::atomic<bool> g_enabled;
// Stable per-thread shard index in [0, kMetricShards).
int ThisThreadShard();
}  // namespace internal

inline constexpr int kMetricShards = 16;

inline bool Enabled() { return internal::g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool enabled);

class Counter {
 public:
  void Add(uint64_t n) {
    if (n == 0) return;
    // Counter deltas also land in the bounded flight ring (independent of the
    // metrics switch) so a post-mortem shows what was being counted.
    if (FlightEnabled()) {
      FlightRecorder::Global().Record(FlightEventKind::kCounterDelta, name_.c_str(),
                                      static_cast<double>(n));
    }
    if (!Enabled()) return;
    cells_[internal::ThisThreadShard()].value.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Total() const;
  void Reset();
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  std::string name_;
  Cell cells_[kMetricShards];
};

// Last-write-wins scalar (e.g. training loss per epoch).
class Gauge {
 public:
  void Set(double value) {
    if (!Enabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram: bucket i counts observations <= bounds[i]; one
// overflow bucket catches the rest. Bounds are fixed at registration.
class Histogram {
 public:
  void Observe(double value);

  uint64_t Count() const;
  double Sum() const;
  // Per-bucket totals, size bucket_bounds().size() + 1 (last = overflow).
  std::vector<uint64_t> BucketCounts() const;
  const std::vector<double>& bucket_bounds() const { return bounds_; }
  void Reset();
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::vector<double> bounds);

  struct alignas(64) Shard {
    explicit Shard(size_t buckets) : counts(buckets) {}
    std::vector<std::atomic<uint64_t>> counts;
    std::atomic<uint64_t> total{0};
    std::atomic<double> sum{0.0};
  };
  std::string name_;
  std::vector<double> bounds_;  // ascending
  std::vector<std::unique_ptr<Shard>> shards_;
};

// Read-only view of every registered metric at one point in time.
struct MetricsSnapshot {
  struct HistogramEntry {
    std::string name;
    std::vector<double> bounds;
    std::vector<uint64_t> counts;
    uint64_t count = 0;
    double sum = 0.0;
  };
  std::vector<std::pair<std::string, uint64_t>> counters;  // sorted by name
  std::vector<std::pair<std::string, double>> gauges;      // sorted by name
  std::vector<HistogramEntry> histograms;                  // sorted by name
};

// --- SLO summarization over fixed-boundary buckets ---------------------------
//
// Quantiles are estimated Prometheus-style: find the bucket holding the
// target rank, then interpolate linearly inside it. The first bucket's lower
// edge is taken as min(0, bounds[0]) (the grids here are timing/size scales),
// and any rank landing in the overflow bucket reports the largest finite
// bound — the estimate saturates rather than extrapolates.

// q in [0, 1]; returns 0 for an empty histogram.
double HistogramQuantile(const MetricsSnapshot::HistogramEntry& entry, double q);

struct HistogramSummary {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};
HistogramSummary SummarizeHistogram(const MetricsSnapshot::HistogramEntry& entry);

// Element-wise merge of two shards of the same histogram (identical bounds).
// Returns false (and leaves `into` untouched) on a bounds mismatch. Merging
// is commutative and associative, so shard aggregation order never matters.
bool MergeHistogramEntry(MetricsSnapshot::HistogramEntry* into,
                         const MetricsSnapshot::HistogramEntry& from);

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Create-on-first-use; the returned pointer is stable for process
  // lifetime. Re-registering a histogram ignores the new bounds.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  // Empty `bounds` selects a decade grid suited to seconds-scale timings.
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds = {});

  MetricsSnapshot Snapshot() const;
  // Zeroes every metric; registrations (and cached pointers) stay valid.
  void ResetAll();

 private:
  MetricsRegistry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Appends the current snapshot as one JSON object value (writer must be
// positioned where a value is expected, e.g. right after Key()).
void AppendMetricsSnapshot(JsonWriter* writer);

// Writes `{"metrics": {...}}` to `path`. Returns false on I/O failure.
bool WriteMetricsJsonFile(const std::string& path);

}  // namespace revelio::obs

#endif  // REVELIO_OBS_METRICS_H_
