// Tests for the obs telemetry subsystem: JSON writer/parser round trips,
// counter/histogram correctness under ParallelFor contention, span nesting
// across threads, the disabled-mode zero-allocation contract, and the
// Chrome-trace / metrics JSON exports parsed back for well-formedness.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"

// --- Global allocation counting (for the disabled-mode contract) -------------
// Counting is gated so gtest's own allocations do not interfere; only the
// window between StartCountingAllocations/StopCountingAllocations counts.

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<int64_t> g_allocation_count{0};

void StartCountingAllocations() {
  g_allocation_count.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
}

int64_t StopCountingAllocations() {
  g_count_allocations.store(false, std::memory_order_relaxed);
  return g_allocation_count.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace revelio {
namespace {

// Every test leaves telemetry disabled and the thread count restored.
class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::SetEnabled(false);
    obs::TraceRecorder::Global().Clear();
    util::SetNumThreads(util::HardwareThreads());
  }
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// --- JSON --------------------------------------------------------------------

TEST_F(ObsTest, JsonWriterRoundTrip) {
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("text");
  writer.String("line1\nline2 \"quoted\" \\ tab\t");
  writer.Key("int");
  writer.Int(-42);
  writer.Key("uint");
  writer.Uint(uint64_t{1} << 60);
  writer.Key("pi");
  writer.Double(3.25);
  writer.Key("flag");
  writer.Bool(true);
  writer.Key("nothing");
  writer.Null();
  writer.Key("items");
  writer.BeginArray();
  writer.Int(1);
  writer.Int(2);
  writer.BeginObject();
  writer.Key("nested");
  writer.String("yes");
  writer.EndObject();
  writer.EndArray();
  writer.EndObject();

  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(writer.str(), &root, &error)) << error;
  ASSERT_TRUE(root.is_object());
  ASSERT_NE(root.Find("text"), nullptr);
  EXPECT_EQ(root.Find("text")->string_value, "line1\nline2 \"quoted\" \\ tab\t");
  EXPECT_EQ(root.Find("int")->number_value, -42.0);
  EXPECT_EQ(root.Find("pi")->number_value, 3.25);
  EXPECT_TRUE(root.Find("flag")->bool_value);
  EXPECT_EQ(root.Find("nothing")->type, obs::JsonValue::Type::kNull);
  ASSERT_TRUE(root.Find("items")->is_array());
  ASSERT_EQ(root.Find("items")->array_items.size(), 3u);
  EXPECT_EQ(root.Find("items")->array_items[2].Find("nested")->string_value, "yes");
}

TEST_F(ObsTest, JsonWriterNonFiniteBecomesNull) {
  obs::JsonWriter writer;
  writer.BeginArray();
  writer.Double(std::numeric_limits<double>::infinity());
  writer.Double(std::numeric_limits<double>::quiet_NaN());
  writer.EndArray();
  EXPECT_EQ(writer.str(), "[null,null]");
}

TEST_F(ObsTest, JsonParserRejectsMalformed) {
  obs::JsonValue root;
  std::string error;
  EXPECT_FALSE(obs::ParseJson("{\"a\": 1,}", &root, &error));
  EXPECT_FALSE(obs::ParseJson("{\"a\" 1}", &root, &error));
  EXPECT_FALSE(obs::ParseJson("[1, 2", &root, &error));
  EXPECT_FALSE(obs::ParseJson("{} trailing", &root, &error));
  EXPECT_FALSE(obs::ParseJson("", &root, &error));
}

TEST_F(ObsTest, JsonParserHandlesEscapes) {
  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(R"({"s": "aA\n\t\"\\"})", &root, &error)) << error;
  EXPECT_EQ(root.Find("s")->string_value, "aA\n\t\"\\");
}

// --- Metrics -----------------------------------------------------------------

TEST_F(ObsTest, CounterUnderParallelForContention) {
  obs::SetEnabled(true);
  util::SetNumThreads(4);
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("test.counter.contention");
  counter->Reset();
  constexpr int64_t kItems = 200'000;
  util::ParallelFor(0, kItems, 1000, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) counter->Increment();
  });
  EXPECT_EQ(counter->Total(), static_cast<uint64_t>(kItems));
  counter->Add(0);  // no-op by contract
  EXPECT_EQ(counter->Total(), static_cast<uint64_t>(kItems));
}

TEST_F(ObsTest, CounterIgnoredWhenDisabled) {
  obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter("test.counter.disabled");
  counter->Reset();
  obs::SetEnabled(false);
  counter->Add(7);
  EXPECT_EQ(counter->Total(), 0u);
  obs::SetEnabled(true);
  counter->Add(7);
  EXPECT_EQ(counter->Total(), 7u);
}

TEST_F(ObsTest, GaugeGatedOnEnabled) {
  obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge("test.gauge");
  gauge->Reset();
  obs::SetEnabled(false);
  gauge->Set(1.5);
  EXPECT_EQ(gauge->Value(), 0.0);
  obs::SetEnabled(true);
  gauge->Set(2.5);
  EXPECT_EQ(gauge->Value(), 2.5);
}

TEST_F(ObsTest, HistogramBucketsAndContention) {
  obs::SetEnabled(true);
  util::SetNumThreads(4);
  obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("test.histogram", {1.0, 2.0, 3.0});
  histogram->Reset();
  // Values cycle 0.5 / 1.5 / 2.5 / 4.0 -> one observation per bucket per cycle.
  constexpr int64_t kCycles = 10'000;
  const double values[4] = {0.5, 1.5, 2.5, 4.0};
  util::ParallelFor(0, kCycles * 4, 500, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) histogram->Observe(values[i % 4]);
  });
  EXPECT_EQ(histogram->Count(), static_cast<uint64_t>(kCycles * 4));
  const std::vector<uint64_t> counts = histogram->BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  for (uint64_t c : counts) EXPECT_EQ(c, static_cast<uint64_t>(kCycles));
  EXPECT_NEAR(histogram->Sum(), kCycles * (0.5 + 1.5 + 2.5 + 4.0), 1e-6);
}

TEST_F(ObsTest, RegistryReturnsStablePointers) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* a = registry.GetCounter("test.stable");
  obs::Counter* b = registry.GetCounter("test.stable");
  EXPECT_EQ(a, b);
  obs::Histogram* h1 = registry.GetHistogram("test.stable.h", {1.0});
  obs::Histogram* h2 = registry.GetHistogram("test.stable.h", {5.0, 6.0});
  EXPECT_EQ(h1, h2);  // re-registration keeps the original bounds
  EXPECT_EQ(h1->bucket_bounds().size(), 1u);
}

TEST_F(ObsTest, MetricsJsonExportParsesBack) {
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().GetCounter("test.export.counter")->Reset();
  obs::MetricsRegistry::Global().GetCounter("test.export.counter")->Add(5);
  const std::string path = TempPath("metrics_export.json");
  ASSERT_TRUE(obs::WriteMetricsJsonFile(path));
  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(ReadFile(path), &root, &error)) << error;
  const obs::JsonValue* metrics = root.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const obs::JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  const obs::JsonValue* value = counters->Find("test.export.counter");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->number_value, 5.0);
  ASSERT_NE(metrics->Find("gauges"), nullptr);
  ASSERT_NE(metrics->Find("histograms"), nullptr);
  std::remove(path.c_str());
}

// --- Spans -------------------------------------------------------------------

TEST_F(ObsTest, SpanNestingOnOneThread) {
  obs::SetEnabled(true);
  obs::TraceRecorder::Global().Clear();
  {
    obs::ScopedSpan outer("test.outer");
    obs::ScopedSpan inner("test.inner");
  }
  const std::vector<obs::TraceEvent> events = obs::TraceRecorder::Global().Consolidated();
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  for (const auto& event : events) {
    if (event.name == "test.outer") outer = &event;
    if (event.name == "test.inner") inner = &event;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_EQ(inner->depth, outer->depth + 1);
  // Containment: the inner interval lies within the outer one.
  EXPECT_GE(inner->start_us, outer->start_us);
  EXPECT_LE(inner->start_us + inner->dur_us, outer->start_us + outer->dur_us + 1e-6);
}

TEST_F(ObsTest, SpansAcrossParallelForThreads) {
  obs::SetEnabled(true);
  util::SetNumThreads(4);
  obs::TraceRecorder::Global().Clear();
  util::ParallelFor(0, 16, 1, [](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      obs::ScopedSpan span("test.task");
      volatile double sink = 0.0;
      for (int k = 0; k < 1000; ++k) sink += k;
      (void)sink;
    }
  });
  const std::vector<obs::TraceEvent> events = obs::TraceRecorder::Global().Consolidated();
  int tasks = 0;
  int workers = 0;
  for (const auto& event : events) {
    if (event.name == "test.task") {
      ++tasks;
      // Each task span is nested inside its thread's ParallelFor.worker span.
      EXPECT_GE(event.depth, 1);
    }
    if (event.name == "ParallelFor.worker") ++workers;
  }
  EXPECT_EQ(tasks, 16);
  EXPECT_GE(workers, 1);
}

TEST_F(ObsTest, SerialFallbackRecordsNoWorkerSpan) {
  // At 1 thread ParallelFor runs fn on the caller: no "ParallelFor.worker"
  // span and no worker busy time, so the caller's own spans own the work.
  obs::SetEnabled(true);
  util::SetNumThreads(1);
  obs::TraceRecorder::Global().Clear();
  obs::Counter* busy = obs::MetricsRegistry::Global().GetCounter("parallel.worker_busy_us");
  const uint64_t busy_before = busy->Total();
  {
    obs::ScopedSpan caller("test.caller");
    util::ParallelFor(0, 16, 1, [](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        obs::ScopedSpan span("test.task");
        volatile double sink = 0.0;
        for (int k = 0; k < 20000; ++k) sink = sink + k;
        (void)sink;
      }
    });
  }
  int tasks = 0;
  for (const auto& event : obs::TraceRecorder::Global().Consolidated()) {
    EXPECT_NE(event.name, "ParallelFor.worker");
    if (event.name == "test.task") {
      ++tasks;
      EXPECT_EQ(event.depth, 1) << "task spans nest directly under the caller's span";
    }
  }
  EXPECT_EQ(tasks, 16);
  EXPECT_EQ(busy->Total(), busy_before);
}

TEST_F(ObsTest, EventCapCountsDropped) {
  obs::SetEnabled(true);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Clear();
  const size_t original_cap = recorder.max_events_per_thread();
  recorder.SetMaxEventsPerThread(4);
  for (int i = 0; i < 10; ++i) {
    obs::ScopedSpan span("test.capped");
  }
  EXPECT_GE(recorder.dropped_events(), 1u);
  EXPECT_LE(recorder.Consolidated().size(), 4u);
  recorder.SetMaxEventsPerThread(original_cap);
}

TEST_F(ObsTest, DisabledSpansAndMetricsAllocateNothing) {
  // Warm the thread-local shard and span log while enabled so registration
  // allocations happen outside the measured window.
  obs::SetEnabled(true);
  obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter("test.noalloc");
  {
    obs::ScopedSpan warm("test.warm");
    counter->Increment();
  }
  obs::SetEnabled(false);

  StartCountingAllocations();
  for (int i = 0; i < 100; ++i) {
    obs::ScopedSpan span("test.noalloc.span");
    counter->Add(3);
  }
  const int64_t allocations = StopCountingAllocations();
  EXPECT_EQ(allocations, 0);
}

TEST_F(ObsTest, ChromeTraceExportIsWellFormed) {
  obs::SetEnabled(true);
  util::SetNumThreads(2);
  obs::TraceRecorder::Global().Clear();
  {
    obs::ScopedSpan outer("test.export.outer");
    util::ParallelFor(0, 8, 1, [](int64_t, int64_t) {
      obs::ScopedSpan task("test.export.task");
    });
  }
  const std::string path = TempPath("trace_export.json");
  ASSERT_TRUE(obs::TraceRecorder::Global().WriteChromeTrace(path));

  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(ReadFile(path), &root, &error)) << error;
  ASSERT_NE(root.Find("displayTimeUnit"), nullptr);
  EXPECT_EQ(root.Find("displayTimeUnit")->string_value, "ms");
  const obs::JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_outer = false;
  bool saw_task = false;
  bool saw_thread_metadata = false;
  for (const auto& event : events->array_items) {
    ASSERT_TRUE(event.is_object());
    const obs::JsonValue* name = event.Find("name");
    const obs::JsonValue* ph = event.Find("ph");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    if (ph->string_value == "X") {
      ASSERT_NE(event.Find("ts"), nullptr);
      ASSERT_NE(event.Find("dur"), nullptr);
      ASSERT_NE(event.Find("tid"), nullptr);
      if (name->string_value == "test.export.outer") saw_outer = true;
      if (name->string_value == "test.export.task") saw_task = true;
    } else if (ph->string_value == "M" && name->string_value == "thread_name") {
      saw_thread_metadata = true;
    }
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_task);
  EXPECT_TRUE(saw_thread_metadata);
  std::remove(path.c_str());
}

TEST_F(ObsTest, ProfileTableAggregatesSpans) {
  obs::SetEnabled(true);
  obs::TraceRecorder::Global().Clear();
  {
    obs::ScopedSpan outer("test.profile.outer");
    obs::ScopedSpan inner("test.profile.inner");
  }
  const std::string table = obs::TraceRecorder::Global().ProfileTable();
  EXPECT_NE(table.find("test.profile.outer"), std::string::npos);
  EXPECT_NE(table.find("test.profile.inner"), std::string::npos);
  EXPECT_NE(table.find("Self"), std::string::npos);
  obs::TraceRecorder::Global().Clear();
  EXPECT_TRUE(obs::TraceRecorder::Global().ProfileTable().empty());
}

TEST_F(ObsTest, SnapshotIsSortedByName) {
  obs::MetricsRegistry::Global().GetCounter("test.zz");
  obs::MetricsRegistry::Global().GetCounter("test.aa");
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  for (size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LT(snapshot.counters[i - 1].first, snapshot.counters[i].first);
  }
}

// --- JSON escaping round trips (audit/trace writers depend on these) ---------

TEST_F(ObsTest, JsonEscapeControlCharactersRoundTrip) {
  // Every byte below 0x20 plus the named escapes must survive write -> parse.
  std::string raw;
  for (int c = 1; c < 0x20; ++c) raw.push_back(static_cast<char>(c));
  raw += "\"\\/ plain ASCII";
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key(raw);  // keys are escaped through the same path as values
  writer.String(raw);
  writer.EndObject();

  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(writer.str(), &root, &error)) << error;
  ASSERT_EQ(root.object_items.size(), 1u);
  EXPECT_EQ(root.object_items[0].first, raw);
  EXPECT_EQ(root.object_items[0].second.string_value, raw);
}

TEST_F(ObsTest, JsonEscapeEmbeddedNulAndHighBytes) {
  const std::string raw = std::string("a\0b", 3) + "\xc3\xa9";  // NUL + UTF-8 é
  obs::JsonWriter writer;
  writer.String(raw);
  // NUL is escaped as \u0000 so the document itself stays NUL-free.
  EXPECT_EQ(writer.str().find('\0'), std::string::npos);
  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(writer.str(), &root, &error)) << error;
  EXPECT_EQ(root.string_value, raw);
}

TEST_F(ObsTest, JsonNonFiniteParsesBackAsNull) {
  obs::JsonWriter writer;
  writer.BeginArray();
  writer.Double(std::numeric_limits<double>::infinity());
  writer.Double(-std::numeric_limits<double>::infinity());
  writer.Double(std::numeric_limits<double>::quiet_NaN());
  writer.Double(1.5);
  writer.EndArray();
  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(writer.str(), &root, &error)) << error;
  ASSERT_EQ(root.array_items.size(), 4u);
  EXPECT_EQ(root.array_items[0].type, obs::JsonValue::Type::kNull);
  EXPECT_EQ(root.array_items[1].type, obs::JsonValue::Type::kNull);
  EXPECT_EQ(root.array_items[2].type, obs::JsonValue::Type::kNull);
  EXPECT_EQ(root.array_items[3].number_value, 1.5);
}

// --- SLO histogram summarization ---------------------------------------------

obs::MetricsSnapshot::HistogramEntry MakeEntry(std::vector<double> bounds,
                                               std::vector<uint64_t> counts) {
  obs::MetricsSnapshot::HistogramEntry entry;
  entry.name = "test.quantile";
  entry.bounds = std::move(bounds);
  entry.counts = std::move(counts);
  for (uint64_t c : entry.counts) entry.count += c;
  return entry;
}

TEST_F(ObsTest, HistogramQuantileUniformSingleBucket) {
  // 100 observations all in (0, 10]: the estimate interpolates linearly, so
  // p50 = 5, p95 = 9.5, p99 = 9.9.
  const auto entry = MakeEntry({10.0}, {100, 0});
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(entry, 0.50), 5.0);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(entry, 0.95), 9.5);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(entry, 0.99), 9.9);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(entry, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(entry, 1.0), 10.0);
}

TEST_F(ObsTest, HistogramQuantileSeededDistributionLandsInRightBucket) {
  // A seeded skewed grid: 80 fast, 15 medium, 4 slow, 1 overflow.
  const auto entry = MakeEntry({0.001, 0.01, 0.1, 1.0}, {80, 15, 4, 0, 1});
  const obs::HistogramSummary summary = obs::SummarizeHistogram(entry);
  // p50 lands inside the first bucket (rank 50 of 80).
  EXPECT_GT(summary.p50, 0.0);
  EXPECT_LE(summary.p50, 0.001);
  EXPECT_DOUBLE_EQ(summary.p50, 0.001 * (50.0 / 80.0));
  // p95 is exactly the second bucket's upper bound (rank 95 = cum end).
  EXPECT_DOUBLE_EQ(summary.p95, 0.01);
  // p99 lands in the third bucket: rank 99, 4 observations span (0.01, 0.1].
  EXPECT_DOUBLE_EQ(summary.p99, 0.01 + (0.1 - 0.01) * ((99.0 - 95.0) / 4.0));
}

TEST_F(ObsTest, HistogramQuantileOverflowSaturatesAtLargestBound) {
  // Most mass in the overflow bucket: every quantile past the finite buckets
  // reports the largest finite bound instead of extrapolating.
  const auto entry = MakeEntry({1.0, 2.0}, {1, 1, 98});
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(entry, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(entry, 0.99), 2.0);
  // Out-of-range q is clamped.
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(entry, 1.5), 2.0);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(entry, -0.5), 0.0);
}

TEST_F(ObsTest, HistogramQuantileEmptyAndNegativeGrids) {
  const auto empty = MakeEntry({1.0}, {0, 0});
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(empty, 0.5), 0.0);
  // A grid starting below zero uses bounds[0] as the first lower edge.
  const auto negative = MakeEntry({-1.0, 1.0}, {0, 10, 0});
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(negative, 0.5), 0.0);  // midpoint of (-1, 1)
}

TEST_F(ObsTest, HistogramMergeIsCommutativeAndAssociative) {
  const auto a = MakeEntry({1.0, 2.0}, {1, 2, 3});
  const auto b = MakeEntry({1.0, 2.0}, {4, 0, 1});
  const auto c = MakeEntry({1.0, 2.0}, {0, 7, 2});

  // (a + b) + c
  auto left = a;
  ASSERT_TRUE(obs::MergeHistogramEntry(&left, b));
  ASSERT_TRUE(obs::MergeHistogramEntry(&left, c));
  // a + (b + c)
  auto right_inner = b;
  ASSERT_TRUE(obs::MergeHistogramEntry(&right_inner, c));
  auto right = a;
  ASSERT_TRUE(obs::MergeHistogramEntry(&right, right_inner));
  // b + a (commutativity)
  auto swapped = b;
  ASSERT_TRUE(obs::MergeHistogramEntry(&swapped, a));

  EXPECT_EQ(left.counts, right.counts);
  EXPECT_EQ(left.count, right.count);
  EXPECT_DOUBLE_EQ(left.sum, right.sum);
  auto ab = a;
  ASSERT_TRUE(obs::MergeHistogramEntry(&ab, b));
  EXPECT_EQ(ab.counts, swapped.counts);
  // Quantiles of the merge depend only on the merged counts.
  EXPECT_DOUBLE_EQ(obs::SummarizeHistogram(left).p95, obs::SummarizeHistogram(right).p95);
}

TEST_F(ObsTest, HistogramMergeRejectsMismatchedBounds) {
  auto into = MakeEntry({1.0, 2.0}, {1, 2, 3});
  const auto original = into;
  const auto other = MakeEntry({1.0, 3.0}, {4, 5, 6});
  EXPECT_FALSE(obs::MergeHistogramEntry(&into, other));
  EXPECT_EQ(into.counts, original.counts) << "failed merge must leave `into` untouched";
  EXPECT_EQ(into.count, original.count);
}

TEST_F(ObsTest, SnapshotQuantilesMatchShardedObservation) {
  // Observations spread across ParallelFor shards summarize the same as the
  // single-shard math: the snapshot merges shards before we summarize.
  obs::SetEnabled(true);
  util::SetNumThreads(4);
  obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("test.quantile.sharded", {1.0, 2.0, 4.0});
  histogram->Reset();
  util::ParallelFor(0, 400, 25, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) histogram->Observe(0.5 + 3.0 * (i % 2));
  });
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  const obs::MetricsSnapshot::HistogramEntry* entry = nullptr;
  for (const auto& h : snapshot.histograms) {
    if (h.name == "test.quantile.sharded") entry = &h;
  }
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->count, 400u);
  // 200 at 0.5 (bucket <=1), 200 at 3.5 (bucket <=4): p50 is the first
  // bucket's upper edge, p95 interpolates inside (2, 4].
  const obs::HistogramSummary summary = obs::SummarizeHistogram(*entry);
  EXPECT_DOUBLE_EQ(summary.p50, 1.0);
  EXPECT_DOUBLE_EQ(summary.p95, 2.0 + 2.0 * ((380.0 - 200.0) / 200.0));
}

}  // namespace
}  // namespace revelio
