// Prometheus exposition tests: name sanitization, and the full round trip —
// snapshot -> exposition text -> parse -> every counter, gauge, cumulative
// histogram bucket, sum/count, and derived p50/p95/p99 gauge agrees with the
// same snapshot (the source of truth the JSON export also renders). Plus the
// atomic file writer and the background export thread.

#include "obs/export_prom.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace revelio {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string TempPath(const char* name) { return ::testing::TempDir() + "/" + name; }

// Minimal exposition parser: "name{labels} value" lines keyed by
// name + label string; "# TYPE name kind" lines keyed by name.
struct Exposition {
  std::map<std::string, double> samples;  // "name" or "name{le=\"...\"}"
  std::map<std::string, std::string> types;
};

Exposition ParseExposition(const std::string& text) {
  Exposition parsed;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string name;
      std::string kind;
      fields >> name >> kind;
      parsed.types[name] = kind;
      continue;
    }
    if (line[0] == '#') continue;
    // The sample name (with optional {labels}) runs up to the last space.
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    parsed.samples[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return parsed;
}

std::string FormatBound(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

class ExportPromTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::StopMetricsExportThread();
    obs::SetEnabled(false);
  }
};

TEST_F(ExportPromTest, MetricNameSanitization) {
  EXPECT_EQ(obs::PrometheusMetricName("plan.replays"), "revelio_plan_replays");
  EXPECT_EQ(obs::PrometheusMetricName("gnn.train.epoch-seconds"),
            "revelio_gnn_train_epoch_seconds");
  EXPECT_EQ(obs::PrometheusMetricName("weird name!@#$%^&*()"), "revelio_weirdname");
  EXPECT_EQ(obs::PrometheusMetricName("already_ok_123"), "revelio_already_ok_123");
  EXPECT_EQ(obs::PrometheusMetricName(""), "revelio_");
}

// The acceptance round trip: every metric in the exposition must agree with
// the MetricsSnapshot it was rendered from.
TEST_F(ExportPromTest, ExpositionAgreesWithSnapshotOnEveryMetric) {
  obs::SetEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* counter = registry.GetCounter("promtest.counter");
  counter->Reset();
  counter->Add(42);
  obs::Gauge* gauge = registry.GetGauge("promtest.gauge");
  gauge->Set(2.5);
  obs::Histogram* histogram = registry.GetHistogram("promtest.histogram", {0.1, 1.0, 10.0});
  histogram->Reset();
  for (double v : {0.05, 0.5, 0.5, 5.0, 50.0}) histogram->Observe(v);

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  const Exposition parsed = ParseExposition(obs::PrometheusText(snapshot));

  // Counters: `<name>_total` with TYPE counter.
  for (const auto& [raw, value] : snapshot.counters) {
    const std::string name = obs::PrometheusMetricName(raw) + "_total";
    ASSERT_TRUE(parsed.samples.count(name)) << "missing counter " << name;
    EXPECT_EQ(parsed.samples.at(name), static_cast<double>(value)) << name;
    EXPECT_EQ(parsed.types.at(name), "counter");
  }
  // Gauges.
  for (const auto& [raw, value] : snapshot.gauges) {
    const std::string name = obs::PrometheusMetricName(raw);
    ASSERT_TRUE(parsed.samples.count(name)) << "missing gauge " << name;
    EXPECT_EQ(parsed.samples.at(name), value) << name;
    EXPECT_EQ(parsed.types.at(name), "gauge");
  }
  // Histograms: cumulative buckets, +Inf, sum, count, derived quantiles.
  for (const auto& entry : snapshot.histograms) {
    const std::string name = obs::PrometheusMetricName(entry.name);
    EXPECT_EQ(parsed.types.at(name), "histogram");
    uint64_t cumulative = 0;
    for (size_t b = 0; b < entry.bounds.size(); ++b) {
      cumulative += entry.counts[b];
      const std::string key = name + "_bucket{le=\"" + FormatBound(entry.bounds[b]) + "\"}";
      ASSERT_TRUE(parsed.samples.count(key)) << "missing bucket " << key;
      EXPECT_EQ(parsed.samples.at(key), static_cast<double>(cumulative)) << key;
    }
    const std::string inf_key = name + "_bucket{le=\"+Inf\"}";
    ASSERT_TRUE(parsed.samples.count(inf_key)) << "missing " << inf_key;
    EXPECT_EQ(parsed.samples.at(inf_key), static_cast<double>(entry.count));
    EXPECT_EQ(parsed.samples.at(name + "_count"), static_cast<double>(entry.count));
    EXPECT_DOUBLE_EQ(parsed.samples.at(name + "_sum"), entry.sum);
    const obs::HistogramSummary summary = obs::SummarizeHistogram(entry);
    EXPECT_DOUBLE_EQ(parsed.samples.at(name + "_p50"), summary.p50) << name;
    EXPECT_DOUBLE_EQ(parsed.samples.at(name + "_p95"), summary.p95) << name;
    EXPECT_DOUBLE_EQ(parsed.samples.at(name + "_p99"), summary.p99) << name;
  }
  // Nothing in the exposition that is not in the snapshot: count the sample
  // families (each histogram renders bounds + 5 fixed series).
  size_t expected_samples = snapshot.counters.size() + snapshot.gauges.size();
  for (const auto& entry : snapshot.histograms) {
    expected_samples += entry.bounds.size() + 1 /*+Inf*/ + 2 /*sum,count*/ + 3 /*quantiles*/;
  }
  EXPECT_EQ(parsed.samples.size(), expected_samples);
}

TEST_F(ExportPromTest, KnownHistogramRendersExactCumulativeBuckets) {
  obs::MetricsSnapshot::HistogramEntry entry;
  entry.name = "promtest.exact";
  entry.bounds = {1.0, 2.0};
  entry.counts = {3, 4, 2};  // last = overflow
  entry.count = 9;
  entry.sum = 12.5;
  obs::MetricsSnapshot snapshot;
  snapshot.histograms.push_back(entry);
  const Exposition parsed = ParseExposition(obs::PrometheusText(snapshot));
  EXPECT_EQ(parsed.samples.at("revelio_promtest_exact_bucket{le=\"1\"}"), 3.0);
  EXPECT_EQ(parsed.samples.at("revelio_promtest_exact_bucket{le=\"2\"}"), 7.0);
  EXPECT_EQ(parsed.samples.at("revelio_promtest_exact_bucket{le=\"+Inf\"}"), 9.0);
  EXPECT_EQ(parsed.samples.at("revelio_promtest_exact_sum"), 12.5);
  EXPECT_EQ(parsed.samples.at("revelio_promtest_exact_count"), 9.0);
}

TEST_F(ExportPromTest, WriteFileIsAtomicAndParseable) {
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().GetCounter("promtest.file.counter")->Add(1);
  const std::string path = TempPath("prom_export.txt");
  ASSERT_TRUE(obs::WritePrometheusTextFile(path));
  // No .tmp residue from the tmp+rename protocol.
  EXPECT_TRUE(ReadFile(path + ".tmp").empty());
  const Exposition parsed = ParseExposition(ReadFile(path));
  EXPECT_TRUE(parsed.samples.count("revelio_promtest_file_counter_total"));
  std::remove(path.c_str());
}

TEST_F(ExportPromTest, BackgroundExporterRewritesFile) {
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().GetCounter("promtest.bg.counter")->Add(3);
  const std::string path = TempPath("prom_bg.txt");
  std::remove(path.c_str());
  obs::StartMetricsExportThread(path, 10);
  // Poll for the first periodic write (bounded: ~1s worst case).
  std::string content;
  for (int i = 0; i < 100 && content.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    content = ReadFile(path);
  }
  obs::StopMetricsExportThread();
  ASSERT_FALSE(content.empty()) << "background exporter never wrote " << path;
  const Exposition parsed = ParseExposition(content);
  EXPECT_TRUE(parsed.samples.count("revelio_promtest_bg_counter_total"));
  // Stop is idempotent and a second start/stop cycle works.
  obs::StopMetricsExportThread();
  obs::StartMetricsExportThread(path, 5);
  obs::StopMetricsExportThread();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace revelio
