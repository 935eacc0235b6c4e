// Per-explanation audit records: the in-memory sink collects one record per
// Explain call (and one per task of an ExplainBatch), with
// per-epoch convergence curves, finite entropies, descending top-k scores,
// phase timings, the driving config, and round-trippable JSON. Auditing off
// keeps hooks inert: Current() stays nullptr and nothing is submitted.

#include "obs/audit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/revelio.h"
#include "explain/explainer.h"
#include "explain/gnnexplainer.h"
#include "gnn/model.h"
#include "graph/graph.h"
#include "obs/json.h"
#include "tensor/tensor.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace revelio {
namespace {

using tensor::Tensor;

constexpr uint64_t kSeed = 20260808;
constexpr int kFeatureDim = 4;
constexpr int kEpochs = 6;

// Self-owning task storage (ExplanationTask holds pointers).
struct TaskData {
  graph::Graph graph;
  Tensor features;
  int target_node = -1;
  int target_class = 0;

  explain::ExplanationTask MakeTask(const gnn::GnnModel* model) const {
    explain::ExplanationTask task;
    task.model = model;
    task.graph = &graph;
    task.features = features;
    task.target_node = target_node;
    task.target_class = target_class;
    return task;
  }
};

// Ring + random chords: connected, every node has in-edges, so flow
// enumeration to any target is non-empty at any depth.
TaskData MakeNodeTaskData(uint64_t seed) {
  util::Rng rng(seed);
  TaskData data;
  const int n = 6 + rng.UniformInt(5);
  data.graph = graph::Graph(n);
  for (int v = 0; v < n; ++v) data.graph.AddUndirectedEdge(v, (v + 1) % n);
  for (int i = 0; i < 4; ++i) {
    const int u = rng.UniformInt(n);
    const int v = rng.UniformInt(n);
    if (u != v && !data.graph.HasEdge(u, v)) data.graph.AddEdge(u, v);
  }
  data.features = Tensor::Uniform(n, kFeatureDim, -1.0f, 1.0f, &rng);
  data.target_node = rng.UniformInt(n);
  data.target_class = rng.UniformInt(2);
  return data;
}

gnn::GnnConfig ModelConfig() {
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGcn;
  config.task = gnn::TaskType::kNodeClassification;
  config.input_dim = kFeatureDim;
  config.hidden_dim = 6;
  config.num_classes = 2;
  config.num_layers = 2;
  config.seed = kSeed + 1;
  return config;
}

core::RevelioOptions RevelioTestOptions() {
  core::RevelioOptions options;
  options.epochs = kEpochs;
  options.seed = kSeed + 2;
  return options;
}

bool AllFinite(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

bool HasConfigKey(const obs::AuditRecord& record, const std::string& key) {
  for (const auto& [k, v] : record.config) {
    if (k == key) return true;
  }
  return false;
}

bool HasPhase(const obs::AuditRecord& record, const std::string& name) {
  for (const auto& [phase, seconds] : record.phase_seconds) {
    if (phase == name && seconds >= 0.0) return true;
  }
  return false;
}

// Every test drains and closes the global sink so later suites start clean.
class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::SetNumThreads(1);
    obs::AuditSink::Global().Close();
  }
  void TearDown() override {
    obs::AuditSink::Global().Close();
    util::SetNumThreads(util::HardwareThreads());
  }
};

TEST_F(AuditTest, DisabledSinkKeepsHooksInert) {
  EXPECT_FALSE(obs::AuditSink::Global().enabled());
  EXPECT_EQ(obs::AuditScope::Current(), nullptr);
  gnn::GnnModel model(ModelConfig());
  model.Freeze();
  const TaskData data = MakeNodeTaskData(kSeed + 10);
  core::RevelioExplainer explainer(RevelioTestOptions());
  const uint64_t before = obs::AuditSink::Global().records_submitted();
  (void)explainer.Explain(data.MakeTask(&model), explain::Objective::kFactual);
  EXPECT_EQ(obs::AuditSink::Global().records_submitted(), before);
}

TEST_F(AuditTest, SequentialExplainEmitsOneCompleteRecord) {
  obs::AuditSink::Global().CollectInMemory();
  gnn::GnnModel model(ModelConfig());
  model.Freeze();
  const TaskData data = MakeNodeTaskData(kSeed + 20);
  core::RevelioExplainer explainer(RevelioTestOptions());
  const explain::Explanation explanation =
      explainer.Explain(data.MakeTask(&model), explain::Objective::kFactual);
  ASSERT_FALSE(explanation.edge_scores.empty());

  const std::vector<obs::AuditRecord> records = obs::AuditSink::Global().TakeRecords();
  ASSERT_EQ(records.size(), 1u);
  const obs::AuditRecord& record = records[0];
  EXPECT_EQ(record.method, "Revelio");
  EXPECT_EQ(record.objective, "factual");
  EXPECT_EQ(record.num_nodes, data.graph.num_nodes());
  EXPECT_EQ(record.num_edges, data.graph.num_edges());
  EXPECT_EQ(record.target_node, data.target_node);
  EXPECT_EQ(record.target_class, data.target_class);
  // One convergence sample per optimizer epoch, all finite.
  ASSERT_EQ(record.loss_curve.size(), static_cast<size_t>(kEpochs));
  ASSERT_EQ(record.mask_entropy.size(), static_cast<size_t>(kEpochs));
  EXPECT_TRUE(AllFinite(record.loss_curve));
  EXPECT_TRUE(AllFinite(record.mask_entropy));
  // Top-k scores sorted descending.
  ASSERT_FALSE(record.top_scores.empty());
  for (size_t i = 1; i < record.top_scores.size(); ++i) {
    EXPECT_GE(record.top_scores[i - 1], record.top_scores[i]);
  }
  EXPECT_GT(record.wall_seconds, 0.0);
  EXPECT_TRUE(HasPhase(record, "optimize"));
  EXPECT_TRUE(HasPhase(record, "enumerate_flows"));
  EXPECT_TRUE(HasConfigKey(record, "epochs"));
  EXPECT_TRUE(HasConfigKey(record, "learning_rate"));
  EXPECT_TRUE(HasConfigKey(record, "tensor_pool"));
}

// ExplainBatch runs one Explain per task, so each task owns a one-record
// audit scope: three tasks emit exactly three records, each carrying its own
// task shape and convergence curve. At 4 threads the tasks run side by side
// and submit in completion order, so records are matched by task shape.
TEST_F(AuditTest, ExplainBatchEmitsOneRecordPerTask) {
  obs::AuditSink::Global().CollectInMemory();
  gnn::GnnModel model(ModelConfig());
  model.Freeze();
  constexpr int kGroup = 3;
  std::vector<TaskData> data;
  std::vector<explain::ExplanationTask> tasks;
  for (int i = 0; i < kGroup; ++i) data.push_back(MakeNodeTaskData(kSeed + 30 + i));
  for (const TaskData& d : data) tasks.push_back(d.MakeTask(&model));
  std::vector<const explain::ExplanationTask*> group;
  for (const auto& task : tasks) group.push_back(&task);

  for (const int threads : {1, 4}) {
    util::SetNumThreads(threads);
    core::RevelioExplainer explainer(RevelioTestOptions());
    const std::vector<explain::Explanation> batched =
        explainer.ExplainBatch(group, explain::Objective::kFactual);
    ASSERT_EQ(batched.size(), static_cast<size_t>(kGroup));

    std::vector<obs::AuditRecord> records = obs::AuditSink::Global().TakeRecords();
    ASSERT_EQ(records.size(), static_cast<size_t>(kGroup)) << "threads=" << threads;
    for (size_t r = 1; r < records.size(); ++r) {
      EXPECT_GT(records[r].record_id, records[r - 1].record_id) << "threads=" << threads;
    }
    std::vector<bool> matched(kGroup, false);
    for (const obs::AuditRecord& record : records) {
      EXPECT_EQ(record.method, "Revelio");
      ASSERT_EQ(record.loss_curve.size(), static_cast<size_t>(kEpochs));
      ASSERT_EQ(record.mask_entropy.size(), static_cast<size_t>(kEpochs));
      EXPECT_TRUE(AllFinite(record.loss_curve));
      EXPECT_TRUE(AllFinite(record.mask_entropy));
      EXPECT_TRUE(HasPhase(record, "optimize"));
      for (int i = 0; i < kGroup; ++i) {
        if (!matched[i] && record.num_nodes == data[i].graph.num_nodes() &&
            record.num_edges == data[i].graph.num_edges() &&
            record.target_node == data[i].target_node) {
          matched[i] = true;
          break;
        }
      }
    }
    for (int i = 0; i < kGroup; ++i) {
      EXPECT_TRUE(matched[i]) << "threads=" << threads << ": no record for task " << i;
    }
  }
}

TEST_F(AuditTest, RecordJsonRoundTrips) {
  obs::AuditRecord record;
  record.record_id = 7;
  record.method = "Revelio";
  record.objective = "factual";
  record.num_nodes = 9;
  record.num_edges = 22;
  record.target_node = 3;
  record.target_class = 1;
  record.loss_curve = {0.9, 0.5, 0.25};
  record.mask_entropy = {0.69, 0.5, 0.31};
  record.top_scores = {2.5, 1.0, -0.5};
  record.pool_hits = 100;
  record.pool_misses = 2;
  record.wall_seconds = 0.125;
  record.phase_seconds = {{"optimize", 0.1}, {"extract", 0.025}};
  record.config = {{"epochs", "3"}, {"note", "quote \" and \n newline"}};

  const std::string json = AuditRecordToJson(record);
  EXPECT_EQ(json.find('\n'), std::string::npos) << "JSONL records must be single-line";
  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(json, &root, &error)) << error;
  EXPECT_EQ(root.Find("record_id")->number_value, 7.0);
  EXPECT_EQ(root.Find("method")->string_value, "Revelio");
  const obs::JsonValue* task = root.Find("task");
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->Find("num_nodes")->number_value, 9.0);
  EXPECT_EQ(task->Find("num_edges")->number_value, 22.0);
  EXPECT_EQ(task->Find("target_node")->number_value, 3.0);
  ASSERT_EQ(root.Find("loss_curve")->array_items.size(), 3u);
  EXPECT_EQ(root.Find("loss_curve")->array_items[2].number_value, 0.25);
  ASSERT_EQ(root.Find("mask_entropy")->array_items.size(), 3u);
  ASSERT_EQ(root.Find("top_scores")->array_items.size(), 3u);
  const obs::JsonValue* pool = root.Find("pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->Find("hits")->number_value, 100.0);
  EXPECT_EQ(pool->Find("misses")->number_value, 2.0);
  const obs::JsonValue* phases = root.Find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_EQ(phases->Find("optimize")->number_value, 0.1);
  const obs::JsonValue* config = root.Find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->Find("note")->string_value, "quote \" and \n newline");
}

TEST_F(AuditTest, ScopesDoNotNest) {
  obs::AuditSink::Global().CollectInMemory();
  {
    obs::AuditScope outer;
    ASSERT_TRUE(outer.active());
    obs::AuditScope::Current()->method = "outer";
    {
      obs::AuditScope inner;  // inert: the outer scope owns the slot
      EXPECT_FALSE(inner.active());
      ASSERT_NE(obs::AuditScope::Current(), nullptr);
      EXPECT_EQ(obs::AuditScope::Current()->method, "outer");
    }
    // Inner destruction must not tear down the outer scope.
    ASSERT_NE(obs::AuditScope::Current(), nullptr);
    outer.Submit();
  }
  const std::vector<obs::AuditRecord> records = obs::AuditSink::Global().TakeRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].method, "outer");
}

}  // namespace
}  // namespace revelio
