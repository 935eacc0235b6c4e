// Audit-observation equivalence: the per-explanation audit hooks (loss-curve
// sampling, entropy computation, top-k extraction, phase timing) are
// read-only with respect to the numerics. For sequential Explain, batched
// ExplainBatch, and the flight recorder on top, every flow score, edge
// score, and top-k ranking must be BITWISE-equal with auditing on vs off —
// the same contract the plan/SpMM suites pin for their layers.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/revelio.h"
#include "explain/explainer.h"
#include "explain/gnnexplainer.h"
#include "flow/flow_scores.h"
#include "gnn/model.h"
#include "graph/graph.h"
#include "obs/audit.h"
#include "obs/recorder.h"
#include "prop/prop_util.h"
#include "util/parallel.h"
#include "util/proptest.h"
#include "util/rng.h"

namespace revelio::proptest {
namespace {

using tensor::Tensor;

constexpr uint64_t kSeed = 20260809;
constexpr int kFeatureDim = 4;

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
  options.epochs = 6;
  options.seed = kSeed + 2;
  return options;
}

// Auditing and the flight recorder both off: the baseline observation state.
void DisableObservation() {
  obs::AuditSink::Global().Close();
  obs::SetFlightEnabled(false);
}

// Auditing on (in-memory) and the flight recorder on: maximum observation.
void EnableObservation() {
  obs::AuditSink::Global().CollectInMemory();
  obs::SetFlightEnabled(true);
}

class AuditEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override { util::SetNumThreads(1); }
  void TearDown() override {
    obs::AuditSink::Global().Close();
    obs::SetFlightEnabled(true);
    obs::FlightRecorder::Global().Clear();
    util::SetNumThreads(1);
  }
};

TEST_F(AuditEquivalenceTest, SequentialExplainBitwiseInvariantToAuditing) {
  gnn::GnnModel model(ModelConfig());
  model.Freeze();
  core::RevelioExplainer explainer(RevelioTestOptions());
  for (int i = 0; i < 6; ++i) {
    const TaskData data = MakeNodeTaskData(kSeed + 10 + i);
    const explain::ExplanationTask task = data.MakeTask(&model);
    for (const auto objective :
         {explain::Objective::kFactual, explain::Objective::kCounterfactual}) {
      DisableObservation();
      const core::RevelioExplainer::FlowExplanation off =
          explainer.ExplainFlows(task, objective);
      EnableObservation();
      const core::RevelioExplainer::FlowExplanation on = explainer.ExplainFlows(task, objective);
      const std::vector<obs::AuditRecord> records = obs::AuditSink::Global().TakeRecords();

      EXPECT_EQ(off.flow_scores, on.flow_scores)
          << "task " << i << ": flow scores changed under auditing";
      EXPECT_EQ(off.edge_scores, on.edge_scores)
          << "task " << i << ": edge scores changed under auditing";
      EXPECT_EQ(flow::TopKFlows(off.flow_scores, 10), flow::TopKFlows(on.flow_scores, 10))
          << "task " << i << ": top-k ranking changed under auditing";
    }
  }
}

TEST_F(AuditEquivalenceTest, ExplainerWrapperBitwiseInvariantToAuditing) {
  gnn::GnnModel model(ModelConfig());
  model.Freeze();
  explain::GnnExplainerOptions options;
  options.epochs = 6;
  options.seed = kSeed + 3;
  explain::GnnExplainerMethod explainer(options);

  std::vector<TaskData> data;
  std::vector<explain::ExplanationTask> tasks;
  for (int i = 0; i < 5; ++i) data.push_back(MakeNodeTaskData(kSeed + 70 + i));
  for (const TaskData& d : data) tasks.push_back(d.MakeTask(&model));
  std::vector<const explain::ExplanationTask*> group;
  for (const auto& task : tasks) group.push_back(&task);

  // Sequential wrapper.
  DisableObservation();
  std::vector<explain::Explanation> seq_off;
  for (const auto& task : tasks) {
    seq_off.push_back(explainer.Explain(task, explain::Objective::kFactual));
  }
  EnableObservation();
  std::vector<explain::Explanation> seq_on;
  for (const auto& task : tasks) {
    seq_on.push_back(explainer.Explain(task, explain::Objective::kFactual));
  }
  (void)obs::AuditSink::Global().TakeRecords();
  for (size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(seq_off[i].edge_scores, seq_on[i].edge_scores) << "sequential instance " << i;
  }

  // Batch wrapper.
  DisableObservation();
  const std::vector<explain::Explanation> batch_off =
      explainer.ExplainBatch(group, explain::Objective::kFactual);
  EnableObservation();
  const std::vector<explain::Explanation> batch_on =
      explainer.ExplainBatch(group, explain::Objective::kFactual);
  const std::vector<obs::AuditRecord> records = obs::AuditSink::Global().TakeRecords();
  ASSERT_EQ(batch_off.size(), batch_on.size());
  for (size_t i = 0; i < batch_off.size(); ++i) {
    EXPECT_EQ(batch_off[i].edge_scores, batch_on[i].edge_scores) << "batched instance " << i;
  }
  EXPECT_EQ(records.size(), group.size());
}

// Property with shrinking over random graph families: auditing on vs off is
// bitwise-equal for a GNNExplainer pair batch on arbitrary structures.
TEST_F(AuditEquivalenceTest, AuditInvarianceOnRandomGraphs) {
  const util::Domain<GraphSpec> domain = GraphDomain(3, 8, /*allow_empty=*/false);
  const util::CheckResult result = util::ForAll<GraphSpec>(
      "audit_on_off_bitwise_equal", domain,
      [](const GraphSpec& spec) -> std::string {
        const graph::Graph graph = MakeGraph(spec);
        util::Rng rng(kSeed + 100);
        TaskData data;
        data.graph = graph;
        data.features = Tensor::Uniform(graph.num_nodes(), kFeatureDim, -1.0f, 1.0f, &rng);
        data.target_node = rng.UniformInt(graph.num_nodes());
        data.target_class = rng.UniformInt(2);

        gnn::GnnModel model(ModelConfig());
        model.Freeze();
        const explain::ExplanationTask task = data.MakeTask(&model);
        explain::GnnExplainerOptions options;
        options.epochs = 6;
        options.seed = kSeed + 3;
        explain::GnnExplainerMethod explainer(options);

        DisableObservation();
        const explain::Explanation off = explainer.Explain(task, explain::Objective::kFactual);
        EnableObservation();
        const explain::Explanation on = explainer.Explain(task, explain::Objective::kFactual);
        const std::vector<obs::AuditRecord> records = obs::AuditSink::Global().TakeRecords();
        obs::AuditSink::Global().Close();
        if (records.size() != 1) return "audited run emitted no record";
        if (off.edge_scores != on.edge_scores) return "edge scores changed under auditing";
        return "";
      },
      util::DefaultPropConfig(25, kSeed + 101));
  EXPECT_TRUE(result.ok) << result.report;
}

}  // namespace
}  // namespace revelio::proptest
