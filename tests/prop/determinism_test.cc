// Determinism: with a fixed util::Rng seed, the training loss curve and the
// Revelio flow ranking are bitwise-identical across two independent runs and
// across thread counts 1 vs 4 (the CLI's --threads flag maps onto
// util::SetNumThreads). This pins the repo-wide determinism contract: each
// instance runs on one thread and every kernel accumulates in a fixed serial
// order, so results never depend on the thread count. The batch entry points (eval::ExplainAll,
// Explainer::ExplainBatch) are held to the same contract: every slot equals
// a per-task Explain bitwise, whatever the thread count.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/revelio.h"
#include "datasets/generators.h"
#include "eval/runner.h"
#include "explain/explainer.h"
#include "explain/gnnexplainer.h"
#include "explain/random_explainer.h"
#include "flow/flow_scores.h"
#include "gnn/model.h"
#include "gnn/trainer.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace revelio {
namespace {

using tensor::Tensor;

constexpr uint64_t kSeed = 20260805;

struct Instance {
  graph::Graph graph;
  Tensor features;
  std::vector<int> labels;
};

// Small deterministic instance: ring + random chords, random features and
// labels. Everything derives from kSeed.
Instance MakeInstance() {
  Instance inst;
  util::Rng rng(kSeed);
  const int n = 24;
  inst.graph = graph::Graph(n);
  for (int v = 0; v < n; ++v) inst.graph.AddUndirectedEdge(v, (v + 1) % n);
  for (int i = 0; i < 16; ++i) {
    const int u = rng.UniformInt(n);
    const int v = rng.UniformInt(n);
    if (u != v && !inst.graph.HasEdge(u, v)) inst.graph.AddEdge(u, v);
  }
  inst.features = Tensor::Uniform(n, 5, -1.0f, 1.0f, &rng);
  inst.labels.resize(n);
  for (auto& l : inst.labels) l = rng.UniformInt(2);
  return inst;
}

gnn::GnnConfig ModelConfig() {
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGcn;
  config.task = gnn::TaskType::kNodeClassification;
  config.input_dim = 5;
  config.hidden_dim = 8;
  config.num_classes = 2;
  config.num_layers = 2;
  config.seed = kSeed + 1;
  return config;
}

std::vector<float> TrainOnce() {
  const Instance inst = MakeInstance();
  gnn::GnnModel model(ModelConfig());
  util::Rng split_rng(kSeed + 2);
  const gnn::Split split = gnn::MakeSplit(inst.graph.num_nodes(), 0.6, 0.2, &split_rng);
  gnn::TrainConfig config;
  config.epochs = 25;
  const gnn::TrainMetrics metrics =
      gnn::TrainNodeModel(&model, inst.graph, inst.features, inst.labels, split, config);
  EXPECT_EQ(static_cast<int>(metrics.loss_curve.size()), config.epochs);
  EXPECT_EQ(metrics.loss_curve.back(), static_cast<float>(metrics.final_loss));
  return metrics.loss_curve;
}

struct RevelioRun {
  std::vector<double> flow_scores;
  std::vector<int> ranking;
  std::vector<double> edge_scores;
};

RevelioRun ExplainOnce() {
  const Instance inst = MakeInstance();
  gnn::GnnModel model(ModelConfig());
  core::RevelioOptions options;
  options.epochs = 20;
  options.seed = kSeed + 3;
  core::RevelioExplainer explainer(options);
  explain::ExplanationTask task;
  task.model = &model;
  task.graph = &inst.graph;
  task.features = inst.features;
  task.target_node = 3;
  task.target_class = 1;
  const core::RevelioExplainer::FlowExplanation result =
      explainer.ExplainFlows(task, explain::Objective::kFactual);
  RevelioRun run;
  run.flow_scores = result.flow_scores;
  run.ranking = flow::TopKFlows(result.flow_scores, 10);
  run.edge_scores = result.edge_scores;
  return run;
}

class DeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { util::SetNumThreads(1); }
};

TEST_F(DeterminismTest, LossCurveBitwiseIdenticalAcrossRunsAndThreads) {
  util::SetNumThreads(1);
  const std::vector<float> first = TrainOnce();
  const std::vector<float> second = TrainOnce();
  EXPECT_EQ(first, second) << "same seed, same thread count: loss curves differ";

  util::SetNumThreads(4);
  const std::vector<float> threaded = TrainOnce();
  EXPECT_EQ(first, threaded) << "--threads 1 vs --threads 4: loss curves differ";
}

TEST_F(DeterminismTest, RevelioFlowRankingBitwiseIdenticalAcrossRunsAndThreads) {
  util::SetNumThreads(1);
  const RevelioRun first = ExplainOnce();
  ASSERT_FALSE(first.flow_scores.empty());
  const RevelioRun second = ExplainOnce();
  EXPECT_EQ(first.flow_scores, second.flow_scores)
      << "same seed, same thread count: flow scores differ";
  EXPECT_EQ(first.ranking, second.ranking);
  EXPECT_EQ(first.edge_scores, second.edge_scores);

  util::SetNumThreads(4);
  const RevelioRun threaded = ExplainOnce();
  EXPECT_EQ(first.flow_scores, threaded.flow_scores)
      << "--threads 1 vs --threads 4: flow scores differ";
  EXPECT_EQ(first.ranking, threaded.ranking);
  EXPECT_EQ(first.edge_scores, threaded.edge_scores);
}

// --- Batch entry points: ExplainAll / ExplainBatch == per-task Explain ----------

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
// enumeration to any target is non-empty at any depth. Graph tasks reuse the
// same structure with target_node = -1.
TaskData MakeTaskData(uint64_t seed, bool node_task) {
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
  data.features = Tensor::Uniform(n, 5, -1.0f, 1.0f, &rng);
  data.target_node = node_task ? rng.UniformInt(n) : -1;
  data.target_class = rng.UniformInt(2);
  return data;
}

using ExplainerFactory = std::function<std::unique_ptr<explain::Explainer>()>;

struct NamedFactory {
  std::string name;
  ExplainerFactory make;
};

std::vector<NamedFactory> BatchContractExplainers() {
  core::RevelioOptions revelio;
  revelio.epochs = 6;
  revelio.seed = kSeed + 4;
  core::RevelioOptions prefilter = revelio;
  prefilter.prefilter_top_k = 5;
  explain::GnnExplainerOptions gnnexplainer;
  gnnexplainer.epochs = 6;
  gnnexplainer.seed = kSeed + 5;
  return {
      {"Revelio", [revelio] { return std::make_unique<core::RevelioExplainer>(revelio); }},
      {"Revelio+prefilter",
       [prefilter] { return std::make_unique<core::RevelioExplainer>(prefilter); }},
      {"GNNExplainer",
       [gnnexplainer] { return std::make_unique<explain::GnnExplainerMethod>(gnnexplainer); }},
      // Not thread-safe: exercises ExplainBatch's serial path, whose RNG
      // advances in task order exactly like the per-task loop.
      {"Random", [] { return std::make_unique<explain::RandomExplainer>(kSeed + 6); }},
  };
}

void ExpectSameExplanations(const std::vector<explain::Explanation>& expected,
                            const std::vector<explain::Explanation>& actual,
                            const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(actual[i].status.ok()) << context << " task " << i << ": "
                                       << actual[i].status.ToString();
    EXPECT_EQ(expected[i].edge_scores, actual[i].edge_scores) << context << " task " << i;
    EXPECT_EQ(expected[i].flow_scores, actual[i].flow_scores) << context << " task " << i;
  }
}

// ba_shapes-like skew: one 2-hop computation subgraph around the hub of a
// Barabasi-Albert graph (hundreds of flows) in the middle of small ring
// instances. ExplainBatch claims the big instance first, so the claim order
// differs from index order.
std::vector<TaskData> MakeSkewedNodeBatch() {
  util::Rng rng(kSeed + 60);
  graph::Graph ba(80);
  datasets::AddBaGraph(&ba, 0, 80, 3, &rng);
  const std::vector<int> in_degrees = ba.InDegrees();
  const int hub = static_cast<int>(std::max_element(in_degrees.begin(), in_degrees.end()) -
                                   in_degrees.begin());
  graph::Subgraph sub = graph::ExtractKHopInSubgraph(ba, hub, ModelConfig().num_layers);
  TaskData large;
  large.features = Tensor::Uniform(sub.graph.num_nodes(), 5, -1.0f, 1.0f, &rng);
  large.graph = std::move(sub.graph);
  large.target_node = sub.target_local;
  large.target_class = 1;

  std::vector<TaskData> data;
  for (int i = 0; i < 8; ++i) data.push_back(MakeTaskData(kSeed + 70 + i, true));
  data[4] = std::move(large);
  for (size_t i = 0; i < data.size(); ++i) {
    if (i == 4) continue;
    EXPECT_GT(data[4].graph.num_edges(), 4 * data[i].graph.num_edges())
        << "the skewed batch must be skewed";
  }
  return data;
}

// The surviving batch contract: for node and graph tasks, a skewed node
// batch, both objectives, the prefilter extension, and a non-thread-safe
// method, ExplainAll and ExplainBatch at threads {1, 2, 4, 7, 16} equal a
// fresh explainer's per-task Explain loop bitwise.
TEST_F(DeterminismTest, ExplainAllAndExplainBatchEqualPerTaskExplain) {
  struct Batch {
    std::string name;
    bool node_task;
    std::vector<TaskData> data;
  };
  std::vector<Batch> batches(3);
  batches[0] = {"node", true, {}};
  for (int i = 0; i < 9; ++i) batches[0].data.push_back(MakeTaskData(kSeed + 40 + i, true));
  batches[1] = {"graph", false, {}};
  for (int i = 0; i < 4; ++i) batches[1].data.push_back(MakeTaskData(kSeed + 40 + i, false));
  batches[2] = {"skewed node", true, MakeSkewedNodeBatch()};

  for (const Batch& batch : batches) {
    gnn::GnnConfig config = ModelConfig();
    if (!batch.node_task) config.task = gnn::TaskType::kGraphClassification;
    gnn::GnnModel model(config);
    model.Freeze();
    std::vector<explain::ExplanationTask> tasks;
    for (const TaskData& d : batch.data) tasks.push_back(d.MakeTask(&model));
    std::vector<const explain::ExplanationTask*> pointers;
    for (const auto& task : tasks) pointers.push_back(&task);

    for (const NamedFactory& factory : BatchContractExplainers()) {
      for (const auto objective :
           {explain::Objective::kFactual, explain::Objective::kCounterfactual}) {
        util::SetNumThreads(1);
        std::unique_ptr<explain::Explainer> sequential = factory.make();
        std::vector<explain::Explanation> reference;
        for (const auto& task : tasks) reference.push_back(sequential->Explain(task, objective));
        for (const explain::Explanation& expected : reference) {
          ASSERT_TRUE(expected.status.ok()) << expected.status.ToString();
          ASSERT_FALSE(expected.edge_scores.empty());
        }

        for (const int threads : {1, 2, 4, 7, 16}) {
          util::SetNumThreads(threads);
          const std::string context = factory.name + " " + batch.name +
                                      " objective=" + explain::ObjectiveName(objective) +
                                      " threads=" + std::to_string(threads);
          ExpectSameExplanations(reference,
                                 eval::ExplainAll(factory.make().get(), tasks, objective),
                                 context + " ExplainAll");
          ExpectSameExplanations(reference, factory.make()->ExplainBatch(pointers, objective),
                                 context + " ExplainBatch");
        }
      }
    }
  }
}

// The k-hop extraction feeds every explanation task, so its output order is
// part of the determinism contract: node_map and edge_map must be strictly
// ascending in the global ids (canonical, independent of BFS discovery
// order) and bitwise-stable across repeated calls.
TEST_F(DeterminismTest, KHopExtractionIsCanonicalAndStable) {
  const Instance inst = MakeInstance();
  for (const int target : {0, 3, 11, 23}) {
    for (const int k : {1, 2, 3}) {
      const graph::Subgraph sub = graph::ExtractKHopInSubgraph(inst.graph, target, k);
      ASSERT_FALSE(sub.node_map.empty());
      for (size_t i = 1; i < sub.node_map.size(); ++i) {
        EXPECT_LT(sub.node_map[i - 1], sub.node_map[i])
            << "node_map not strictly ascending at target=" << target << " k=" << k;
      }
      for (size_t i = 1; i < sub.edge_map.size(); ++i) {
        EXPECT_LT(sub.edge_map[i - 1], sub.edge_map[i])
            << "edge_map not strictly ascending at target=" << target << " k=" << k;
      }
      EXPECT_EQ(sub.node_map[sub.target_local], target);

      const graph::Subgraph again = graph::ExtractKHopInSubgraph(inst.graph, target, k);
      EXPECT_EQ(sub.node_map, again.node_map);
      EXPECT_EQ(sub.edge_map, again.edge_map);
      EXPECT_EQ(sub.target_local, again.target_local);
      EXPECT_EQ(sub.graph.edges(), again.graph.edges());
    }
  }
}

}  // namespace
}  // namespace revelio
