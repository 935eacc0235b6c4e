// Numerical and structural edge cases across modules: extreme inputs to the
// tensor ops, degenerate graphs, and graph-task fidelity behavior.

#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "eval/runner.h"
#include "explain/explainer.h"
#include "flow/message_flow.h"
#include "gnn/trainer.h"
#include "nn/loss.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace revelio {
namespace {

using tensor::Tensor;

TEST(NumericalEdgeCases, SoftmaxSurvivesExtremeLogits) {
  Tensor logits = Tensor::FromData(2, 3, {1000.0f, 0.0f, -1000.0f, -1e30f, -1e30f, -1e30f});
  Tensor probs = tensor::RowSoftmax(logits);
  EXPECT_NEAR(probs.At(0, 0), 1.0f, 1e-5);
  EXPECT_NEAR(probs.At(0, 2), 0.0f, 1e-5);
  // Row of equal extreme values stays uniform, not NaN.
  for (int c = 0; c < 3; ++c) {
    EXPECT_FALSE(std::isnan(probs.At(1, c)));
    EXPECT_NEAR(probs.At(1, c), 1.0f / 3.0f, 1e-5);
  }
  Tensor log_probs = tensor::RowLogSoftmax(logits);
  EXPECT_FALSE(std::isnan(log_probs.At(0, 2)));
}

TEST(NumericalEdgeCases, LogOfZeroIsClamped) {
  Tensor p = Tensor::FromData(1, 1, {0.0f});
  EXPECT_TRUE(std::isfinite(tensor::Log(p).Value()));
}

TEST(NumericalEdgeCases, ObjectivesAtProbabilityExtremes) {
  // P(c) ~ 1: factual loss ~ 0, counterfactual loss large but finite.
  Tensor confident = Tensor::FromData(1, 2, {50.0f, -50.0f});
  EXPECT_NEAR(nn::FactualObjective(confident, 0, 0).Value(), 0.0f, 1e-4);
  EXPECT_TRUE(std::isfinite(nn::CounterfactualObjective(confident, 0, 0).Value()));
  EXPECT_GT(nn::CounterfactualObjective(confident, 0, 0).Value(), 5.0f);
}

TEST(NumericalEdgeCases, SoftplusLargeInputsLinear) {
  Tensor x = Tensor::FromData(1, 2, {80.0f, -80.0f});
  Tensor y = tensor::Softplus(x);
  EXPECT_NEAR(y.At(0, 0), 80.0f, 1e-3);
  EXPECT_NEAR(y.At(0, 1), 0.0f, 1e-3);
}

TEST(StructuralEdgeCases, SingleNodeGraphForward) {
  graph::Graph g(1);
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGcn;
  config.input_dim = 3;
  config.hidden_dim = 4;
  config.num_classes = 2;
  gnn::GnnModel model(config);
  util::Rng rng(3);
  Tensor logits = model.Logits(g, Tensor::Randn(1, 3, &rng));
  EXPECT_EQ(logits.rows(), 1);
  for (int c = 0; c < 2; ++c) EXPECT_TRUE(std::isfinite(logits.At(0, c)));
}

TEST(StructuralEdgeCases, EdgelessGraphStillHasSelfLoopFlows) {
  graph::Graph g(3);
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(g);
  EXPECT_EQ(edges.num_base_edges, 0);
  EXPECT_EQ(edges.num_layer_edges(), 3);
  EXPECT_EQ(flow::CountAllFlows(edges, 3), 3);
  flow::FlowSet flows = flow::EnumerateAllFlows(edges, 3);
  EXPECT_EQ(flows.num_flows(), 3);
}

TEST(StructuralEdgeCases, FlowEnumerationMaxFlowsGuard) {
  graph::Graph g(4);
  g.AddUndirectedEdge(0, 1);
  g.AddUndirectedEdge(1, 2);
  g.AddUndirectedEdge(2, 3);
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(g);
  const int64_t count = flow::CountFlowsToTarget(edges, 1, 3);
  EXPECT_DEATH(flow::EnumerateFlowsToTarget(edges, 1, 3, count - 1), "max_flows");
  // Exactly at the bound succeeds.
  EXPECT_EQ(flow::EnumerateFlowsToTarget(edges, 1, 3, count).num_flows(), count);

  // The Status-returning entry point counts first: over the budget it
  // answers ResourceExhausted instead of aborting, for node (target >= 0)
  // and graph (target < 0) instances alike.
  EXPECT_EQ(flow::EnumerateInstanceFlows(edges, 1, 3, count - 1).status().code(),
            util::StatusCode::kResourceExhausted);
  EXPECT_EQ(flow::EnumerateInstanceFlows(edges, 1, 3, count).value().num_flows(), count);
  const int64_t all = flow::CountAllFlows(edges, 3);
  EXPECT_EQ(flow::EnumerateInstanceFlows(edges, -1, 3, all - 1).status().code(),
            util::StatusCode::kResourceExhausted);
  EXPECT_EQ(flow::EnumerateInstanceFlows(edges, -1, 3, all).value().num_flows(), all);
}

TEST(StructuralEdgeCases, GraphTaskFidelityUsesGraphProbability) {
  // A graph classifier whose prediction depends on edges: check that the
  // fidelity protocol moves the probability for graph tasks too.
  util::Rng rng(11);
  std::vector<graph::GraphInstance> instances;
  for (int i = 0; i < 40; ++i) {
    const int label = i % 2;
    graph::GraphInstance instance;
    instance.graph = graph::Graph(6);
    // Label 1: a 6-cycle; label 0: a path (same nodes, one fewer edge).
    for (int v = 0; v + 1 < 6; ++v) instance.graph.AddUndirectedEdge(v, v + 1);
    if (label == 1) instance.graph.AddUndirectedEdge(5, 0);
    instance.features = Tensor::Ones(6, 3);
    instance.labels = {label};
    instances.push_back(std::move(instance));
  }
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGin;
  config.task = gnn::TaskType::kGraphClassification;
  config.input_dim = 3;
  config.hidden_dim = 8;
  config.num_classes = 2;
  gnn::GnnModel model(config);
  gnn::Split split = gnn::MakeSplit(40, 0.7, 0.15, &rng);
  gnn::TrainConfig train_config;
  train_config.epochs = 120;
  const auto metrics = gnn::TrainGraphModel(&model, instances, split, train_config);
  ASSERT_GT(metrics.test_accuracy, 0.8) << "cycle-vs-path should be learnable";

  explain::ExplanationTask task;
  task.model = &model;
  task.graph = &instances[1].graph;  // a cycle instance
  task.features = instances[1].features;
  task.target_node = -1;
  task.target_class = explain::PredictedClass(task);

  // Removing the whole graph's edges must change the class probability.
  std::vector<int> all_edges(task.graph->num_edges());
  for (int e = 0; e < task.graph->num_edges(); ++e) all_edges[e] = e;
  const double with_edges = explain::PredictedProbability(task);
  const double without_edges = eval::ProbabilityWithoutEdges(task, all_edges);
  EXPECT_GT(std::fabs(with_edges - without_edges), 0.05);
}

TEST(StructuralEdgeCases, FidelityHandlesAllOrNothingSparsity) {
  graph::Graph g(4);
  g.AddUndirectedEdge(0, 1);
  g.AddUndirectedEdge(1, 2);
  g.AddUndirectedEdge(2, 3);
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGcn;
  config.input_dim = 2;
  config.hidden_dim = 4;
  config.num_classes = 2;
  gnn::GnnModel model(config);
  util::Rng rng(5);
  explain::ExplanationTask task;
  task.model = &model;
  task.graph = &g;
  task.features = Tensor::Randn(4, 2, &rng);
  task.target_node = 1;
  task.target_class = 0;
  const std::vector<double> scores = {0.9, 0.8, 0.7, 0.6, 0.5, 0.4};
  // Fidelity- at sparsity 0 keeps everything (no drop); at sparsity 1 it
  // removes every edge but must stay finite. Fidelity+ removes the
  // explanatory set, which is empty at sparsity 1 (no drop) and the whole
  // graph at sparsity 0.
  EXPECT_NEAR(eval::FidelityMinus(task, scores, 0.0), 0.0, 1e-6);
  EXPECT_TRUE(std::isfinite(eval::FidelityMinus(task, scores, 1.0)));
  EXPECT_NEAR(eval::FidelityPlus(task, scores, 1.0), 0.0, 1e-6);
  EXPECT_NEAR(eval::FidelityPlus(task, scores, 0.0),
              eval::FidelityMinus(task, scores, 1.0), 1e-6)
      << "removing all edges is the same subgraph under both protocols";
}

TEST(StructuralEdgeCases, ExplainAllSurvivesAnInvalidTaskMidBatch) {
  // A task that fails validation must not abort the whole batch: its slot
  // carries the error (empty scores) and every valid neighbor still produces
  // the same bits as explaining it alone.
  const int n = 6;
  graph::Graph graph(n);
  for (int v = 0; v < n; ++v) graph.AddUndirectedEdge(v, (v + 1) % n);
  util::Rng rng(11);
  Tensor features = Tensor::Uniform(n, 3, -1.0f, 1.0f, &rng);

  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGcn;
  config.input_dim = 3;
  config.hidden_dim = 4;
  config.num_classes = 2;
  config.num_layers = 2;
  gnn::GnnModel model(config);
  model.Freeze();

  auto make_task = [&](int target_node) {
    explain::ExplanationTask task;
    task.model = &model;
    task.graph = &graph;
    task.features = features;
    task.target_node = target_node;
    task.target_class = 0;
    return task;
  };
  std::vector<explain::ExplanationTask> tasks{make_task(0), make_task(99), make_task(3)};

  eval::RunnerConfig runner_config;
  runner_config.explainer_epochs = 4;
  std::unique_ptr<explain::Explainer> explainer = eval::MakeExplainer("Revelio", runner_config);
  std::vector<explain::Explanation> batch =
      eval::ExplainAll(explainer.get(), tasks, explain::Objective::kFactual);

  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[1].status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(batch[1].edge_scores.empty());
  EXPECT_TRUE(batch[0].status.ok());
  EXPECT_TRUE(batch[2].status.ok());

  std::unique_ptr<explain::Explainer> solo = eval::MakeExplainer("Revelio", runner_config);
  explain::Explanation alone0 = solo->Explain(tasks[0], explain::Objective::kFactual);
  explain::Explanation alone2 = solo->Explain(tasks[2], explain::Objective::kFactual);
  EXPECT_EQ(batch[0].edge_scores, alone0.edge_scores);
  EXPECT_EQ(batch[2].edge_scores, alone2.edge_scores);
}

// Shared fixture for the admission tests below: a frozen 2-layer GCN over
// 3-dim features.
std::unique_ptr<gnn::GnnModel> MakeFrozenGcn() {
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGcn;
  config.input_dim = 3;
  config.hidden_dim = 4;
  config.num_classes = 2;
  config.num_layers = 2;
  auto model = std::make_unique<gnn::GnnModel>(config);
  model->Freeze();
  return model;
}

explain::ExplanationTask MakeNodeTask(const gnn::GnnModel* model, const graph::Graph* graph,
                                      uint64_t feature_seed, int target_node) {
  util::Rng rng(feature_seed);
  explain::ExplanationTask task;
  task.model = model;
  task.graph = graph;
  task.features = Tensor::Uniform(graph->num_nodes(), 3, -1.0f, 1.0f, &rng);
  task.target_node = target_node;
  task.target_class = 0;
  return task;
}

TEST(StructuralEdgeCases, ExplainAllParksAnOverBudgetTaskAsResourceExhausted) {
  // A task with more message flows than max_flows must come back as a
  // ResourceExhausted slot (it used to abort inside flow enumeration), and
  // its neighbors must still produce the same bits as explaining them alone.
  const std::unique_ptr<gnn::GnnModel> model = MakeFrozenGcn();
  graph::Graph ring(6);
  for (int v = 0; v < 6; ++v) ring.AddUndirectedEdge(v, (v + 1) % 6);
  graph::Graph complete(8);
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      if (u != v) complete.AddEdge(u, v);
    }
  }
  eval::RunnerConfig runner_config;
  runner_config.explainer_epochs = 4;
  runner_config.max_flows = 50;
  // 3 in-edges per ring node (2 neighbors + self-loop): 3^2 = 9 flows to a
  // target; the complete graph has 8^2 = 64.
  const gnn::LayerEdgeSet complete_edges = gnn::BuildLayerEdges(complete);
  ASSERT_GT(flow::CountFlowsToTarget(complete_edges, 0, 2), runner_config.max_flows);
  std::vector<explain::ExplanationTask> tasks{MakeNodeTask(model.get(), &ring, 11, 0),
                                              MakeNodeTask(model.get(), &complete, 12, 0),
                                              MakeNodeTask(model.get(), &ring, 13, 3)};

  // Every flow-enumerating method shares the budgeted enumeration.
  for (const std::string method : {"Revelio", "GNN-LRP", "FlowX"}) {
    std::unique_ptr<explain::Explainer> explainer = eval::MakeExplainer(method, runner_config);
    const std::vector<explain::Explanation> batch =
        eval::ExplainAll(explainer.get(), tasks, explain::Objective::kFactual);

    ASSERT_EQ(batch.size(), 3u) << method;
    EXPECT_EQ(batch[1].status.code(), util::StatusCode::kResourceExhausted) << method;
    EXPECT_TRUE(batch[1].edge_scores.empty()) << method;
    EXPECT_TRUE(batch[1].flow_scores.empty()) << method;
    ASSERT_TRUE(batch[0].status.ok()) << method;
    ASSERT_TRUE(batch[2].status.ok()) << method;

    std::unique_ptr<explain::Explainer> solo = eval::MakeExplainer(method, runner_config);
    const explain::Explanation alone0 = solo->Explain(tasks[0], explain::Objective::kFactual);
    const explain::Explanation alone2 = solo->Explain(tasks[2], explain::Objective::kFactual);
    EXPECT_EQ(batch[0].edge_scores, alone0.edge_scores) << method;
    EXPECT_EQ(batch[0].flow_scores, alone0.flow_scores) << method;
    EXPECT_EQ(batch[2].edge_scores, alone2.edge_scores) << method;
    EXPECT_EQ(batch[2].flow_scores, alone2.flow_scores) << method;
  }
}

TEST(StructuralEdgeCases, NonFiniteFeaturesAreRejectedAtAdmission) {
  // NaN/Inf features used to pass validation and come back as NaN rankings;
  // they must now fail admission with InvalidArgument, in place.
  const std::unique_ptr<gnn::GnnModel> model = MakeFrozenGcn();
  graph::Graph ring(6);
  for (int v = 0; v < 6; ++v) ring.AddUndirectedEdge(v, (v + 1) % 6);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    explain::ExplanationTask poisoned = MakeNodeTask(model.get(), &ring, 21, 2);
    poisoned.features = poisoned.features.Detach();
    (*poisoned.features.mutable_values())[4 * 3 + 1] = bad;
    const util::Status status = explain::ValidateExplanationTask(poisoned);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(status.ToString().find("(4, 1)"), std::string::npos) << status.ToString();

    std::vector<explain::ExplanationTask> tasks{MakeNodeTask(model.get(), &ring, 22, 0), poisoned};
    eval::RunnerConfig runner_config;
    runner_config.explainer_epochs = 4;
    std::unique_ptr<explain::Explainer> explainer =
        eval::MakeExplainer("Revelio", runner_config);
    const std::vector<explain::Explanation> batch =
        eval::ExplainAll(explainer.get(), tasks, explain::Objective::kFactual);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_TRUE(batch[0].status.ok());
    EXPECT_EQ(batch[1].status.code(), util::StatusCode::kInvalidArgument) << bad;
    EXPECT_TRUE(batch[1].edge_scores.empty());
  }
}

}  // namespace
}  // namespace revelio
