// Unit tests for every baseline explainer: output contracts, determinism,
// counterfactual score conventions, and architecture support flags.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "explain/deeplift.h"
#include "explain/flowx.h"
#include "explain/gnnexplainer.h"
#include "explain/gnnlrp.h"
#include "explain/gradcam.h"
#include "explain/graphmask.h"
#include "explain/pgexplainer.h"
#include "explain/pgm_explainer.h"
#include "explain/random_explainer.h"
#include "explain/subgraphx.h"
#include "flow/message_flow.h"
#include "gnn/trainer.h"
#include "graph/subgraph.h"
#include "nn/loss.h"
#include "obs/metrics.h"
#include "plan/plan.h"

namespace revelio::explain {
namespace {

// Shared fixture: a trained two-community GCN node classifier plus a few
// computation-subgraph tasks.
class ExplainerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    state_ = new State();
    auto& s = *state_;
    s.graph = graph::Graph(16);
    for (int i = 0; i < 8; ++i) s.graph.AddUndirectedEdge(i, (i + 1) % 8);
    for (int i = 8; i < 16; ++i) s.graph.AddUndirectedEdge(i, 8 + (i + 1 - 8) % 8);
    s.graph.AddUndirectedEdge(0, 8);
    s.graph.AddUndirectedEdge(3, 12);
    s.features = tensor::Tensor::Zeros(16, 4);
    util::Rng feature_rng(21);
    for (int v = 0; v < 16; ++v) {
      s.labels.push_back(v < 8 ? 0 : 1);
      s.features.SetAt(v, s.labels[v], 1.0f);
      s.features.SetAt(v, 2, static_cast<float>(feature_rng.Uniform()));
    }
    gnn::GnnConfig config;
    config.arch = gnn::GnnArch::kGcn;
    config.input_dim = 4;
    config.hidden_dim = 8;
    config.num_classes = 2;
    s.model = std::make_unique<gnn::GnnModel>(config);
    util::Rng rng(5);
    gnn::Split split = gnn::MakeSplit(16, 0.8, 0.1, &rng);
    gnn::TrainConfig train_config;
    train_config.epochs = 60;
    gnn::TrainNodeModel(s.model.get(), s.graph, s.features, s.labels, split, train_config);

    for (int target : {2, 10}) {
      graph::Subgraph sub = graph::ExtractKHopInSubgraph(s.graph, target, 3);
      State::Instance instance;
      instance.graph = std::move(sub.graph);
      instance.features = graph::SliceRows(s.features, sub.node_map);
      instance.target = sub.target_local;
      s.instances.push_back(std::move(instance));
    }
  }
  static void TearDownTestSuite() {
    delete state_;
    state_ = nullptr;
  }

  ExplanationTask MakeTask(int index) const {
    auto& s = *state_;
    ExplanationTask task;
    task.model = s.model.get();
    task.graph = &s.instances[index].graph;
    task.features = s.instances[index].features;
    task.target_node = s.instances[index].target;
    task.target_class = PredictedClass(task);
    return task;
  }

  struct State {
    graph::Graph graph;
    tensor::Tensor features;
    std::vector<int> labels;
    std::unique_ptr<gnn::GnnModel> model;
    struct Instance {
      graph::Graph graph;
      tensor::Tensor features;
      int target = 0;
    };
    std::vector<Instance> instances;
  };
  static State* state_;
};

ExplainerFixture::State* ExplainerFixture::state_ = nullptr;

// --- Contract sweep over all per-instance methods ------------------------------

std::unique_ptr<Explainer> MakeByIndex(int index) {
  switch (index) {
    case 0:
      return std::make_unique<GradCamExplainer>();
    case 1:
      return std::make_unique<DeepLiftExplainer>();
    case 2: {
      GnnExplainerOptions options;
      options.epochs = 20;
      return std::make_unique<GnnExplainerMethod>(options);
    }
    case 3: {
      PgmExplainerOptions options;
      options.num_rounds = 30;
      return std::make_unique<PgmExplainer>(options);
    }
    case 4: {
      SubgraphXOptions options;
      options.mcts_iterations = 5;
      options.shapley_samples = 3;
      return std::make_unique<SubgraphXExplainer>(options);
    }
    case 5:
      return std::make_unique<GnnLrpExplainer>(GnnLrpOptions{});
    case 6: {
      FlowXOptions options;
      options.shapley_iterations = 2;
      options.learning_epochs = 15;
      return std::make_unique<FlowXExplainer>(options);
    }
    case 7:
      return std::make_unique<RandomExplainer>(3);
  }
  return nullptr;
}

class ExplainerContract : public ExplainerFixture,
                          public ::testing::WithParamInterface<int> {};

TEST_P(ExplainerContract, ProducesScoresForEveryEdgeDeterministically) {
  const ExplanationTask task = MakeTask(0);
  auto explainer = MakeByIndex(GetParam());
  const Explanation first = explainer->Explain(task, Objective::kFactual);
  EXPECT_EQ(static_cast<int>(first.edge_scores.size()), task.graph->num_edges());
  auto explainer_again = MakeByIndex(GetParam());
  const Explanation second = explainer_again->Explain(task, Objective::kFactual);
  ASSERT_EQ(first.edge_scores.size(), second.edge_scores.size());
  for (size_t e = 0; e < first.edge_scores.size(); ++e) {
    EXPECT_NEAR(first.edge_scores[e], second.edge_scores[e], 1e-6)
        << "explainers must be deterministic per seed";
  }
}

TEST_P(ExplainerContract, CounterfactualAlsoProducesFullScores) {
  const ExplanationTask task = MakeTask(1);
  auto explainer = MakeByIndex(GetParam());
  const Explanation result = explainer->Explain(task, Objective::kCounterfactual);
  EXPECT_EQ(static_cast<int>(result.edge_scores.size()), task.graph->num_edges());
}

INSTANTIATE_TEST_SUITE_P(Methods, ExplainerContract, ::testing::Range(0, 8));

// --- Method-specific behavior ----------------------------------------------------

TEST_F(ExplainerFixture, GradCamScoresAreNonNegative) {
  const ExplanationTask task = MakeTask(0);
  GradCamExplainer explainer;
  for (double s : explainer.Explain(task, Objective::kFactual).edge_scores) {
    EXPECT_GE(s, 0.0);
  }
}

TEST_F(ExplainerFixture, DeepLiftProducesSomeNonZeroContribution) {
  const ExplanationTask task = MakeTask(0);
  DeepLiftExplainer explainer;
  const auto scores = explainer.Explain(task, Objective::kFactual).edge_scores;
  double total_magnitude = 0.0;
  for (double s : scores) total_magnitude += std::fabs(s);
  EXPECT_GT(total_magnitude, 1e-6);
}

TEST_F(ExplainerFixture, GnnExplainerMasksStayInUnitInterval) {
  const ExplanationTask task = MakeTask(0);
  GnnExplainerOptions options;
  options.epochs = 25;
  GnnExplainerMethod explainer(options);
  for (Objective objective : {Objective::kFactual, Objective::kCounterfactual}) {
    for (double s : explainer.Explain(task, objective).edge_scores) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST_F(ExplainerFixture, GnnExplainerDivergentLearningRateReturnsStatusNotNanScores) {
  // A NaN or overflowing learning rate drives the masks non-finite. The
  // explainer must report that as an error, on both the eager and the
  // recorded-plan epoch paths, instead of returning NaN scores with Ok.
  const ExplanationTask task = MakeTask(0);
  const bool plan_default = plan::ExecPlanEnabled();
  for (const float learning_rate : {std::numeric_limits<float>::quiet_NaN(), 1e38f}) {
    for (const bool use_plan : {true, false}) {
      plan::SetExecPlanEnabled(use_plan);
      GnnExplainerOptions options;
      options.epochs = 20;
      options.learning_rate = learning_rate;
      GnnExplainerMethod explainer(options);
      const Explanation result = explainer.Explain(task, Objective::kFactual);
      EXPECT_EQ(result.status.code(), util::StatusCode::kInternal)
          << "lr=" << learning_rate << " plan=" << use_plan << ": " << result.status.ToString();
      EXPECT_TRUE(result.edge_scores.empty());
    }
  }
  plan::SetExecPlanEnabled(plan_default);
  // One epoch: the loss is still finite, only the final Step goes NaN.
  GnnExplainerOptions one_epoch;
  one_epoch.epochs = 1;
  one_epoch.learning_rate = std::numeric_limits<float>::quiet_NaN();
  const Explanation result = GnnExplainerMethod(one_epoch).Explain(task, Objective::kFactual);
  EXPECT_EQ(result.status.code(), util::StatusCode::kInternal) << result.status.ToString();
  EXPECT_TRUE(result.edge_scores.empty());
}

TEST_F(ExplainerFixture, GnnExplainerZeroEdgeTaskReturnsEmptyScores) {
  // A lone node passes validation but has no edge mask to learn.
  const graph::Graph lone(1);
  ExplanationTask task;
  task.model = state_->model.get();
  task.graph = &lone;
  task.features = tensor::Tensor::Zeros(1, 4);
  task.target_node = 0;
  ASSERT_TRUE(ValidateExplanationTask(task).ok());
  GnnExplainerOptions options;
  options.epochs = 5;
  for (Objective objective : {Objective::kFactual, Objective::kCounterfactual}) {
    const Explanation result = GnnExplainerMethod(options).Explain(task, objective);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_TRUE(result.edge_scores.empty());
  }
}

TEST_F(ExplainerFixture, PgExplainerRequiresTrainingThenExplains) {
  PgExplainerOptions options;
  options.train_epochs = 4;
  PgExplainer explainer(options);
  EXPECT_FALSE(explainer.is_trained(Objective::kFactual));
  std::vector<ExplanationTask> tasks = {MakeTask(0), MakeTask(1)};
  // Untrained, or trained on nothing: a status, not an abort.
  const Explanation untrained = explainer.Explain(tasks[0], Objective::kFactual);
  EXPECT_EQ(untrained.status.code(), util::StatusCode::kFailedPrecondition)
      << untrained.status.ToString();
  EXPECT_TRUE(untrained.edge_scores.empty());
  EXPECT_EQ(explainer.Train({}, Objective::kFactual).code(), util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(explainer.is_trained(Objective::kFactual));

  ASSERT_TRUE(explainer.Train(tasks, Objective::kFactual).ok());
  EXPECT_TRUE(explainer.is_trained(Objective::kFactual));
  EXPECT_FALSE(explainer.is_trained(Objective::kCounterfactual));
  EXPECT_GT(explainer.last_train_seconds(Objective::kFactual), 0.0);
  const Explanation result = explainer.Explain(tasks[0], Objective::kFactual);
  EXPECT_EQ(static_cast<int>(result.edge_scores.size()), tasks[0].graph->num_edges());
}

TEST_F(ExplainerFixture, PgExplainerDivergentLearningRateFailsTraining) {
  PgExplainerOptions options;
  options.train_epochs = 3;
  options.learning_rate = std::numeric_limits<float>::quiet_NaN();
  PgExplainer explainer(options);
  const std::vector<ExplanationTask> tasks = {MakeTask(0), MakeTask(1)};
  const util::Status trained = explainer.Train(tasks, Objective::kFactual);
  EXPECT_EQ(trained.code(), util::StatusCode::kInternal) << trained.ToString();
  EXPECT_FALSE(explainer.is_trained(Objective::kFactual));
  EXPECT_EQ(explainer.Explain(tasks[0], Objective::kFactual).status.code(),
            util::StatusCode::kFailedPrecondition);
}

TEST_F(ExplainerFixture, GraphMaskTrainsPerObjective) {
  GraphMaskOptions options;
  options.train_epochs = 3;
  GraphMaskExplainer explainer(options);
  std::vector<ExplanationTask> tasks = {MakeTask(0)};
  EXPECT_EQ(explainer.Explain(tasks[0], Objective::kCounterfactual).status.code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(explainer.Train({}, Objective::kCounterfactual).code(),
            util::StatusCode::kInvalidArgument);
  ASSERT_TRUE(explainer.Train(tasks, Objective::kCounterfactual).ok());
  EXPECT_TRUE(explainer.is_trained(Objective::kCounterfactual));
  EXPECT_FALSE(explainer.is_trained(Objective::kFactual));
  const Explanation result = explainer.Explain(tasks[0], Objective::kCounterfactual);
  for (double s : result.edge_scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_F(ExplainerFixture, GraphMaskDivergentLearningRateReturnsStatusNotNanScores) {
  // A NaN or overflowing learning rate drives the gates non-finite. Training
  // must fail with a status and leave the objective untrained, so Explain
  // answers FailedPrecondition instead of NaN scores with Ok.
  const std::vector<ExplanationTask> tasks = {MakeTask(0), MakeTask(1)};
  for (const float learning_rate : {std::numeric_limits<float>::quiet_NaN(), 1e38f}) {
    GraphMaskOptions options;
    options.train_epochs = 3;
    options.learning_rate = learning_rate;
    GraphMaskExplainer explainer(options);
    const util::Status trained = explainer.Train(tasks, Objective::kFactual);
    EXPECT_EQ(trained.code(), util::StatusCode::kInternal)
        << "lr=" << learning_rate << ": " << trained.ToString();
    EXPECT_FALSE(explainer.is_trained(Objective::kFactual));
    const Explanation result = explainer.Explain(tasks[0], Objective::kFactual);
    EXPECT_FALSE(result.status.ok()) << "lr=" << learning_rate;
    for (double s : result.edge_scores) EXPECT_TRUE(std::isfinite(s)) << "lr=" << learning_rate;
  }
}

TEST_F(ExplainerFixture, GnnLrpRejectsGatAndScoresFlows) {
  GnnLrpExplainer explainer{GnnLrpOptions{}};
  EXPECT_TRUE(explainer.SupportsArch(gnn::GnnArch::kGcn));
  EXPECT_TRUE(explainer.SupportsArch(gnn::GnnArch::kGin));
  EXPECT_FALSE(explainer.SupportsArch(gnn::GnnArch::kGat));

  const ExplanationTask task = MakeTask(0);
  const Explanation result = explainer.Explain(task, Objective::kFactual);
  EXPECT_TRUE(result.has_flow_scores);
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(*task.graph);
  const int64_t flows = flow::CountFlowsToTarget(edges, task.target_node, 3);
  EXPECT_EQ(static_cast<int64_t>(result.flow_scores.size()), flows);
}

TEST(GnnLrpProperty, WalkRelevancesConserveTheLogit) {
  // LRP's defining conservation property: summed over ALL walks ending at
  // the target, the relevances reconstruct the explained logit (epsilon-LRP
  // with logit-normalized initialization). Holds for GCN and GIN.
  graph::Graph g(5);
  g.AddUndirectedEdge(0, 1);
  g.AddUndirectedEdge(1, 2);
  g.AddUndirectedEdge(2, 3);
  g.AddUndirectedEdge(3, 4);
  g.AddUndirectedEdge(0, 2);
  util::Rng rng(9);
  const tensor::Tensor features = tensor::Tensor::Randn(5, 4, &rng);
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(g);
  const flow::FlowSet flows = flow::EnumerateFlowsToTarget(edges, 2, 3);

  for (auto arch : {gnn::GnnArch::kGcn, gnn::GnnArch::kGin}) {
    gnn::GnnConfig config;
    config.arch = arch;
    config.input_dim = 4;
    config.hidden_dim = 8;
    config.num_classes = 3;
    config.seed = 5;
    gnn::GnnModel model(config);
    ExplanationTask task;
    task.model = &model;
    task.graph = &g;
    task.features = features;
    task.target_node = 2;
    task.target_class = 1;
    GnnLrpExplainer lrp{GnnLrpOptions{}};
    const auto scores = lrp.ScoreFlows(task, edges, flows);
    double total = 0.0;
    for (double s : scores) total += s;
    const double logit = model.Logits(g, features).At(2, 1);
    EXPECT_NEAR(total, logit, 1e-3 + 1e-3 * std::fabs(logit))
        << "arch " << gnn::GnnArchName(arch);
  }
}

TEST_F(ExplainerFixture, FlowXProducesFlowScoresAndShapleyStageSumsToDrop) {
  const ExplanationTask task = MakeTask(0);
  FlowXOptions options;
  options.shapley_iterations = 2;
  options.learning_epochs = 5;
  FlowXExplainer explainer(options);
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(*task.graph);
  flow::FlowSet flows = flow::EnumerateFlowsToTarget(edges, task.target_node, 3);
  const auto stage1 = explainer.SampleShapleyScores(task, edges, flows);
  EXPECT_EQ(static_cast<int>(stage1.size()), flows.num_flows());
  // Efficiency property of sampled Shapley: total score equals the mean
  // total prediction drop from full graph to empty graph, which equals
  // P(full) - P(no base edges). Flows on pure self-loop paths are never
  // killed, so compare totals loosely: non-trivial total magnitude.
  double total = 0.0;
  for (double s : stage1) total += s;
  std::vector<char> kept_none(edges.num_base_edges, 0);
  // Full-vs-empty drop must be reflected in total flow scores direction.
  const Explanation result = explainer.Explain(task, Objective::kFactual);
  EXPECT_TRUE(result.has_flow_scores);
  EXPECT_EQ(static_cast<int>(result.flow_scores.size()), flows.num_flows());
  for (double s : result.flow_scores) {
    EXPECT_GE(s, -1.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_F(ExplainerFixture, FlowXDivergentLearningRateReturnsStatusNotNanScores) {
  // A NaN or overflowing learning rate drives the flow masks non-finite. The
  // explainer must report that as an error instead of returning NaN flow and
  // edge scores with Ok.
  const ExplanationTask task = MakeTask(0);
  const bool plan_default = plan::ExecPlanEnabled();
  for (const float learning_rate : {std::numeric_limits<float>::quiet_NaN(), 1e38f}) {
    for (const bool use_plan : {true, false}) {
      plan::SetExecPlanEnabled(use_plan);
      FlowXOptions options;
      options.shapley_iterations = 2;
      options.learning_epochs = 20;
      options.learning_rate = learning_rate;
      const Explanation result = FlowXExplainer(options).Explain(task, Objective::kFactual);
      EXPECT_EQ(result.status.code(), util::StatusCode::kInternal)
          << "lr=" << learning_rate << " plan=" << use_plan << ": " << result.status.ToString();
      EXPECT_TRUE(result.edge_scores.empty());
      EXPECT_TRUE(result.flow_scores.empty());
    }
  }
  plan::SetExecPlanEnabled(plan_default);
  // One epoch: the loss is still finite, only the final Step goes NaN.
  FlowXOptions one_epoch;
  one_epoch.shapley_iterations = 2;
  one_epoch.learning_epochs = 1;
  one_epoch.learning_rate = std::numeric_limits<float>::quiet_NaN();
  const Explanation result = FlowXExplainer(one_epoch).Explain(task, Objective::kFactual);
  EXPECT_EQ(result.status.code(), util::StatusCode::kInternal) << result.status.ToString();
  EXPECT_TRUE(result.edge_scores.empty());
  EXPECT_TRUE(result.flow_scores.empty());
}

TEST_F(ExplainerFixture, FlowXPlanReplayMatchesEagerBitwise) {
  // FlowX's learning loop is shape-stable, so it records epoch 0 and replays
  // the rest; the scores must equal the fully eager loop bit for bit.
  const bool plan_default = plan::ExecPlanEnabled();
  obs::SetEnabled(true);
  obs::Counter* replays = obs::MetricsRegistry::Global().GetCounter("plan.replays");
  FlowXOptions options;
  options.shapley_iterations = 2;
  options.learning_epochs = 12;
  for (int index : {0, 1}) {
    const ExplanationTask task = MakeTask(index);
    for (Objective objective : {Objective::kFactual, Objective::kCounterfactual}) {
      plan::SetExecPlanEnabled(false);
      const Explanation eager = FlowXExplainer(options).Explain(task, objective);
      plan::SetExecPlanEnabled(true);
      const uint64_t replays_before = replays->Total();
      const Explanation replayed = FlowXExplainer(options).Explain(task, objective);
      EXPECT_EQ(replays->Total(), replays_before + options.learning_epochs - 1)
          << "every epoch after the first must replay";
      ASSERT_TRUE(eager.status.ok()) << eager.status.ToString();
      ASSERT_TRUE(replayed.status.ok()) << replayed.status.ToString();
      ASSERT_FALSE(eager.edge_scores.empty());
      EXPECT_EQ(replayed.edge_scores, eager.edge_scores)
          << "task " << index << " " << ObjectiveName(objective);
      EXPECT_EQ(replayed.flow_scores, eager.flow_scores)
          << "task " << index << " " << ObjectiveName(objective);
    }
  }
  obs::SetEnabled(false);
  plan::SetExecPlanEnabled(plan_default);
}

TEST_F(ExplainerFixture, SubgraphXKeepsTargetAndScoresEdges) {
  const ExplanationTask task = MakeTask(0);
  SubgraphXOptions options;
  options.mcts_iterations = 6;
  options.shapley_samples = 2;
  SubgraphXExplainer explainer(options);
  const Explanation result = explainer.Explain(task, Objective::kFactual);
  // At least some edges must receive a nonzero reward signal.
  double magnitude = 0.0;
  for (double s : result.edge_scores) magnitude += std::fabs(s);
  EXPECT_GT(magnitude, 0.0);
}

TEST_F(ExplainerFixture, PgmExplainerIsBlackBox) {
  // PGM-Explainer only calls Logits (no gradients); its scores must still
  // cover all edges and be non-negative (chi-square based).
  const ExplanationTask task = MakeTask(0);
  PgmExplainerOptions options;
  options.num_rounds = 25;
  PgmExplainer explainer(options);
  const auto scores = explainer.Explain(task, Objective::kFactual).edge_scores;
  for (double s : scores) EXPECT_GE(s, 0.0);
}

}  // namespace
}  // namespace revelio::explain
