// Tests for the core Revelio explainer: mask machinery (Eqs. 4-9), score
// conventions (§IV-C), regularizer behavior, and end-to-end recovery of a
// planted important edge.

#include "core/revelio.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "explain/random_explainer.h"
#include "gnn/trainer.h"
#include "graph/subgraph.h"
#include "nn/loss.h"
#include "plan/plan.h"

namespace revelio::core {
namespace {

using explain::ExplanationTask;
using explain::Objective;

class RevelioFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    state_ = new State();
    auto& s = *state_;
    // Two communities whose labels are feature-determined; community edges
    // propagate the label signal.
    s.graph = graph::Graph(12);
    for (int i = 0; i < 6; ++i) s.graph.AddUndirectedEdge(i, (i + 1) % 6);
    for (int i = 6; i < 12; ++i) s.graph.AddUndirectedEdge(i, 6 + (i + 1 - 6) % 6);
    s.graph.AddUndirectedEdge(1, 7);
    s.features = tensor::Tensor::Zeros(12, 3);
    for (int v = 0; v < 12; ++v) {
      s.labels.push_back(v < 6 ? 0 : 1);
      s.features.SetAt(v, s.labels[v], 1.0f);
    }
    gnn::GnnConfig config;
    config.arch = gnn::GnnArch::kGcn;
    config.input_dim = 3;
    config.hidden_dim = 8;
    config.num_classes = 2;
    s.model = std::make_unique<gnn::GnnModel>(config);
    util::Rng rng(7);
    gnn::Split split = gnn::MakeSplit(12, 0.8, 0.1, &rng);
    gnn::TrainConfig train_config;
    train_config.epochs = 60;
    gnn::TrainNodeModel(s.model.get(), s.graph, s.features, s.labels, split, train_config);

    graph::Subgraph sub = graph::ExtractKHopInSubgraph(s.graph, 3, 3);
    s.instance_graph = std::move(sub.graph);
    s.instance_features = graph::SliceRows(s.features, sub.node_map);
    s.target = sub.target_local;
  }
  static void TearDownTestSuite() {
    delete state_;
    state_ = nullptr;
  }

  ExplanationTask MakeTask() const {
    ExplanationTask task;
    task.model = state_->model.get();
    task.graph = &state_->instance_graph;
    task.features = state_->instance_features;
    task.target_node = state_->target;
    task.target_class = explain::PredictedClass(task);
    return task;
  }

  struct State {
    graph::Graph graph;
    tensor::Tensor features;
    std::vector<int> labels;
    std::unique_ptr<gnn::GnnModel> model;
    graph::Graph instance_graph;
    tensor::Tensor instance_features;
    int target = 0;
  };
  static State* state_;
};

RevelioFixture::State* RevelioFixture::state_ = nullptr;

RevelioOptions FastOptions() {
  RevelioOptions options;
  options.epochs = 40;
  return options;
}

TEST_F(RevelioFixture, FactualScoresRespectRanges) {
  RevelioExplainer revelio(FastOptions());
  const ExplanationTask task = MakeTask();
  const auto result = revelio.ExplainFlows(task, Objective::kFactual);

  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(*task.graph);
  const int64_t expected_flows = flow::CountFlowsToTarget(edges, task.target_node, 3);
  EXPECT_EQ(static_cast<int64_t>(result.flows.num_flows()), expected_flows);
  ASSERT_EQ(static_cast<int>(result.flow_scores.size()), result.flows.num_flows());
  for (double s : result.flow_scores) {
    EXPECT_GT(s, -1.0);  // tanh range (Eq. 4)
    EXPECT_LT(s, 1.0);
  }
  ASSERT_EQ(static_cast<int>(result.layer_edge_masks.size()), 3);
  for (const auto& layer : result.layer_edge_masks) {
    for (double m : layer) {
      EXPECT_GE(m, 0.0);  // sigmoid range (Eq. 5)
      EXPECT_LE(m, 1.0);
    }
  }
  EXPECT_EQ(static_cast<int>(result.edge_scores.size()), task.graph->num_edges());
  EXPECT_EQ(static_cast<int>(result.layer_weights.size()), 3);
}

TEST_F(RevelioFixture, CounterfactualFollowsSectionIVC) {
  // Same seed, zero epochs: the counterfactual run must report exactly the
  // negated flow scores and 1 - mask of the factual run (§IV-C), since no
  // learning separates them.
  RevelioOptions options;
  options.epochs = 0;
  RevelioExplainer revelio(options);
  const ExplanationTask task = MakeTask();
  const auto factual = revelio.ExplainFlows(task, Objective::kFactual);
  const auto counterfactual = revelio.ExplainFlows(task, Objective::kCounterfactual);
  for (int k = 0; k < factual.flows.num_flows(); ++k) {
    EXPECT_NEAR(counterfactual.flow_scores[k], -factual.flow_scores[k], 1e-6);
  }
  for (int l = 0; l < 3; ++l) {
    for (size_t e = 0; e < factual.layer_edge_masks[l].size(); ++e) {
      EXPECT_NEAR(counterfactual.layer_edge_masks[l][e],
                  1.0 - factual.layer_edge_masks[l][e], 1e-6);
    }
  }
}

TEST_F(RevelioFixture, DeterministicAcrossRuns) {
  RevelioExplainer revelio_a(FastOptions());
  RevelioExplainer revelio_b(FastOptions());
  const ExplanationTask task = MakeTask();
  const auto a = revelio_a.Explain(task, Objective::kFactual);
  const auto b = revelio_b.Explain(task, Objective::kFactual);
  for (size_t e = 0; e < a.edge_scores.size(); ++e) {
    EXPECT_NEAR(a.edge_scores[e], b.edge_scores[e], 1e-7);
  }
}

TEST_F(RevelioFixture, StrongerAlphaShrinksFactualMasks) {
  const ExplanationTask task = MakeTask();
  RevelioOptions weak = FastOptions();
  weak.alpha = 0.0f;
  RevelioOptions strong = FastOptions();
  strong.alpha = 2.0f;
  const auto weak_result = RevelioExplainer(weak).ExplainFlows(task, Objective::kFactual);
  const auto strong_result = RevelioExplainer(strong).ExplainFlows(task, Objective::kFactual);
  auto mean_mask = [](const RevelioExplainer::FlowExplanation& r) {
    double total = 0.0;
    int count = 0;
    for (const auto& layer : r.layer_edge_masks) {
      for (double m : layer) {
        total += m;
        ++count;
      }
    }
    return total / count;
  };
  EXPECT_LT(mean_mask(strong_result), mean_mask(weak_result))
      << "Eq. 8's alpha penalizes dense explanations";
}

TEST_F(RevelioFixture, LearningImprovesFactualObjective) {
  // The learned masks should preserve the prediction better than the
  // initial (epoch-0) masks when the same number of edges is kept.
  const ExplanationTask task = MakeTask();
  RevelioOptions untrained = FastOptions();
  untrained.epochs = 0;
  RevelioOptions trained = FastOptions();
  trained.epochs = 120;
  const auto scores_untrained =
      RevelioExplainer(untrained).Explain(task, Objective::kFactual).edge_scores;
  const auto scores_trained =
      RevelioExplainer(trained).Explain(task, Objective::kFactual).edge_scores;
  const double fidelity_untrained = eval::FidelityMinus(task, scores_untrained, 0.5);
  const double fidelity_trained = eval::FidelityMinus(task, scores_trained, 0.5);
  EXPECT_LE(fidelity_trained, fidelity_untrained + 0.05)
      << "training must not hurt the factual objective materially";
}

TEST_F(RevelioFixture, AblationVariantsRun) {
  const ExplanationTask task = MakeTask();
  for (auto scaling : {RevelioOptions::LayerScaling::kExp,
                       RevelioOptions::LayerScaling::kSoftplus,
                       RevelioOptions::LayerScaling::kNone}) {
    for (bool tanh_masks : {true, false}) {
      RevelioOptions options = FastOptions();
      options.epochs = 10;
      options.layer_scaling = scaling;
      options.use_tanh_flow_masks = tanh_masks;
      const auto result = RevelioExplainer(options).Explain(task, Objective::kFactual);
      EXPECT_EQ(static_cast<int>(result.edge_scores.size()), task.graph->num_edges());
    }
  }
}

TEST_F(RevelioFixture, MasksMatchEquationFiveExactly) {
  // With zero training epochs the reported layer-edge masks must equal the
  // hand-computed Eq. 4/5/7 pipeline at initialization: M ~ 0.1*Randn(seed),
  // omega[F] = tanh(M), w = 0 so exp(w_l) = 1, and
  // omega[e^l] = sigmoid(sum of omega[F] over flows on (l, e)).
  RevelioOptions options;
  options.epochs = 0;
  options.seed = 12345;
  RevelioExplainer revelio(options);
  const ExplanationTask task = MakeTask();
  const auto result = revelio.ExplainFlows(task, Objective::kFactual);

  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(*task.graph);
  util::Rng rng(options.seed);
  tensor::Tensor m = tensor::Tensor::Randn(result.flows.num_flows(), 1, &rng);
  std::vector<double> omega(result.flows.num_flows());
  for (int k = 0; k < result.flows.num_flows(); ++k) {
    omega[k] = std::tanh(0.1f * m.At(k, 0));
    EXPECT_NEAR(result.flow_scores[k], omega[k], 1e-6);
  }
  for (int l = 0; l < result.flows.num_layers(); ++l) {
    std::vector<double> accumulated(edges.num_layer_edges(), 0.0);
    for (int k = 0; k < result.flows.num_flows(); ++k) {
      accumulated[result.flows.EdgeAt(l, k)] += omega[k];
    }
    for (int e = 0; e < edges.num_layer_edges(); ++e) {
      const double expected = 1.0 / (1.0 + std::exp(-accumulated[e]));
      EXPECT_NEAR(result.layer_edge_masks[l][e], expected, 1e-5)
          << "layer " << l << " edge " << e;
    }
  }
}

TEST_F(RevelioFixture, PrefilterRestrictsToTopKFlows) {
  const ExplanationTask task = MakeTask();
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(*task.graph);
  const int64_t all_flows = flow::CountFlowsToTarget(edges, task.target_node, 3);
  ASSERT_GT(all_flows, 8);

  RevelioOptions options = FastOptions();
  options.prefilter_top_k = 8;
  RevelioExplainer revelio(options);
  const auto result = revelio.ExplainFlows(task, Objective::kFactual);
  EXPECT_EQ(result.flows.num_flows(), 8);
  EXPECT_EQ(result.flow_scores.size(), 8u);
  EXPECT_EQ(static_cast<int>(result.edge_scores.size()), task.graph->num_edges());
  // Every kept flow must still end at the target.
  for (int k = 0; k < result.flows.num_flows(); ++k) {
    EXPECT_EQ(result.flows.FlowNodes(k, edges).back(), task.target_node);
  }
}

TEST_F(RevelioFixture, PrefilterLargerThanFlowCountIsNoOp) {
  const ExplanationTask task = MakeTask();
  RevelioOptions options = FastOptions();
  options.prefilter_top_k = 1'000'000;
  RevelioExplainer revelio(options);
  RevelioOptions baseline_options = FastOptions();
  RevelioExplainer baseline(baseline_options);
  const auto filtered = revelio.ExplainFlows(task, Objective::kFactual);
  const auto full = baseline.ExplainFlows(task, Objective::kFactual);
  EXPECT_EQ(filtered.flows.num_flows(), full.flows.num_flows());
  for (size_t e = 0; e < full.edge_scores.size(); ++e) {
    EXPECT_NEAR(filtered.edge_scores[e], full.edge_scores[e], 1e-7);
  }
}

TEST_F(RevelioFixture, DivergentLearningRateReturnsStatusNotNanScores) {
  // A NaN or overflowing learning rate drives the masks non-finite. The
  // explainer must report that as an error, on both the eager and the
  // recorded-plan epoch paths, instead of returning NaN scores with Ok.
  const ExplanationTask task = MakeTask();
  const bool plan_default = plan::ExecPlanEnabled();
  for (const float learning_rate : {std::numeric_limits<float>::quiet_NaN(), 1e38f}) {
    for (const bool use_plan : {true, false}) {
      plan::SetExecPlanEnabled(use_plan);
      RevelioOptions options;
      options.epochs = 20;
      options.learning_rate = learning_rate;
      RevelioExplainer revelio(options);
      const explain::Explanation result = revelio.Explain(task, Objective::kFactual);
      EXPECT_EQ(result.status.code(), util::StatusCode::kInternal)
          << "lr=" << learning_rate << " plan=" << use_plan << ": " << result.status.ToString();
      EXPECT_TRUE(result.edge_scores.empty());
      EXPECT_TRUE(result.flow_scores.empty());
    }
  }
  plan::SetExecPlanEnabled(plan_default);
  // One epoch: the loss is still finite, only the final Step goes NaN.
  RevelioOptions one_epoch;
  one_epoch.epochs = 1;
  one_epoch.learning_rate = std::numeric_limits<float>::quiet_NaN();
  const explain::Explanation result =
      RevelioExplainer(one_epoch).Explain(task, Objective::kFactual);
  EXPECT_EQ(result.status.code(), util::StatusCode::kInternal) << result.status.ToString();
  EXPECT_TRUE(result.edge_scores.empty());
}

TEST_F(RevelioFixture, ExplainFlowsReturnsStatusForOverBudgetAndInvalidTasks) {
  // ExplainFlows is public: a task over the flow budget, or one that fails
  // validation, must come back as a status with empty scores, not an abort.
  const ExplanationTask task = MakeTask();
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(*task.graph);
  ASSERT_GT(flow::CountFlowsToTarget(edges, task.target_node, 3), 1);
  RevelioOptions options = FastOptions();
  options.max_flows = 1;
  const auto over_budget = RevelioExplainer(options).ExplainFlows(task, Objective::kFactual);
  EXPECT_EQ(over_budget.status.code(), util::StatusCode::kResourceExhausted)
      << over_budget.status.ToString();
  EXPECT_TRUE(over_budget.flow_scores.empty());
  EXPECT_TRUE(over_budget.edge_scores.empty());
  EXPECT_TRUE(over_budget.layer_edge_masks.empty());

  ExplanationTask graphless = task;
  graphless.graph = nullptr;
  const auto invalid = RevelioExplainer(FastOptions()).ExplainFlows(graphless, Objective::kFactual);
  EXPECT_EQ(invalid.status.code(), util::StatusCode::kInvalidArgument)
      << invalid.status.ToString();
  EXPECT_TRUE(invalid.flow_scores.empty());
  EXPECT_TRUE(invalid.edge_scores.empty());
}

TEST_F(RevelioFixture, GraphTaskExplanationCoversAllFlows) {
  // Build a tiny graph-classification model and explain one instance.
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGin;
  config.task = gnn::TaskType::kGraphClassification;
  config.input_dim = 3;
  config.hidden_dim = 8;
  config.num_classes = 2;
  gnn::GnnModel model(config);

  graph::Graph g(4);
  g.AddUndirectedEdge(0, 1);
  g.AddUndirectedEdge(1, 2);
  g.AddUndirectedEdge(2, 3);
  util::Rng rng(11);
  ExplanationTask task;
  task.model = &model;
  task.graph = &g;
  task.features = tensor::Tensor::Randn(4, 3, &rng);
  task.target_node = -1;
  task.target_class = 0;

  RevelioExplainer revelio(FastOptions());
  const auto result = revelio.ExplainFlows(task, Objective::kFactual);
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(g);
  EXPECT_EQ(static_cast<int64_t>(result.flows.num_flows()),
            flow::CountAllFlows(edges, 3));
}

}  // namespace
}  // namespace revelio::core
