// Tests for the eval runner: instance selection invariants, symmetrization,
// configuration plumbing, and the protocols' handling of failed explanations.

#include "eval/runner.h"

#include <limits>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "explain/gnnexplainer.h"
#include "explain/gnnlrp.h"
#include "explain/gradcam.h"
#include "flow/message_flow.h"

namespace revelio::eval {
namespace {

TEST(SymmetrizeTest, AveragesDirectedPairs) {
  graph::Graph g(3);
  g.AddUndirectedEdge(0, 1);  // edges 0 and 1
  g.AddEdge(2, 0);            // edge 2 has no reverse
  const auto result = SymmetrizeEdgeScores(g, {0.2, 0.8, 0.4});
  EXPECT_NEAR(result[0], 0.5, 1e-12);
  EXPECT_NEAR(result[1], 0.5, 1e-12);
  EXPECT_NEAR(result[2], 0.4, 1e-12) << "one-directional edges keep their score";
}

TEST(DefaultEpochsTest, PerDatasetValues) {
  EXPECT_EQ(DefaultGnnTrainEpochs("ba_shapes"), 500);
  EXPECT_EQ(DefaultGnnTrainEpochs("tree_cycles"), 500);
  EXPECT_EQ(DefaultGnnTrainEpochs("ba_2motifs"), 300);
  EXPECT_EQ(DefaultGnnTrainEpochs("cora_like"), 150);
  EXPECT_EQ(DefaultGnnTrainEpochs("mutag_like"), 100);
}

class SelectInstancesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RunnerConfig config;
    config.num_instances = 6;
    config.gnn_train_epochs = 30;  // instance selection needs no strong model
    prepared_ = new PreparedModel(PrepareModel("tree_cycles", gnn::GnnArch::kGcn, config));
    config_ = config;
  }
  static void TearDownTestSuite() {
    delete prepared_;
    prepared_ = nullptr;
  }
  static PreparedModel* prepared_;
  static RunnerConfig config_;
};

PreparedModel* SelectInstancesTest::prepared_ = nullptr;
RunnerConfig SelectInstancesTest::config_;

TEST_F(SelectInstancesTest, NodeInstanceInvariants) {
  const auto instances = SelectInstances(*prepared_, config_, InstanceFilter::kAny);
  EXPECT_LE(static_cast<int>(instances.size()), config_.num_instances);
  EXPECT_FALSE(instances.empty());
  for (const auto& instance : instances) {
    EXPECT_GE(instance.graph.num_edges(), config_.min_instance_edges);
    EXPECT_GE(instance.target_node, 0);
    EXPECT_LT(instance.target_node, instance.graph.num_nodes());
    EXPECT_EQ(instance.features.rows(), instance.graph.num_nodes());
    // Flow count matches an independent recount.
    const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(instance.graph);
    EXPECT_EQ(instance.num_flows,
              flow::CountFlowsToTarget(edges, instance.target_node, 3));
    EXPECT_LE(instance.num_flows, config_.max_flows);
    // Ground truth arrays line up with the subgraph.
    EXPECT_EQ(static_cast<int>(instance.edge_in_motif.size()), instance.graph.num_edges());
  }
}

TEST_F(SelectInstancesTest, MotifFilterOnlyKeepsCorrectMotifTargets) {
  const auto instances =
      SelectInstances(*prepared_, config_, InstanceFilter::kMotifCorrect);
  for (const auto& instance : instances) {
    EXPECT_TRUE(instance.target_in_motif);
    EXPECT_TRUE(instance.correct_prediction);
  }
}

TEST_F(SelectInstancesTest, SelectionIsDeterministic) {
  const auto a = SelectInstances(*prepared_, config_, InstanceFilter::kAny);
  const auto b = SelectInstances(*prepared_, config_, InstanceFilter::kAny);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].target_node, b[i].target_node);
    EXPECT_EQ(a[i].graph.num_edges(), b[i].graph.num_edges());
    EXPECT_EQ(a[i].target_class, b[i].target_class);
  }
}

TEST_F(SelectInstancesTest, TaskConstructionPointsAtInstanceStorage) {
  const auto instances = SelectInstances(*prepared_, config_, InstanceFilter::kAny);
  const explain::ExplanationTask task = instances[0].MakeTask(prepared_->model.get());
  EXPECT_EQ(task.graph, &instances[0].graph);
  EXPECT_EQ(task.model, prepared_->model.get());
  EXPECT_EQ(task.logit_row(), task.target_node);
}

TEST(GraphInstanceSelectionTest, GraphTaskUsesWholeGraphs) {
  RunnerConfig config;
  config.num_instances = 3;
  config.gnn_train_epochs = 10;
  PreparedModel prepared = PrepareModel("mutag_like", gnn::GnnArch::kGin, config);
  const auto instances = SelectInstances(prepared, config, InstanceFilter::kAny);
  EXPECT_FALSE(instances.empty());
  for (const auto& instance : instances) {
    EXPECT_EQ(instance.target_node, -1);
    const explain::ExplanationTask task = instance.MakeTask(prepared.model.get());
    EXPECT_FALSE(task.is_node_task());
    EXPECT_EQ(task.logit_row(), 0);
    const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(instance.graph);
    EXPECT_EQ(instance.num_flows, flow::CountAllFlows(edges, 3));
  }
}

// RocAuc and the fidelity metrics CHECK a full score vector, so the protocols
// must skip a failed explanation (empty scores) and count it, not abort.
class FailedExplanationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RunnerConfig config;
    config.num_instances = 3;
    config.gnn_train_epochs = 30;
    prepared_ = new PreparedModel(PrepareModel("ba_shapes", gnn::GnnArch::kGcn, config));
    instances_ = new std::vector<EvalInstance>(
        SelectInstances(*prepared_, config, InstanceFilter::kAny));
  }
  static void TearDownTestSuite() {
    delete instances_;
    delete prepared_;
  }
  static PreparedModel* prepared_;
  static std::vector<EvalInstance>* instances_;
};

PreparedModel* FailedExplanationTest::prepared_ = nullptr;
std::vector<EvalInstance>* FailedExplanationTest::instances_ = nullptr;

TEST_F(FailedExplanationTest, DivergedExplanationsAreSkippedAndCounted) {
  const std::vector<EvalInstance>& instances = *instances_;
  ASSERT_FALSE(instances.empty());
  explain::GnnExplainerOptions options;
  options.epochs = 3;
  options.learning_rate = std::numeric_limits<float>::quiet_NaN();
  explain::GnnExplainerMethod diverging(options);
  const int n = static_cast<int>(instances.size());

  const AucResult auc = RunAuc(&diverging, *prepared_, instances, explain::Objective::kFactual);
  EXPECT_EQ(auc.instances_failed, n);
  EXPECT_EQ(auc.instances_evaluated, 0);
  EXPECT_EQ(auc.mean_auc, 0.5);

  const FidelityCurve curve =
      RunFidelity(&diverging, *prepared_, instances, explain::Objective::kFactual, {0.5});
  EXPECT_EQ(curve.instances_failed, n);
  EXPECT_EQ(curve.instances_evaluated, 0);
  EXPECT_EQ(curve.values[0], 0.0);
}

TEST_F(FailedExplanationTest, MeansCoverOnlyTheInstancesThatSucceeded) {
  const std::vector<EvalInstance>& instances = *instances_;
  ASSERT_GE(instances.size(), 2u);
  // The last instance fails validation (a NaN feature); the others explain.
  std::vector<EvalInstance> mixed = instances;
  mixed.back().features =
      tensor::Tensor::Zeros(mixed.back().features.rows(), mixed.back().features.cols());
  mixed.back().features.SetAt(0, 0, std::numeric_limits<float>::quiet_NaN());
  const std::vector<EvalInstance> succeeding(instances.begin(), instances.end() - 1);
  const int n = static_cast<int>(succeeding.size());

  explain::GradCamExplainer gradcam;
  const AucResult mixed_auc = RunAuc(&gradcam, *prepared_, mixed, explain::Objective::kFactual);
  const AucResult clean_auc =
      RunAuc(&gradcam, *prepared_, succeeding, explain::Objective::kFactual);
  EXPECT_EQ(mixed_auc.instances_failed, 1);
  EXPECT_EQ(mixed_auc.instances_evaluated, n);
  EXPECT_EQ(mixed_auc.mean_auc, clean_auc.mean_auc);

  const FidelityCurve mixed_curve =
      RunFidelity(&gradcam, *prepared_, mixed, explain::Objective::kFactual, {0.5});
  const FidelityCurve clean_curve =
      RunFidelity(&gradcam, *prepared_, succeeding, explain::Objective::kFactual, {0.5});
  EXPECT_EQ(mixed_curve.instances_failed, 1);
  EXPECT_EQ(mixed_curve.instances_evaluated, n);
  EXPECT_EQ(mixed_curve.values, clean_curve.values);
}

// GNN-LRP does not support GAT (paper §V-A). Through ExplainAll a GAT task
// comes back InvalidArgument with empty scores instead of aborting, and a
// supported method in the same position still explains.
TEST(UnsupportedArchTest, GnnLrpOnGatReturnsInvalidArgumentThroughExplainAll) {
  graph::Graph g(6);
  for (int v = 0; v < 6; ++v) g.AddUndirectedEdge(v, (v + 1) % 6);
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGat;
  config.input_dim = 3;
  config.hidden_dim = 4;
  config.num_classes = 2;
  config.num_heads = 2;
  gnn::GnnModel model(config);
  model.Freeze();
  util::Rng rng(3);
  explain::ExplanationTask task;
  task.model = &model;
  task.graph = &g;
  task.features = tensor::Tensor::Randn(6, 3, &rng);
  task.target_node = 0;
  const std::vector<explain::ExplanationTask> tasks = {task, task};

  explain::GnnLrpExplainer lrp{explain::GnnLrpOptions{}};
  const std::vector<explain::Explanation> rejected =
      ExplainAll(&lrp, tasks, explain::Objective::kFactual);
  ASSERT_EQ(rejected.size(), 2u);
  for (const explain::Explanation& e : rejected) {
    EXPECT_EQ(e.status.code(), util::StatusCode::kInvalidArgument) << e.status.ToString();
    EXPECT_TRUE(e.edge_scores.empty());
    EXPECT_TRUE(e.flow_scores.empty());
  }

  explain::GradCamExplainer gradcam;
  const std::vector<explain::Explanation> explained =
      ExplainAll(&gradcam, tasks, explain::Objective::kFactual);
  ASSERT_EQ(explained.size(), 2u);
  EXPECT_TRUE(explained[0].status.ok()) << explained[0].status.ToString();
  EXPECT_EQ(static_cast<int>(explained[0].edge_scores.size()), g.num_edges());
}

}  // namespace
}  // namespace revelio::eval
