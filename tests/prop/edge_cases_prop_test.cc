// Edge-case hardening: degenerate harness inputs (empty graphs, zero-edge
// k-hop subgraphs, single-node batches) must surface as clean util::Status
// errors from the Try*/Validate entry points — never as CHECK-aborts — and
// the degenerate-but-valid shapes must flow through the full pipeline.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>

#include "core/revelio.h"
#include "explain/explainer.h"
#include "gnn/model.h"
#include "gnn/trainer.h"
#include "graph/batch.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "prop/prop_util.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "util/parallel.h"
#include "util/proptest.h"
#include "util/rng.h"
#include "util/status.h"

namespace revelio::proptest {
namespace {

using tensor::Tensor;

// --- Try-API property over random (possibly empty) graphs --------------------

TEST(EdgeCaseTest, TryExtractKHopRejectsBadInputsAndAcceptsAllValidTargets) {
  const util::PropConfig config = util::DefaultPropConfig(60, 0xedbe);
  const util::Domain<GraphSpec> domain = GraphDomain(0, 8, /*allow_empty=*/true);
  const util::CheckResult result = util::ForAll<GraphSpec>(
      "khop_status", domain,
      [](const GraphSpec& spec) -> std::string {
        const graph::Graph g = MakeGraph(spec);
        // Out-of-range targets and negative radii: InvalidArgument, not abort.
        for (int bad : {-1, g.num_nodes()}) {
          const auto status_or = graph::TryExtractKHopInSubgraph(g, bad, 2);
          if (status_or.ok()) return "accepted out-of-range target " + std::to_string(bad);
          if (status_or.status().code() != util::StatusCode::kInvalidArgument) {
            return "wrong code for bad target: " + status_or.status().ToString();
          }
        }
        if (g.num_nodes() > 0) {
          const auto status_or = graph::TryExtractKHopInSubgraph(g, 0, -1);
          if (status_or.ok()) return "accepted negative radius";
        }
        // Every in-range target succeeds, including isolated nodes whose
        // subgraph has zero edges.
        for (int t = 0; t < g.num_nodes(); ++t) {
          const auto status_or = graph::TryExtractKHopInSubgraph(g, t, 2);
          if (!status_or.ok()) {
            return "rejected valid target " + std::to_string(t) + ": " +
                   status_or.status().ToString();
          }
          const graph::Subgraph& sub = status_or.value();
          if (sub.node_map.empty() || sub.node_map[sub.target_local] != t) {
            return "subgraph does not contain target " + std::to_string(t);
          }
        }
        return "";
      },
      config);
  EXPECT_TRUE(result.ok) << result.report;
}

// --- Zero-edge k-hop subgraph through the full Revelio pipeline --------------

TEST(EdgeCaseTest, ZeroEdgeKHopSubgraphExplainsCleanly) {
  // Node 0 only has out-edges, so its in-computation subgraph is the single
  // node with zero edges. Revelio must still produce a (self-loop-only) flow
  // explanation instead of aborting.
  graph::Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(2, 3);
  const auto sub_or = graph::TryExtractKHopInSubgraph(g, 0, 2);
  ASSERT_TRUE(sub_or.ok()) << sub_or.status().ToString();
  const graph::Subgraph& sub = sub_or.value();
  ASSERT_EQ(sub.graph.num_nodes(), 1);
  ASSERT_EQ(sub.graph.num_edges(), 0);

  util::Rng rng(0x5e1f);
  const Tensor all_features = Tensor::Uniform(4, 3, -1.0f, 1.0f, &rng);
  gnn::GnnConfig model_config;
  model_config.arch = gnn::GnnArch::kGcn;
  model_config.input_dim = 3;
  model_config.hidden_dim = 4;
  model_config.num_classes = 2;
  model_config.num_layers = 2;
  model_config.seed = 7;
  gnn::GnnModel model(model_config);

  explain::ExplanationTask task;
  task.model = &model;
  task.graph = &sub.graph;
  task.features = graph::SliceRows(all_features, sub.node_map);
  task.target_node = sub.target_local;
  task.target_class = 0;
  ASSERT_TRUE(explain::ValidateExplanationTask(task).ok());

  core::RevelioOptions options;
  options.epochs = 5;
  core::RevelioExplainer explainer(options);
  const core::RevelioExplainer::FlowExplanation result =
      explainer.ExplainFlows(task, explain::Objective::kFactual);
  EXPECT_GT(result.flows.num_flows(), 0);  // self-loop chain flows
  for (double s : result.flow_scores) EXPECT_TRUE(std::isfinite(s));
}

// --- Zero-in-degree rows must be exactly +0.0, never stale memory ------------

// +0.0 down to the bit pattern (rules out -0.0 and any stale garbage).
bool IsPositiveZero(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits == 0;
}

// Churns the allocator with a nonzero buffer so a kernel that skipped
// zero-initialization of untouched output rows would read back garbage
// instead of accidentally-fresh zero pages.
void DirtyHeap() {
  std::vector<float> garbage(size_t{1} << 16, -123.456f);
  volatile float sink = garbage[garbage.size() / 2];
  (void)sink;
}

std::string CheckZeroRows(const char* what, const Tensor& out, const std::vector<int>& rows) {
  for (int r : rows) {
    for (int c = 0; c < out.cols(); ++c) {
      if (!IsPositiveZero(out.At(r, c))) {
        return std::string(what) + ": row " + std::to_string(r) + " col " + std::to_string(c) +
               " is " + std::to_string(out.At(r, c)) + ", expected +0.0";
      }
    }
  }
  return "";
}

TEST(EdgeCaseTest, ZeroInDegreeNodesYieldExactZeroRowsInBothAggregationPaths) {
  // Nodes 0, 2, 3, 5 receive no edges (zero in-degree); nodes 1, 4, 5 have
  // no out-edges, so their dX rows must also be exactly zero.
  graph::Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(2, 1);
  g.AddEdge(3, 4);
  const std::vector<int> zero_in = {0, 2, 3, 5};
  const std::vector<int> zero_out = {1, 4, 5};
  std::vector<int> src(g.num_edges());
  std::vector<int> dst(g.num_edges());
  for (int e = 0; e < g.num_edges(); ++e) {
    src[e] = g.edge(e).src;
    dst[e] = g.edge(e).dst;
  }

  const tensor::CsrPatternRef pattern =
      tensor::BuildCsrPattern(g.num_nodes(), g.num_nodes(), dst, src);

  for (const int threads : {1, 2, 7, 16}) {
    util::SetNumThreads(threads);
    util::Rng rng(0x0de6 + threads);
    const Tensor weights = Tensor::Uniform(g.num_edges(), 1, 0.2f, 1.5f, &rng);

    struct Variant {
      const char* name;
      std::function<Tensor(const Tensor&)> forward;
    };
    const std::vector<Variant> variants = {
        {"chain",
         [&](const Tensor& x) {
           return tensor::ScatterAddRows(tensor::GatherRows(x, src), dst, g.num_nodes());
         }},
        {"SpmmCsrWeighted",
         [&](const Tensor& x) { return tensor::SpmmCsrWeighted(pattern, weights, x); }},
    };
    for (const Variant& v : variants) {
      DirtyHeap();
      Tensor x = Tensor::Uniform(g.num_nodes(), 7, -2.0f, 2.0f, &rng).WithRequiresGrad();
      Tensor out = v.forward(x);
      std::string failure = CheckZeroRows(v.name, out, zero_in);
      EXPECT_EQ(failure, "") << "threads=" << threads;
      tensor::Sum(out).Backward();
      // dX of a node with no out-edges gets no contribution either.
      Tensor grad = Tensor::FromData(x.rows(), x.cols(), x.GradData());
      failure = CheckZeroRows((std::string(v.name) + " dX").c_str(), grad, zero_out);
      EXPECT_EQ(failure, "") << "threads=" << threads;
    }
  }
  util::SetNumThreads(1);
}

// --- Single-node batches ------------------------------------------------------

graph::GraphInstance SingleNodeInstance(uint64_t seed, int feature_dim) {
  graph::GraphInstance inst;
  inst.graph = graph::Graph(1);
  util::Rng rng(seed);
  inst.features = Tensor::Uniform(1, feature_dim, -1.0f, 1.0f, &rng);
  inst.labels = {static_cast<int>(seed % 2)};
  return inst;
}

TEST(EdgeCaseTest, SingleNodeBatchRunsAndTrains) {
  const graph::GraphInstance inst = SingleNodeInstance(11, 3);
  const auto batch_or = graph::TryMakeBatch({&inst});
  ASSERT_TRUE(batch_or.ok()) << batch_or.status().ToString();
  const graph::GraphBatch& batch = batch_or.value();
  EXPECT_EQ(batch.graph.num_nodes(), 1);
  EXPECT_EQ(batch.num_graphs, 1);

  gnn::GnnConfig model_config;
  model_config.arch = gnn::GnnArch::kGin;
  model_config.task = gnn::TaskType::kGraphClassification;
  model_config.input_dim = 3;
  model_config.hidden_dim = 4;
  model_config.num_classes = 2;
  model_config.num_layers = 2;
  model_config.seed = 5;
  gnn::GnnModel model(model_config);
  const Tensor logits = model.Logits(batch.graph, batch.features);
  ASSERT_EQ(logits.rows(), 1);
  ASSERT_EQ(logits.cols(), 2);
  for (float v : logits.values()) EXPECT_TRUE(std::isfinite(v));

  // A dataset of single-node graphs must also survive a short training run.
  std::vector<graph::GraphInstance> instances;
  for (uint64_t s = 0; s < 6; ++s) instances.push_back(SingleNodeInstance(s, 3));
  util::Rng split_rng(3);
  const gnn::Split split = gnn::MakeSplit(static_cast<int>(instances.size()), 0.5, 0.25, &split_rng);
  gnn::TrainConfig train_config;
  train_config.epochs = 3;
  const gnn::TrainMetrics metrics = gnn::TrainGraphModel(&model, instances, split, train_config);
  EXPECT_TRUE(std::isfinite(metrics.final_loss));
}

TEST(EdgeCaseTest, TryMakeBatchRejectsMalformedInputs) {
  EXPECT_EQ(graph::TryMakeBatch({}).status().code(), util::StatusCode::kInvalidArgument);

  const graph::GraphInstance a = SingleNodeInstance(1, 3);
  const graph::GraphInstance b = SingleNodeInstance(2, 4);  // mismatched feature dim
  EXPECT_EQ(graph::TryMakeBatch({&a, &b}).status().code(), util::StatusCode::kInvalidArgument);

  graph::GraphInstance c = SingleNodeInstance(3, 3);
  c.labels = {0, 1};  // node labels on a graph-task instance
  EXPECT_EQ(graph::TryMakeBatch({&a, &c}).status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(graph::TryMakeBatch({&a}).ok());

  // Null pointers anywhere in the list — including slot 0, which the
  // feature-dim probe reads first — must yield InvalidArgument, not a crash.
  EXPECT_EQ(graph::TryMakeBatch({nullptr}).status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(graph::TryMakeBatch({nullptr, &a}).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(graph::TryMakeBatch({&a, nullptr}).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(EdgeCaseTest, SingleInstanceBatchIsIdentity) {
  // A batch of one multi-edge instance reproduces the instance verbatim:
  // same node count, same edges in the same order, same feature bits, one
  // all-zero segment id per node.
  graph::GraphInstance inst;
  inst.graph = graph::Graph(4);
  inst.graph.AddEdge(0, 1);
  inst.graph.AddEdge(2, 1);
  inst.graph.AddUndirectedEdge(2, 3);
  util::Rng rng(0xba7c);
  inst.features = Tensor::Uniform(4, 3, -1.0f, 1.0f, &rng);
  inst.labels = {1};

  const auto batch_or = graph::TryMakeBatch({&inst});
  ASSERT_TRUE(batch_or.ok()) << batch_or.status().ToString();
  const graph::GraphBatch& batch = batch_or.value();
  EXPECT_EQ(batch.num_graphs, 1);
  ASSERT_EQ(batch.graph.num_nodes(), inst.graph.num_nodes());
  ASSERT_EQ(batch.graph.num_edges(), inst.graph.num_edges());
  for (int e = 0; e < inst.graph.num_edges(); ++e) {
    EXPECT_EQ(batch.graph.edge(e).src, inst.graph.edge(e).src);
    EXPECT_EQ(batch.graph.edge(e).dst, inst.graph.edge(e).dst);
  }
  EXPECT_EQ(batch.features.values(), inst.features.values());
  EXPECT_EQ(batch.node_to_graph, std::vector<int>(4, 0));
  EXPECT_EQ(batch.labels, inst.labels);
}

// --- Task validation ----------------------------------------------------------

TEST(EdgeCaseTest, ValidateExplanationTaskCatchesDegenerateInputs) {
  gnn::GnnConfig model_config;
  model_config.input_dim = 3;
  model_config.hidden_dim = 4;
  model_config.num_classes = 2;
  model_config.num_layers = 2;
  gnn::GnnModel model(model_config);

  graph::Graph empty(0);
  graph::Graph one(1);
  util::Rng rng(9);
  const Tensor features = Tensor::Uniform(1, 3, -1.0f, 1.0f, &rng);

  explain::ExplanationTask task;
  task.model = &model;
  task.graph = &one;
  task.features = features;
  task.target_node = 0;
  task.target_class = 1;
  EXPECT_TRUE(explain::ValidateExplanationTask(task).ok());

  explain::ExplanationTask bad = task;
  bad.model = nullptr;
  EXPECT_EQ(explain::ValidateExplanationTask(bad).code(), util::StatusCode::kInvalidArgument);

  bad = task;
  bad.graph = nullptr;
  EXPECT_EQ(explain::ValidateExplanationTask(bad).code(), util::StatusCode::kInvalidArgument);

  // Empty graph: previously an uncaught CHECK deep inside flow enumeration.
  bad = task;
  bad.graph = &empty;
  EXPECT_EQ(explain::ValidateExplanationTask(bad).code(), util::StatusCode::kInvalidArgument);

  bad = task;
  bad.features = Tensor::Uniform(2, 3, -1.0f, 1.0f, &rng);  // rows != nodes
  EXPECT_EQ(explain::ValidateExplanationTask(bad).code(), util::StatusCode::kInvalidArgument);

  bad = task;
  bad.features = Tensor::Uniform(1, 5, -1.0f, 1.0f, &rng);  // cols != input_dim
  EXPECT_EQ(explain::ValidateExplanationTask(bad).code(), util::StatusCode::kInvalidArgument);

  bad = task;
  bad.target_node = 4;  // out of range
  EXPECT_EQ(explain::ValidateExplanationTask(bad).code(), util::StatusCode::kInvalidArgument);

  bad = task;
  bad.target_node = -1;  // graph-style task against a node model
  EXPECT_EQ(explain::ValidateExplanationTask(bad).code(), util::StatusCode::kInvalidArgument);

  bad = task;
  bad.target_class = 2;
  EXPECT_EQ(explain::ValidateExplanationTask(bad).code(), util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace revelio::proptest
