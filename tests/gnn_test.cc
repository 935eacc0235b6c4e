// Tests for the GNN stack: layer-edge sets, mask semantics (Eq. 6), layer
// behavior, model forward shapes, and a training smoke test per arch.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gnn/layer_edges.h"
#include "gnn/layers.h"
#include "gnn/model.h"
#include "gnn/trainer.h"
#include "nn/loss.h"
#include "prop/prop_util.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"

namespace revelio::gnn {
namespace {

using graph::Graph;
using tensor::Tensor;

// Row v of edges.csr must list exactly the layer edges with dst == v, and
// transpose column v exactly those with src == v, each in increasing id with
// SelfLoopOf(v) last. Returns "" on success.
std::string CheckCsrOrder(const LayerEdgeSet& edges) {
  const tensor::CsrPattern& p = *edges.csr;
  if (p.num_rows != edges.num_nodes || p.num_cols != edges.num_nodes ||
      p.num_edges != edges.num_layer_edges() || p.nnz() != edges.num_layer_edges()) {
    return "pattern shape does not match the layer-edge set";
  }
  for (int v = 0; v < edges.num_nodes; ++v) {
    std::vector<int> in, out;
    for (int e = 0; e < edges.num_layer_edges(); ++e) {
      if (edges.dst[e] == v) in.push_back(e);
      if (edges.src[e] == v) out.push_back(e);
    }
    const std::vector<int> row(p.edge_idx.begin() + p.row_ptr[v],
                               p.edge_idx.begin() + p.row_ptr[v + 1]);
    const std::vector<int> column(p.tedge_idx.begin() + p.tcol_ptr[v],
                                  p.tedge_idx.begin() + p.tcol_ptr[v + 1]);
    const std::string at = " at node " + std::to_string(v);
    if (row != in) return "csr row is not the increasing in-edge list" + at;
    if (column != out) return "transpose column is not the increasing out-edge list" + at;
    if (row.empty() || row.back() != edges.SelfLoopOf(v)) return "self-loop not last in row" + at;
    if (column.back() != edges.SelfLoopOf(v)) return "self-loop not last in column" + at;
    for (int k = p.row_ptr[v]; k < p.row_ptr[v + 1]; ++k) {
      if (p.col_idx[k] != edges.src[p.edge_idx[k]]) return "col_idx is not the source" + at;
    }
    for (int k = p.tcol_ptr[v]; k < p.tcol_ptr[v + 1]; ++k) {
      if (p.trow_idx[k] != edges.dst[p.tedge_idx[k]]) return "trow_idx is not the target" + at;
    }
  }
  return "";
}

Graph TriangleGraph() {
  Graph g(3);
  g.AddUndirectedEdge(0, 1);
  g.AddUndirectedEdge(1, 2);
  g.AddUndirectedEdge(0, 2);
  return g;
}

TEST(LayerEdgesTest, BaseEdgesThenSelfLoops) {
  Graph g = TriangleGraph();
  LayerEdgeSet edges = BuildLayerEdges(g);
  EXPECT_EQ(edges.num_base_edges, 6);
  EXPECT_EQ(edges.num_layer_edges(), 9);
  for (int e = 0; e < 6; ++e) EXPECT_FALSE(edges.IsSelfLoop(e));
  for (int v = 0; v < 3; ++v) {
    const int e = edges.SelfLoopOf(v);
    EXPECT_TRUE(edges.IsSelfLoop(e));
    EXPECT_EQ(edges.src[e], v);
    EXPECT_EQ(edges.dst[e], v);
  }
  // Every node of the triangle has 2 in-edges + 1 self-loop.
  EXPECT_EQ(CheckCsrOrder(edges), "");
  for (int v = 0; v < 3; ++v) {
    EXPECT_EQ(edges.csr->row_ptr[v + 1] - edges.csr->row_ptr[v], 3);
  }
}

TEST(LayerEdgesTest, CsrRowsListLayerEdgesInIncreasingIdSelfLoopLast) {
  // Flow enumeration walks csr rows, so this order fixes every FlowSet.
  std::vector<proptest::GraphSpec> specs(2);
  specs[0].kind = "empty";
  specs[1].kind = "isolated";  // nodes 0 and 4 touch no edge
  specs[1].num_nodes = 5;
  specs[1].edges = {{3, 1}, {1, 2}, {2, 1}, {3, 2}};
  util::Rng rng(0x1a7e7);
  for (int i = 0; i < 24; ++i) specs.push_back(proptest::GenGraphSpec(rng, 1, 10));
  for (const proptest::GraphSpec& spec : specs) {
    const LayerEdgeSet edges = BuildLayerEdges(proptest::MakeGraph(spec));
    EXPECT_EQ(CheckCsrOrder(edges), "") << proptest::DescribeGraphSpec(spec);
  }
}

TEST(LayerEdgesTest, GcnCoefficientsSymmetricNorm) {
  Graph g(2);
  g.AddUndirectedEdge(0, 1);
  LayerEdgeSet edges = BuildLayerEdges(g);
  const auto coefficients = GcnCoefficients(g, edges);
  // d = in_degree + 1 = 2 for both nodes: edge coeff = 1/2, self = 1/2.
  for (float c : coefficients) EXPECT_NEAR(c, 0.5f, 1e-6);
}

class LayerMaskSemantics : public ::testing::TestWithParam<GnnArch> {
 protected:
  std::unique_ptr<GnnLayer> MakeLayer(int in_dim, int out_dim) {
    util::Rng rng(7);
    switch (GetParam()) {
      case GnnArch::kGcn:
        return std::make_unique<GcnLayer>(in_dim, out_dim, &rng);
      case GnnArch::kGin:
        return std::make_unique<GinLayer>(in_dim, out_dim, &rng);
      case GnnArch::kGat:
        return std::make_unique<GatLayer>(in_dim, out_dim, 2, /*concat=*/true, &rng);
    }
    return nullptr;
  }
};

TEST_P(LayerMaskSemantics, AllOnesMaskMatchesUnmasked) {
  Graph g = TriangleGraph();
  LayerEdgeSet edges = BuildLayerEdges(g);
  util::Rng rng(3);
  Tensor x = Tensor::Randn(3, 4, &rng);
  auto layer = MakeLayer(4, 6);
  Tensor unmasked = layer->Forward(g, edges, x, Tensor());
  Tensor masked = layer->Forward(g, edges, x, Tensor::Ones(edges.num_layer_edges(), 1));
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 6; ++c) EXPECT_NEAR(masked.At(r, c), unmasked.At(r, c), 1e-5);
  }
}

TEST_P(LayerMaskSemantics, ZeroMaskKillsEdgeContribution) {
  if (GetParam() == GnnArch::kGat) {
    // For GAT, masking an edge is NOT equivalent to zeroing its source
    // features: Eq. 6 applies the mask after attention, so the masked edge
    // still participates in the softmax denominator. Covered by
    // GatMaskZeroesMessageNotAttention below.
    GTEST_SKIP();
  }
  // Graph: 0 -> 2 and 1 -> 2. For GCN/GIN, masking both in-edges of node 2
  // must equal zeroing the source features (messages are linear in h_src).
  Graph g(3);
  const int e02 = g.AddEdge(0, 2);
  const int e12 = g.AddEdge(1, 2);
  LayerEdgeSet edges = BuildLayerEdges(g);
  util::Rng rng(5);
  Tensor x = Tensor::Randn(3, 4, &rng);
  auto layer = MakeLayer(4, 4);

  std::vector<float> mask_values(edges.num_layer_edges(), 1.0f);
  mask_values[e02] = 0.0f;
  mask_values[e12] = 0.0f;
  Tensor out_masked =
      layer->Forward(g, edges, x, Tensor::FromVector(mask_values));

  Tensor x_zeroed = x.Detach();
  for (int f = 0; f < 4; ++f) {
    x_zeroed.SetAt(0, f, 0.0f);
    x_zeroed.SetAt(1, f, 0.0f);
  }
  Tensor out_isolated =
      layer->Forward(g, edges, x_zeroed, Tensor::Ones(edges.num_layer_edges(), 1));
  for (int c = 0; c < 4; ++c) {
    EXPECT_NEAR(out_masked.At(2, c), out_isolated.At(2, c), 1e-4)
        << "masking an edge must equal removing its message";
  }
}

INSTANTIATE_TEST_SUITE_P(Archs, LayerMaskSemantics,
                         ::testing::Values(GnnArch::kGcn, GnnArch::kGin, GnnArch::kGat));

TEST(GnnLayerTest, GatMaskZeroesMessageNotAttention) {
  // Masking every in-layer-edge of a node leaves only the bias: compare
  // against an isolated zero-feature node, whose attended message is zero.
  Graph g(3);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  LayerEdgeSet edges = BuildLayerEdges(g);
  util::Rng rng(5);
  GatLayer layer(4, 4, 2, /*concat=*/true, &rng);
  Tensor x = Tensor::Randn(3, 4, &rng);

  std::vector<float> mask_values(edges.num_layer_edges(), 1.0f);
  mask_values[0] = 0.0f;                  // 0 -> 2
  mask_values[1] = 0.0f;                  // 1 -> 2
  mask_values[edges.SelfLoopOf(2)] = 0.0f;
  Tensor out_masked = layer.Forward(g, edges, x, Tensor::FromVector(mask_values));

  Graph isolated(1);
  LayerEdgeSet iso_edges = BuildLayerEdges(isolated);
  Tensor out_bias = layer.Forward(isolated, iso_edges, Tensor::Zeros(1, 4), Tensor());
  for (int c = 0; c < 4; ++c) {
    EXPECT_NEAR(out_masked.At(2, c), out_bias.At(0, c), 1e-4);
  }
}

TEST(GnnLayerTest, GcnSelfLoopOnlyNodeKeepsOwnSignal) {
  Graph g(2);
  g.AddEdge(0, 1);  // node 0 has no in-edges
  LayerEdgeSet edges = BuildLayerEdges(g);
  util::Rng rng(11);
  GcnLayer layer(3, 3, &rng);
  Tensor x = Tensor::Randn(2, 3, &rng);
  Tensor out = layer.Forward(g, edges, x, Tensor());
  // Node 0's output = self-loop coeff * xW + b; it must not be all-bias.
  Tensor zero_x = Tensor::Zeros(2, 3);
  Tensor out_zero = layer.Forward(g, edges, zero_x, Tensor());
  bool differs = false;
  for (int c = 0; c < 3; ++c) {
    if (std::fabs(out.At(0, c) - out_zero.At(0, c)) > 1e-6) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(GnnLayerTest, GatAttentionSumsToOnePerNode) {
  // Indirect check: with identical inputs everywhere, a GAT layer output is
  // invariant to in-degree (attention normalizes), unlike a sum aggregator.
  util::Rng rng(13);
  GatLayer layer(4, 4, 2, /*concat=*/true, &rng);
  Tensor x = Tensor::Ones(4, 4);

  Graph star(4);  // node 0 receives from 1, 2, 3
  star.AddEdge(1, 0);
  star.AddEdge(2, 0);
  star.AddEdge(3, 0);
  LayerEdgeSet star_edges = BuildLayerEdges(star);
  Tensor out_star = layer.Forward(star, star_edges, x, Tensor());

  Graph pair(4);  // node 0 receives from node 1 only
  pair.AddEdge(1, 0);
  LayerEdgeSet pair_edges = BuildLayerEdges(pair);
  Tensor out_pair = layer.Forward(pair, pair_edges, x, Tensor());

  for (int c = 0; c < 4; ++c) {
    EXPECT_NEAR(out_star.At(0, c), out_pair.At(0, c), 1e-4);
  }
}

TEST(GnnModelTest, NodeTaskShapesAndEmbeddings) {
  GnnConfig config;
  config.arch = GnnArch::kGcn;
  config.task = TaskType::kNodeClassification;
  config.input_dim = 5;
  config.hidden_dim = 8;
  config.num_classes = 3;
  config.num_layers = 3;
  GnnModel model(config);
  Graph g = TriangleGraph();
  util::Rng rng(17);
  Tensor x = Tensor::Randn(3, 5, &rng);
  LayerEdgeSet edges = BuildLayerEdges(g);
  auto result = model.Run(g, edges, x, {});
  EXPECT_EQ(result.logits.rows(), 3);
  EXPECT_EQ(result.logits.cols(), 3);
  ASSERT_EQ(result.embeddings.size(), 4u);
  EXPECT_EQ(result.embeddings[0].cols(), 5);
  EXPECT_EQ(result.embeddings[3].cols(), 8);
}

TEST(GnnModelTest, GraphTaskPoolsToOneRowPerGraph) {
  GnnConfig config;
  config.arch = GnnArch::kGin;
  config.task = TaskType::kGraphClassification;
  config.input_dim = 4;
  config.hidden_dim = 8;
  config.num_classes = 2;
  GnnModel model(config);
  Graph g = TriangleGraph();
  util::Rng rng(19);
  Tensor x = Tensor::Randn(3, 4, &rng);
  Tensor logits = model.Logits(g, x);
  EXPECT_EQ(logits.rows(), 1);
  EXPECT_EQ(logits.cols(), 2);
}

TEST(GnnModelTest, PermutationEquivariance) {
  // Relabeling nodes permutes node logits identically (GCN).
  GnnConfig config;
  config.arch = GnnArch::kGcn;
  config.input_dim = 4;
  config.hidden_dim = 8;
  config.num_classes = 2;
  config.seed = 23;
  GnnModel model(config);

  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  util::Rng rng(29);
  Tensor x = Tensor::Randn(3, 4, &rng);
  Tensor logits = model.Logits(g, x);

  // Permutation (0,1,2) -> (2,0,1).
  const int perm[3] = {2, 0, 1};
  Graph pg(3);
  pg.AddEdge(perm[0], perm[1]);
  pg.AddEdge(perm[1], perm[2]);
  Tensor px = Tensor::Zeros(3, 4);
  for (int v = 0; v < 3; ++v) {
    for (int f = 0; f < 4; ++f) px.SetAt(perm[v], f, x.At(v, f));
  }
  Tensor plogits = model.Logits(pg, px);
  for (int v = 0; v < 3; ++v) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_NEAR(logits.At(v, c), plogits.At(perm[v], c), 1e-4);
    }
  }
}

TEST(TrainerTest, MakeSplitPartitionsIndices) {
  util::Rng rng(31);
  Split split = MakeSplit(100, 0.7, 0.15, &rng);
  EXPECT_EQ(split.train.size(), 70u);
  EXPECT_EQ(split.val.size(), 15u);
  EXPECT_EQ(split.test.size(), 15u);
  std::vector<char> seen(100, 0);
  for (int i : split.train) seen[i] += 1;
  for (int i : split.val) seen[i] += 1;
  for (int i : split.test) seen[i] += 1;
  for (char s : seen) EXPECT_EQ(s, 1) << "each index appears exactly once";
}

TEST(TrainerTest, NodeModelLearnsSeparableClasses) {
  // Two communities with distinctive features: accuracy should be high.
  util::Rng rng(37);
  Graph g(40);
  for (int i = 0; i < 20; ++i) g.AddUndirectedEdge(i, (i + 1) % 20);
  for (int i = 20; i < 40; ++i) g.AddUndirectedEdge(i, 20 + (i + 1 - 20) % 20);
  Tensor x = Tensor::Zeros(40, 4);
  std::vector<int> labels(40);
  for (int v = 0; v < 40; ++v) {
    labels[v] = v < 20 ? 0 : 1;
    x.SetAt(v, labels[v], 1.0f);
    x.SetAt(v, 2 + labels[v], static_cast<float>(rng.Uniform()));
  }
  GnnConfig config;
  config.arch = GnnArch::kGcn;
  config.input_dim = 4;
  config.hidden_dim = 8;
  config.num_classes = 2;
  GnnModel model(config);
  Split split = MakeSplit(40, 0.5, 0.25, &rng);
  TrainConfig train_config;
  train_config.epochs = 80;
  TrainMetrics metrics = TrainNodeModel(&model, g, x, labels, split, train_config);
  EXPECT_GT(metrics.test_accuracy, 0.9);
}

TEST(TrainerTest, GraphModelLearnsFeatureMajority) {
  // Label = which feature dominates; GIN mean-pool separates this easily.
  util::Rng rng(41);
  std::vector<graph::GraphInstance> instances;
  for (int i = 0; i < 60; ++i) {
    const int label = i % 2;
    graph::GraphInstance instance;
    instance.graph = Graph(5);
    for (int v = 0; v + 1 < 5; ++v) instance.graph.AddUndirectedEdge(v, v + 1);
    instance.features = Tensor::Zeros(5, 2);
    for (int v = 0; v < 5; ++v) instance.features.SetAt(v, label, 1.0f);
    instance.labels = {label};
    instances.push_back(std::move(instance));
  }
  GnnConfig config;
  config.arch = GnnArch::kGin;
  config.task = TaskType::kGraphClassification;
  config.input_dim = 2;
  config.hidden_dim = 8;
  config.num_classes = 2;
  GnnModel model(config);
  Split split = MakeSplit(60, 0.6, 0.2, &rng);
  TrainConfig train_config;
  train_config.epochs = 60;
  TrainMetrics metrics = TrainGraphModel(&model, instances, split, train_config);
  EXPECT_GT(metrics.test_accuracy, 0.9);
}

}  // namespace
}  // namespace revelio::gnn
