// Tests for the graph module: container invariants, adjacency, subgraph
// extraction, edge removal, batching.

#include "graph/graph.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "graph/batch.h"
#include "graph/subgraph.h"

namespace revelio::graph {
namespace {

Graph MakePathGraph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  return g;
}

TEST(GraphTest, AddEdgeAndAdjacency) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 1);
  g.AddEdge(1, 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_EQ(g.InEdges(1).size(), 2u);
  EXPECT_EQ(g.OutEdges(1).size(), 1u);
  EXPECT_EQ(g.InEdges(0).size(), 0u);
}

TEST(GraphTest, UndirectedEdgeAddsBothDirections) {
  Graph g(2);
  g.AddUndirectedEdge(0, 1);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
}

TEST(GraphTest, DegreesAndMaxInDegree) {
  Graph g(3);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  const auto in = g.InDegrees();
  const auto out = g.OutDegrees();
  EXPECT_EQ(in[2], 2);
  EXPECT_EQ(in[1], 0);
  EXPECT_EQ(out[2], 1);
  EXPECT_EQ(g.MaxInDegree(), 2);
}

TEST(GraphTest, RemoveEdgesPreservesOrderAndMapsIndices) {
  Graph g = MakePathGraph(5);  // edges 0-1,1-2,2-3,3-4
  std::vector<int> index_map;
  Graph reduced = g.RemoveEdges({1, 3}, &index_map);
  EXPECT_EQ(reduced.num_edges(), 2);
  EXPECT_TRUE(reduced.HasEdge(0, 1));
  EXPECT_TRUE(reduced.HasEdge(2, 3));
  EXPECT_EQ(index_map[0], 0);
  EXPECT_EQ(index_map[1], -1);
  EXPECT_EQ(index_map[2], 1);
  EXPECT_EQ(index_map[3], -1);
  EXPECT_EQ(reduced.num_nodes(), 5) << "node set is unchanged";
}

TEST(GraphTest, RemoveNoEdgesIsIdentity) {
  Graph g = MakePathGraph(4);
  Graph same = g.RemoveEdges({});
  EXPECT_EQ(same.num_edges(), g.num_edges());
}

// --- Cache invalidation ----------------------------------------------------

// Regression mirroring the PR 4 dirty-heap case at the adjacency layer:
// a lazily-built cache consulted after a structural mutation must reflect
// the mutation, not the stale snapshot. set_num_nodes used to leave
// adjacency_built_ set, so InEdges/OutEdges on the grown node range read
// out-of-date (or out-of-bounds) cached lists.
TEST(GraphTest, SetNumNodesInvalidatesBuiltAdjacency) {
  Graph g(2);
  g.AddEdge(0, 1);
  EXPECT_EQ(g.InEdges(1).size(), 1u);  // forces the lazy adjacency build

  g.set_num_nodes(4);
  EXPECT_EQ(g.InEdges(3).size(), 0u) << "new node must have an (empty) adjacency row";
  const int e = g.AddEdge(1, 3);
  ASSERT_EQ(g.InEdges(3).size(), 1u);
  EXPECT_EQ(g.InEdges(3)[0], e);
  EXPECT_EQ(g.OutEdges(1).size(), 1u);
}

// Batched explanation reads one task graph from several threads at once, so
// the lazy adjacency cache must build exactly once under concurrent const
// readers (the tsan preset runs this race-free; here every reader must see
// the complete adjacency).
TEST(GraphTest, ConcurrentConstReadersShareOneCache) {
  Graph g(64);
  for (int v = 0; v < 64; ++v) g.AddUndirectedEdge(v, (v + 1) % 64);
  const Graph copy = g;  // a copy starts cold and builds its own cache
  for (const Graph* graph : std::vector<const Graph*>{&g, &copy}) {
    std::vector<std::thread> readers;
    for (int t = 0; t < 8; ++t) {
      readers.emplace_back([graph, t] {
        EXPECT_EQ(graph->InEdges(t).size(), 2u);
        EXPECT_EQ(graph->OutEdges(t).size(), 2u);
        EXPECT_TRUE(graph->HasEdge(t, t + 1));
      });
    }
    for (std::thread& reader : readers) reader.join();
  }
}

TEST(SubgraphTest, KHopExtractsInNeighborhood) {
  // 0 -> 1 -> 2 -> 3 -> 4 (directed path), target 4, k = 2.
  Graph g = MakePathGraph(5);
  Subgraph sub = ExtractKHopInSubgraph(g, 4, 2);
  EXPECT_EQ(sub.graph.num_nodes(), 3);  // nodes 2, 3, 4
  EXPECT_EQ(sub.graph.num_edges(), 2);  // 2->3, 3->4
  EXPECT_EQ(sub.node_map.size(), 3u);
  EXPECT_EQ(sub.node_map[sub.target_local], 4);
}

TEST(SubgraphTest, DirectionalityMatters) {
  // Edge 4 -> 3 should not pull node 4 into target 4's own... build: 0->1, 2->1.
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  Subgraph sub = ExtractKHopInSubgraph(g, 0, 2);
  EXPECT_EQ(sub.graph.num_nodes(), 1) << "no edges point into node 0";
  EXPECT_EQ(sub.graph.num_edges(), 0);
}

TEST(SubgraphTest, EdgeMapPointsToGlobalIndices) {
  Graph g(4);
  const int e0 = g.AddEdge(0, 1);
  g.AddEdge(3, 2);  // unrelated to target 1's 1-hop neighborhood
  const int e2 = g.AddEdge(2, 1);
  Subgraph sub = ExtractKHopInSubgraph(g, 1, 1);
  ASSERT_EQ(sub.edge_map.size(), 2u);
  EXPECT_EQ(sub.edge_map[0], e0);
  EXPECT_EQ(sub.edge_map[1], e2);
}

TEST(SubgraphTest, IncludesInducedEdgesAmongAncestors) {
  // Triangle 0->1, 1->2, 0->2 with target 2, k=2: all nodes and edges kept.
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  Subgraph sub = ExtractKHopInSubgraph(g, 2, 2);
  EXPECT_EQ(sub.graph.num_nodes(), 3);
  EXPECT_EQ(sub.graph.num_edges(), 3);
}

TEST(SubgraphTest, SliceRowsSelectsFeatureRows) {
  tensor::Tensor features = tensor::Tensor::FromData(3, 2, {1, 2, 3, 4, 5, 6});
  tensor::Tensor sliced = SliceRows(features, {2, 0});
  EXPECT_EQ(sliced.rows(), 2);
  EXPECT_EQ(sliced.At(0, 0), 5.0f);
  EXPECT_EQ(sliced.At(1, 1), 2.0f);
}

TEST(BatchTest, BlockDiagonalMerge) {
  GraphInstance a;
  a.graph = Graph(2);
  a.graph.AddEdge(0, 1);
  a.features = tensor::Tensor::Full(2, 3, 1.0f);
  a.labels = {0};
  GraphInstance b;
  b.graph = Graph(3);
  b.graph.AddEdge(1, 2);
  b.features = tensor::Tensor::Full(3, 3, 2.0f);
  b.labels = {1};

  GraphBatch batch = MakeBatch({&a, &b});
  EXPECT_EQ(batch.num_graphs, 2);
  EXPECT_EQ(batch.graph.num_nodes(), 5);
  EXPECT_EQ(batch.graph.num_edges(), 2);
  EXPECT_TRUE(batch.graph.HasEdge(0, 1));
  EXPECT_TRUE(batch.graph.HasEdge(3, 4)) << "second graph offset by 2";
  EXPECT_EQ(batch.node_to_graph[0], 0);
  EXPECT_EQ(batch.node_to_graph[2], 1);
  EXPECT_EQ(batch.labels[1], 1);
  EXPECT_EQ(batch.features.At(2, 0), 2.0f);
}

}  // namespace
}  // namespace revelio::graph
