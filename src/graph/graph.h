#ifndef REVELIO_GRAPH_GRAPH_H_
#define REVELIO_GRAPH_GRAPH_H_

// Directed graph container shared by datasets, GNN layers and explainers.
//
// Edges are directed and stored in insertion order (COO); per-node in/out
// edge lists are built on demand. Following the paper, the stored
// edge list never contains self-loops; models that need them (GCN/GIN/GAT)
// work on the augmented LayerEdgeSet built by gnn::BuildLayerEdges.

#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"
#include "util/check.h"

namespace revelio::graph {

struct Edge {
  int src = 0;
  int dst = 0;
};

inline bool operator==(const Edge& a, const Edge& b) { return a.src == b.src && a.dst == b.dst; }

class Graph {
 public:
  Graph() = default;
  explicit Graph(int num_nodes) : num_nodes_(num_nodes) {}

  int num_nodes() const { return num_nodes_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  const std::vector<Edge>& edges() const { return edges_; }
  const Edge& edge(int e) const { return edges_[e]; }

  // Grows the node set (and invalidates the adjacency cache: the in/out
  // edge lists are sized to the node count).
  void set_num_nodes(int n);

  // Appends a directed edge src -> dst; returns its index. Self-loops are
  // rejected (the paper treats graphs as directed without self-loops).
  int AddEdge(int src, int dst);

  // Adds both directions; returns the index of the first.
  int AddUndirectedEdge(int u, int v);

  // True if a directed edge src -> dst exists.
  bool HasEdge(int src, int dst) const;

  // Indices of edges entering `node` (built lazily, cached).
  const std::vector<int>& InEdges(int node) const;
  // Indices of edges leaving `node`.
  const std::vector<int>& OutEdges(int node) const;

  // In-degree / out-degree of every node.
  std::vector<int> InDegrees() const;
  std::vector<int> OutDegrees() const;

  // Largest in-degree (the paper's d_-; bounds the number of message flows).
  int MaxInDegree() const;

  // A copy of this graph without the edges whose indices are listed (node
  // set unchanged). `removed` must contain valid, distinct edge indices.
  // `index_map_out`, if non-null, receives old-edge-index -> new-edge-index
  // (-1 for removed edges).
  Graph RemoveEdges(const std::vector<int>& removed, std::vector<int>* index_map_out = nullptr) const;

  std::string DebugString() const;

 private:
  // Builds the in/out edge lists if needed; the caller holds caches_.mu.
  void EnsureAdjacencyLocked() const;

  int num_nodes_ = 0;
  std::vector<Edge> edges_;

  // Lazily-built in/out edge lists. Const readers may run concurrently
  // (batched explanation shares one task graph across threads), so the
  // cache is built and read under `mu`; a built cache is never rebuilt until
  // a mutation (AddEdge, set_num_nodes), which must not race readers. A copy
  // starts cold.
  struct Caches {
    Caches() = default;
    Caches(const Caches&) {}
    Caches& operator=(const Caches&) {
      Reset();
      return *this;
    }
    void Reset() { adjacency_built = false; }

    std::mutex mu;
    bool adjacency_built = false;
    std::vector<std::vector<int>> in_edges;
    std::vector<std::vector<int>> out_edges;
  };
  mutable Caches caches_;
};

// Node features + labels packaged with a graph instance.
struct GraphInstance {
  Graph graph;
  tensor::Tensor features;   // num_nodes x feature_dim
  std::vector<int> labels;   // per node (node tasks) or {label} (graph tasks)
};

}  // namespace revelio::graph

#endif  // REVELIO_GRAPH_GRAPH_H_
