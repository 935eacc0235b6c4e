#include "graph/graph.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace revelio::graph {

void Graph::set_num_nodes(int n) {
  CHECK_GE(n, num_nodes_);
  num_nodes_ = n;
  // The in/out adjacency lists are sized to the old node count; leaving
  // them marked built would make InEdges/OutEdges on the new nodes index
  // out of bounds (and miss rebuilds after later AddEdge calls).
  caches_.Reset();
}

int Graph::AddEdge(int src, int dst) {
  CHECK(src >= 0 && src < num_nodes_) << "src " << src << " out of range";
  CHECK(dst >= 0 && dst < num_nodes_) << "dst " << dst << " out of range";
  CHECK_NE(src, dst) << "self-loops are not stored in the base graph";
  edges_.push_back({src, dst});
  caches_.Reset();
  return static_cast<int>(edges_.size()) - 1;
}

int Graph::AddUndirectedEdge(int u, int v) {
  const int first = AddEdge(u, v);
  AddEdge(v, u);
  return first;
}

bool Graph::HasEdge(int src, int dst) const {
  std::lock_guard<std::mutex> lock(caches_.mu);
  EnsureAdjacencyLocked();
  for (int e : caches_.out_edges[src]) {
    if (edges_[e].dst == dst) return true;
  }
  return false;
}

const std::vector<int>& Graph::InEdges(int node) const {
  CHECK(node >= 0 && node < num_nodes_);
  std::lock_guard<std::mutex> lock(caches_.mu);
  EnsureAdjacencyLocked();
  return caches_.in_edges[node];
}

const std::vector<int>& Graph::OutEdges(int node) const {
  CHECK(node >= 0 && node < num_nodes_);
  std::lock_guard<std::mutex> lock(caches_.mu);
  EnsureAdjacencyLocked();
  return caches_.out_edges[node];
}

std::vector<int> Graph::InDegrees() const {
  std::vector<int> degrees(num_nodes_, 0);
  for (const Edge& e : edges_) ++degrees[e.dst];
  return degrees;
}

std::vector<int> Graph::OutDegrees() const {
  std::vector<int> degrees(num_nodes_, 0);
  for (const Edge& e : edges_) ++degrees[e.src];
  return degrees;
}

int Graph::MaxInDegree() const {
  int best = 0;
  for (int d : InDegrees()) best = std::max(best, d);
  return best;
}

Graph Graph::RemoveEdges(const std::vector<int>& removed, std::vector<int>* index_map_out) const {
  std::unordered_set<int> removed_set(removed.begin(), removed.end());
  CHECK_EQ(removed_set.size(), removed.size()) << "duplicate edge indices in RemoveEdges";
  for (int e : removed) CHECK(e >= 0 && e < num_edges());
  Graph result(num_nodes_);
  std::vector<int> index_map(edges_.size(), -1);
  for (int e = 0; e < num_edges(); ++e) {
    if (removed_set.count(e)) continue;
    index_map[e] = result.AddEdge(edges_[e].src, edges_[e].dst);
  }
  if (index_map_out != nullptr) *index_map_out = std::move(index_map);
  return result;
}

std::string Graph::DebugString() const {
  std::ostringstream out;
  out << "Graph(n=" << num_nodes_ << ", m=" << num_edges() << ", edges=[";
  for (int e = 0; e < num_edges() && e < 32; ++e) {
    if (e > 0) out << ", ";
    out << edges_[e].src << "->" << edges_[e].dst;
  }
  if (num_edges() > 32) out << ", ...";
  out << "])";
  return out.str();
}

void Graph::EnsureAdjacencyLocked() const {
  if (caches_.adjacency_built) return;
  caches_.in_edges.assign(num_nodes_, {});
  caches_.out_edges.assign(num_nodes_, {});
  for (int e = 0; e < num_edges(); ++e) {
    caches_.out_edges[edges_[e].src].push_back(e);
    caches_.in_edges[edges_[e].dst].push_back(e);
  }
  caches_.adjacency_built = true;
}

}  // namespace revelio::graph
