#ifndef REVELIO_FLOW_MESSAGE_FLOW_H_
#define REVELIO_FLOW_MESSAGE_FLOW_H_

// Message-flow enumeration (paper §III).
//
// A message flow in an L-layer GNN is a walk of L consecutive layer edges
// (self-loops included): information leaving node u_0 at layer 1 reaches
// node u_L after L steps. FlowSet stores all flows of a graph instance in
// flat arrays together with the layer-edge incidence needed by Eq. (5)/(7):
// edge_of_flow[l][k] is the layer edge that flow k traverses at layer l+1 —
// the sparse representation of the binary matrix I in Eq. (7).

#include <cstdint>
#include <string>
#include <vector>

#include "gnn/layer_edges.h"
#include "util/status.h"

namespace revelio::flow {

class FlowSet {
 public:
  FlowSet() = default;
  FlowSet(int num_layers, int num_layer_edges)
      : num_layers_(num_layers), num_layer_edges_(num_layer_edges) {
    edge_of_flow_.resize(num_layers);
  }

  int num_layers() const { return num_layers_; }
  int num_flows() const {
    return num_layers_ == 0 ? 0 : static_cast<int>(edge_of_flow_[0].size());
  }
  int num_layer_edges() const { return num_layer_edges_; }

  // Layer edge used by flow `k` at layer `l` (0-based layer).
  int EdgeAt(int l, int k) const { return edge_of_flow_[l][k]; }
  const std::vector<int>& EdgesAtLayer(int l) const { return edge_of_flow_[l]; }

  // Node sequence u_0 .. u_L of flow `k`.
  std::vector<int> FlowNodes(int k, const gnn::LayerEdgeSet& edges) const;

  // "31->31->28" style rendering of flow `k`.
  std::string FormatFlow(int k, const gnn::LayerEdgeSet& edges) const;

  // Appends a flow given its layer-edge path (length == num_layers).
  void AddFlow(const std::vector<int>& layer_edge_path);

  // Flow indices traversing layer edge `e` at layer `l` (computed lazily,
  // cached; invalidated by AddFlow).
  const std::vector<int>& FlowsOnEdge(int l, int e) const;

  // True if at least one flow traverses layer edge `e` at layer `l`.
  bool EdgeCarriesFlow(int l, int e) const;

  // Layer edges at layer `l` carrying at least one flow ("used by the GNN" in
  // the Eq. (8) regularizer sense).
  std::vector<int> UsedEdgesAtLayer(int l) const;

 private:
  void EnsureReverseIndex() const;

  int num_layers_ = 0;
  int num_layer_edges_ = 0;
  std::vector<std::vector<int>> edge_of_flow_;  // [L][|F|]

  mutable bool reverse_built_ = false;
  mutable std::vector<std::vector<std::vector<int>>> flows_on_edge_;  // [L][E][..]
};

// Counts flows ending at `target` without materializing them (dynamic
// programming over path counts).
int64_t CountFlowsToTarget(const gnn::LayerEdgeSet& edges, int target, int num_layers);

// Counts all flows in the graph.
int64_t CountAllFlows(const gnn::LayerEdgeSet& edges, int num_layers);

// Enumerates every flow of length `num_layers` ending at `target` (node
// classification instances). CHECK-fails if the count exceeds `max_flows`;
// callers should use CountFlowsToTarget to pre-screen infeasible instances.
FlowSet EnumerateFlowsToTarget(const gnn::LayerEdgeSet& edges, int target, int num_layers,
                               int64_t max_flows = 2'000'000);

// Enumerates every flow in the graph (graph classification instances).
FlowSet EnumerateAllFlows(const gnn::LayerEdgeSet& edges, int num_layers,
                          int64_t max_flows = 2'000'000);

// The flows one explanation instance trains over: those ending at `target`
// (node tasks), or every flow when target < 0 (graph tasks). Counts them
// with the path DP first and returns kResourceExhausted, without
// enumerating, when there are more than `max_flows` — the Status-returning
// entry point for request-reachable code.
util::StatusOr<FlowSet> EnumerateInstanceFlows(const gnn::LayerEdgeSet& edges, int target,
                                               int num_layers, int64_t max_flows);

}  // namespace revelio::flow

#endif  // REVELIO_FLOW_MESSAGE_FLOW_H_
