#include "flow/message_flow.h"

#include <sstream>

#include "util/check.h"

namespace revelio::flow {

std::vector<int> FlowSet::FlowNodes(int k, const gnn::LayerEdgeSet& edges) const {
  CHECK(k >= 0 && k < num_flows());
  std::vector<int> nodes;
  nodes.reserve(num_layers_ + 1);
  nodes.push_back(edges.src[EdgeAt(0, k)]);
  for (int l = 0; l < num_layers_; ++l) nodes.push_back(edges.dst[EdgeAt(l, k)]);
  return nodes;
}

std::string FlowSet::FormatFlow(int k, const gnn::LayerEdgeSet& edges) const {
  const std::vector<int> nodes = FlowNodes(k, edges);
  std::ostringstream out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out << "->";
    out << nodes[i];
  }
  return out.str();
}

void FlowSet::AddFlow(const std::vector<int>& layer_edge_path) {
  CHECK_EQ(static_cast<int>(layer_edge_path.size()), num_layers_);
  for (int l = 0; l < num_layers_; ++l) {
    DCHECK(layer_edge_path[l] >= 0 && layer_edge_path[l] < num_layer_edges_);
    edge_of_flow_[l].push_back(layer_edge_path[l]);
  }
  reverse_built_ = false;
}

const std::vector<int>& FlowSet::FlowsOnEdge(int l, int e) const {
  EnsureReverseIndex();
  CHECK(l >= 0 && l < num_layers_);
  CHECK(e >= 0 && e < num_layer_edges_);
  return flows_on_edge_[l][e];
}

bool FlowSet::EdgeCarriesFlow(int l, int e) const { return !FlowsOnEdge(l, e).empty(); }

std::vector<int> FlowSet::UsedEdgesAtLayer(int l) const {
  EnsureReverseIndex();
  std::vector<int> used;
  for (int e = 0; e < num_layer_edges_; ++e) {
    if (!flows_on_edge_[l][e].empty()) used.push_back(e);
  }
  return used;
}

void FlowSet::EnsureReverseIndex() const {
  if (reverse_built_) return;
  flows_on_edge_.assign(num_layers_, std::vector<std::vector<int>>(num_layer_edges_));
  for (int l = 0; l < num_layers_; ++l) {
    for (int k = 0; k < num_flows(); ++k) {
      flows_on_edge_[l][edge_of_flow_[l][k]].push_back(k);
    }
  }
  reverse_built_ = true;
}

namespace {

// paths[v] starts as the number of length-0 walks from v into the target set;
// each step extends every walk by one layer edge. Returns the total number of
// length-`num_layers` walks, i.e. flows.
int64_t CountWalks(const gnn::LayerEdgeSet& edges, std::vector<int64_t> paths, int num_layers) {
  for (int step = 0; step < num_layers; ++step) {
    std::vector<int64_t> next(edges.num_nodes, 0);
    for (int e = 0; e < edges.num_layer_edges(); ++e) {
      next[edges.src[e]] += paths[edges.dst[e]];
    }
    paths = std::move(next);
  }
  int64_t total = 0;
  for (int64_t p : paths) total += p;
  return total;
}

}  // namespace

int64_t CountFlowsToTarget(const gnn::LayerEdgeSet& edges, int target, int num_layers) {
  CHECK(target >= 0 && target < edges.num_nodes);
  std::vector<int64_t> paths(edges.num_nodes, 0);
  paths[target] = 1;
  return CountWalks(edges, std::move(paths), num_layers);
}

int64_t CountAllFlows(const gnn::LayerEdgeSet& edges, int num_layers) {
  // Every node is a target: one DP pass instead of one per node.
  return CountWalks(edges, std::vector<int64_t>(edges.num_nodes, 1), num_layers);
}

namespace {

// Backward DFS over layers: position `l` chooses the layer edge used at
// layer l (0-based), starting from the deepest layer.
void EnumerateBackward(const gnn::LayerEdgeSet& edges, int node, int l,
                       std::vector<int>* path, FlowSet* out, int64_t max_flows) {
  if (l < 0) {
    CHECK_LE(out->num_flows() + 1, max_flows)
        << "flow enumeration exceeded max_flows; pre-screen with CountFlowsToTarget";
    out->AddFlow(*path);
    return;
  }
  // CSR row `node` lists its incoming layer edges in increasing id
  // (gnn::LayerEdgeSet::csr), which fixes the flow order.
  const tensor::CsrPattern& in = *edges.csr;
  for (int k = in.row_ptr[node]; k < in.row_ptr[node + 1]; ++k) {
    const int e = in.edge_idx[k];
    (*path)[l] = e;
    EnumerateBackward(edges, edges.src[e], l - 1, path, out, max_flows);
  }
}

}  // namespace

FlowSet EnumerateFlowsToTarget(const gnn::LayerEdgeSet& edges, int target, int num_layers,
                               int64_t max_flows) {
  CHECK(target >= 0 && target < edges.num_nodes);
  CHECK_GT(num_layers, 0);
  FlowSet result(num_layers, edges.num_layer_edges());
  std::vector<int> path(num_layers);
  EnumerateBackward(edges, target, num_layers - 1, &path, &result, max_flows);
  return result;
}

FlowSet EnumerateAllFlows(const gnn::LayerEdgeSet& edges, int num_layers, int64_t max_flows) {
  CHECK_GT(num_layers, 0);
  FlowSet result(num_layers, edges.num_layer_edges());
  std::vector<int> path(num_layers);
  for (int v = 0; v < edges.num_nodes; ++v) {
    EnumerateBackward(edges, v, num_layers - 1, &path, &result, max_flows);
  }
  return result;
}

util::StatusOr<FlowSet> EnumerateInstanceFlows(const gnn::LayerEdgeSet& edges, int target,
                                               int num_layers, int64_t max_flows) {
  const int64_t count = target >= 0 ? CountFlowsToTarget(edges, target, num_layers)
                                    : CountAllFlows(edges, num_layers);
  if (count > max_flows) {
    return util::Status::ResourceExhausted(
        "instance has " + std::to_string(count) + " message flows, over the max_flows cap of " +
        std::to_string(max_flows));
  }
  return target >= 0 ? EnumerateFlowsToTarget(edges, target, num_layers, max_flows)
                     : EnumerateAllFlows(edges, num_layers, max_flows);
}

}  // namespace revelio::flow
