#include "gnn/layer_edges.h"

#include <cmath>

namespace revelio::gnn {

LayerEdgeSet BuildLayerEdges(const graph::Graph& graph) {
  LayerEdgeSet set;
  set.num_nodes = graph.num_nodes();
  set.num_base_edges = graph.num_edges();
  const int total = graph.num_edges() + graph.num_nodes();
  set.src.reserve(total);
  set.dst.reserve(total);
  for (const graph::Edge& e : graph.edges()) {
    set.src.push_back(e.src);
    set.dst.push_back(e.dst);
  }
  for (int v = 0; v < graph.num_nodes(); ++v) {
    set.src.push_back(v);
    set.dst.push_back(v);
  }
  // Stable counting sort over the augmented list: row v (and transpose
  // column v) lists its layer edges in increasing id, so base edges keep
  // their graph order and the self-loop E + v comes last. Flow enumeration
  // walks these rows, and the SpMM kernels accumulate in this order.
  set.csr = tensor::BuildCsrPattern(set.num_nodes, set.num_nodes, set.dst, set.src);
  return set;
}

std::vector<float> GcnCoefficients(const graph::Graph& graph, const LayerEdgeSet& edges) {
  std::vector<int> in_degrees = graph.InDegrees();
  std::vector<float> inv_sqrt(static_cast<size_t>(graph.num_nodes()));
  for (int v = 0; v < graph.num_nodes(); ++v) {
    inv_sqrt[v] = 1.0f / std::sqrt(static_cast<float>(in_degrees[v] + 1));
  }
  std::vector<float> coefficients(static_cast<size_t>(edges.num_layer_edges()));
  for (int e = 0; e < edges.num_layer_edges(); ++e) {
    coefficients[e] = inv_sqrt[edges.src[e]] * inv_sqrt[edges.dst[e]];
  }
  return coefficients;
}

}  // namespace revelio::gnn
