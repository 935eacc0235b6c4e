#include "gnn/layer_edges.h"

#include <cmath>
#include <memory>
#include <utility>

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
  set.in_layer_edges.assign(graph.num_nodes(), {});
  for (int e = 0; e < total; ++e) set.in_layer_edges[set.dst[e]].push_back(e);

  // Splice one self-loop per node onto the graph's cached destination-grouped
  // CSR. Self-loop layer-edge ids (E + v) sort after every base edge id, so
  // appending them at the end of row v / transpose column v preserves the
  // increasing-edge-id order the fused SpMM kernels rely on for bitwise
  // equality with the legacy scatter scan.
  const tensor::CsrPattern& base = *graph.InCsr();
  const int n = graph.num_nodes();
  const int num_base = graph.num_edges();
  auto aug = std::make_shared<tensor::CsrPattern>();
  aug->num_rows = n;
  aug->num_cols = n;
  aug->num_edges = total;
  aug->row_ptr.resize(static_cast<size_t>(n) + 1);
  aug->tcol_ptr.resize(static_cast<size_t>(n) + 1);
  aug->col_idx.reserve(total);
  aug->edge_idx.reserve(total);
  aug->trow_idx.reserve(total);
  aug->tedge_idx.reserve(total);
  aug->row_ptr[0] = 0;
  aug->tcol_ptr[0] = 0;
  for (int v = 0; v < n; ++v) {
    for (int k = base.row_ptr[v]; k < base.row_ptr[v + 1]; ++k) {
      aug->col_idx.push_back(base.col_idx[k]);
      aug->edge_idx.push_back(base.edge_idx[k]);
    }
    aug->col_idx.push_back(v);
    aug->edge_idx.push_back(num_base + v);
    aug->row_ptr[static_cast<size_t>(v) + 1] = static_cast<int>(aug->col_idx.size());
    for (int k = base.tcol_ptr[v]; k < base.tcol_ptr[v + 1]; ++k) {
      aug->trow_idx.push_back(base.trow_idx[k]);
      aug->tedge_idx.push_back(base.tedge_idx[k]);
    }
    aug->trow_idx.push_back(v);
    aug->tedge_idx.push_back(num_base + v);
    aug->tcol_ptr[static_cast<size_t>(v) + 1] = static_cast<int>(aug->trow_idx.size());
  }
  set.csr = std::move(aug);
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
