#include "gnn/layers.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/flags.h"

namespace revelio::gnn {

using tensor::Tensor;

namespace {

std::atomic<bool>& FusedAggregationFlag() {
  static std::atomic<bool> flag(util::EnvFlag("REVELIO_FUSED_AGG", true));
  return flag;
}

// Aggregation step shared by all layers: out[j] = sum over in-layer-edges e
// of scale[e] * h[src(e)]. Dispatches to the fused SpMM when the edge set
// carries a CSR pattern and the toggle is on; both paths are bitwise-equal
// (the fused kernel reproduces the chain's serial scan order, see
// tensor/ops_spmm.cc and tests/prop/spmm_equivalence_test.cc).
Tensor AggregateMessages(const LayerEdgeSet& edges, const Tensor& scale, const Tensor& h) {
  if (FusedAggregationEnabled() && edges.csr != nullptr) {
    return tensor::SpmmCsrWeighted(edges.csr, scale, h);
  }
  Tensor messages = tensor::RowScale(tensor::GatherRows(h, edges.src), scale);
  return tensor::ScatterAddRows(messages, edges.dst, edges.num_nodes);
}

}  // namespace

bool FusedAggregationEnabled() { return FusedAggregationFlag().load(std::memory_order_relaxed); }

void SetFusedAggregation(bool enabled) {
  FusedAggregationFlag().store(enabled, std::memory_order_relaxed);
}

GcnLayer::GcnLayer(int in_dim, int out_dim, util::Rng* rng, bool normalize)
    : GnnLayer(in_dim, out_dim), normalize_(normalize) {
  // Bias is added after aggregation (PyG convention), so the inner Linear
  // stays bias-free and a dedicated bias parameter lives on the layer.
  linear_ = std::make_unique<nn::Linear>(in_dim, out_dim, rng, /*bias=*/false);
  RegisterChild(linear_.get());
  bias_added_ = RegisterParameter(Tensor::Zeros(1, out_dim));
}

std::vector<float> GcnLayer::Coefficients(const graph::Graph& graph,
                                          const LayerEdgeSet& edges) const {
  if (normalize_) return GcnCoefficients(graph, edges);
  return std::vector<float>(static_cast<size_t>(edges.num_layer_edges()), 1.0f);
}

tensor::Tensor GcnLayer::Forward(const graph::Graph& graph, const LayerEdgeSet& edges,
                                 const tensor::Tensor& h, const tensor::Tensor& edge_mask) const {
  Tensor hw = linear_->Forward(h);
  Tensor scale = Tensor::FromData(edges.num_layer_edges(), 1, Coefficients(graph, edges));
  if (edge_mask.defined()) scale = tensor::Mul(scale, edge_mask);
  Tensor aggregated = AggregateMessages(edges, scale, hw);
  return tensor::AddRowBroadcast(aggregated, bias_added_);
}

GinLayer::GinLayer(int in_dim, int out_dim, util::Rng* rng, float eps)
    : GnnLayer(in_dim, out_dim), eps_(eps) {
  mlp_first_ = std::make_unique<nn::Linear>(in_dim, out_dim, rng);
  mlp_second_ = std::make_unique<nn::Linear>(out_dim, out_dim, rng);
  RegisterChild(mlp_first_.get());
  RegisterChild(mlp_second_.get());
}

tensor::Tensor GinLayer::Forward(const graph::Graph& graph, const LayerEdgeSet& edges,
                                 const tensor::Tensor& h, const tensor::Tensor& edge_mask) const {
  (void)graph;
  std::vector<float> coefficients(static_cast<size_t>(edges.num_layer_edges()), 1.0f + eps_);
  std::fill(coefficients.begin(), coefficients.begin() + edges.num_base_edges, 1.0f);
  Tensor scale = Tensor::FromData(edges.num_layer_edges(), 1, std::move(coefficients));
  if (edge_mask.defined()) scale = tensor::Mul(scale, edge_mask);
  Tensor aggregated = AggregateMessages(edges, scale, h);
  return mlp_second_->Forward(tensor::Relu(mlp_first_->Forward(aggregated)));
}

GatLayer::GatLayer(int in_dim, int out_dim, int num_heads, bool concat, util::Rng* rng)
    : GnnLayer(in_dim, out_dim), num_heads_(num_heads), concat_(concat) {
  CHECK_GT(num_heads, 0);
  if (concat_) {
    CHECK_EQ(out_dim % num_heads, 0) << "GAT concat requires out_dim divisible by num_heads";
    head_dim_ = out_dim / num_heads;
  } else {
    head_dim_ = out_dim;
  }
  for (int k = 0; k < num_heads_; ++k) {
    head_projections_.push_back(
        std::make_unique<nn::Linear>(in_dim, head_dim_, rng, /*bias=*/false));
    RegisterChild(head_projections_.back().get());
    attention_src_.push_back(RegisterParameter(tensor::XavierUniform(head_dim_, 1, rng)));
    attention_dst_.push_back(RegisterParameter(tensor::XavierUniform(head_dim_, 1, rng)));
  }
  bias_ = RegisterParameter(Tensor::Zeros(1, out_dim));
}

tensor::Tensor GatLayer::Forward(const graph::Graph& graph, const LayerEdgeSet& edges,
                                 const tensor::Tensor& h, const tensor::Tensor& edge_mask) const {
  (void)graph;
  Tensor combined;
  for (int k = 0; k < num_heads_; ++k) {
    Tensor wh = head_projections_[k]->Forward(h);
    Tensor score_src = tensor::MatMul(wh, attention_src_[k]);  // N x 1
    Tensor score_dst = tensor::MatMul(wh, attention_dst_[k]);  // N x 1
    Tensor edge_logits = tensor::Add(tensor::GatherRows(score_src, edges.src),
                                     tensor::GatherRows(score_dst, edges.dst));
    edge_logits = tensor::LeakyRelu(edge_logits, 0.2f);
    Tensor attention = tensor::SegmentSoftmax(edge_logits, edges.dst, edges.num_nodes);
    Tensor scale = edge_mask.defined() ? tensor::Mul(attention, edge_mask) : attention;
    Tensor head_out = AggregateMessages(edges, scale, wh);
    if (!combined.defined()) {
      combined = head_out;
    } else if (concat_) {
      combined = tensor::ConcatCols(combined, head_out);
    } else {
      combined = tensor::Add(combined, head_out);
    }
  }
  if (!concat_ && num_heads_ > 1) {
    combined = tensor::MulScalar(combined, 1.0f / static_cast<float>(num_heads_));
  }
  return tensor::AddRowBroadcast(combined, bias_);
}

}  // namespace revelio::gnn
