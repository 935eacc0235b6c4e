#include "core/revelio.h"

#include <cmath>
#include <string>
#include <utility>

#include "explain/mask_learning.h"
#include "obs/audit.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace revelio::core {

using explain::Explanation;
using explain::ExplanationTask;
using explain::Objective;
using tensor::Tensor;

namespace {

// Builds the per-layer edge masks omega[E] (Eq. 5/7) from the flow masks.
// Returns one (num_layer_edges x 1) tensor per layer, each differentiable
// w.r.t. `flow_masks` and `layer_weights`.
std::vector<Tensor> BuildLayerEdgeMasks(const flow::FlowSet& flows, const Tensor& flow_scores,
                                        const Tensor& layer_weights,
                                        RevelioOptions::LayerScaling scaling) {
  std::vector<Tensor> masks;
  masks.reserve(flows.num_layers());
  Tensor scale;
  switch (scaling) {
    case RevelioOptions::LayerScaling::kExp:
      scale = tensor::Exp(layer_weights);
      break;
    case RevelioOptions::LayerScaling::kSoftplus:
      scale = tensor::Softplus(layer_weights);
      break;
    case RevelioOptions::LayerScaling::kNone:
      break;
  }
  for (int l = 0; l < flows.num_layers(); ++l) {
    // Accumulate omega[F] onto the layer edges each flow traverses at l.
    Tensor accumulated =
        tensor::ScatterAddRows(flow_scores, flows.EdgesAtLayer(l), flows.num_layer_edges());
    if (scale.defined()) {
      accumulated = tensor::ScaleByScalarTensor(accumulated, tensor::Select(scale, l, 0));
    }
    masks.push_back(tensor::Sigmoid(accumulated));
  }
  return masks;
}

// Mean of mask values over flow-carrying layer edges (the Eq. 8 regularizer
// skips edges unused by the GNN's computation toward the target).
Tensor UsedEdgeMean(const flow::FlowSet& flows, const std::vector<Tensor>& masks) {
  Tensor total;
  int count = 0;
  for (int l = 0; l < flows.num_layers(); ++l) {
    const std::vector<int> used = flows.UsedEdgesAtLayer(l);
    if (used.empty()) continue;
    Tensor layer_sum = tensor::Sum(tensor::GatherRows(masks[l], used));
    total = total.defined() ? tensor::Add(total, layer_sum) : layer_sum;
    count += static_cast<int>(used.size());
  }
  CHECK(total.defined()) << "no flow-carrying layer edges";
  return tensor::MulScalar(total, 1.0f / static_cast<float>(count));
}

}  // namespace

namespace {

// One gradient pass at initialization: |d objective / d M_k| per flow.
// Used by the §VI prefiltering extension to pick the flows worth learning.
std::vector<double> InitialFlowSaliency(const ExplanationTask& task,
                                        const gnn::LayerEdgeSet& edges,
                                        const flow::FlowSet& flows, Objective objective,
                                        RevelioOptions::LayerScaling scaling) {
  Tensor flow_params = Tensor::Zeros(flows.num_flows(), 1).WithRequiresGrad();
  Tensor layer_weights = Tensor::Zeros(task.model->num_layers(), 1);
  std::vector<Tensor> masks =
      BuildLayerEdgeMasks(flows, tensor::Tanh(flow_params), layer_weights, scaling);
  Tensor logits = task.model->Run(*task.graph, edges, task.features, masks).logits;
  Tensor loss = explain::ObjectiveLoss(logits, task, objective);
  loss.Backward();
  std::vector<double> saliency(flows.num_flows());
  for (int k = 0; k < flows.num_flows(); ++k) {
    saliency[k] = std::fabs(flow_params.GradAt(k, 0));
  }
  return saliency;
}

// Keeps only the flows in `kept` (a FlowSet over the same layer-edge space).
flow::FlowSet RestrictFlows(const flow::FlowSet& flows, const gnn::LayerEdgeSet& edges,
                            const std::vector<int>& kept) {
  flow::FlowSet reduced(flows.num_layers(), edges.num_layer_edges());
  std::vector<int> path(flows.num_layers());
  for (int k : kept) {
    for (int l = 0; l < flows.num_layers(); ++l) path[l] = flows.EdgeAt(l, k);
    reduced.AddFlow(path);
  }
  return reduced;
}

// Detached readout: given one instance's trained parameters, fills every
// score field of `result` (whose `flows` must already hold the learned flow
// set).
void FinishFlowExplanation(const gnn::LayerEdgeSet& edges, const Tensor& flow_mask_params,
                           const Tensor& layer_weights, Objective objective,
                           const RevelioOptions& options,
                           RevelioExplainer::FlowExplanation* result) {
  const flow::FlowSet& flows = result->flows;
  const int num_layers = flows.num_layers();
  Tensor omega_flows = options.use_tanh_flow_masks ? tensor::Tanh(flow_mask_params)
                                                   : tensor::Sigmoid(flow_mask_params);
  std::vector<Tensor> masks =
      BuildLayerEdgeMasks(flows, omega_flows, layer_weights, options.layer_scaling);

  result->flow_scores.resize(flows.num_flows());
  const float sign = objective == Objective::kCounterfactual ? -1.0f : 1.0f;
  for (int k = 0; k < flows.num_flows(); ++k) {
    result->flow_scores[k] = sign * omega_flows.At(k, 0);
  }
  result->layer_edge_masks.assign(num_layers,
                                  std::vector<double>(edges.num_layer_edges(), 0.0));
  for (int l = 0; l < num_layers; ++l) {
    for (int e = 0; e < edges.num_layer_edges(); ++e) {
      const double mask_value = masks[l].At(e, 0);
      // §IV-C: counterfactual layer-edge importance reduces to 1 - omega[e].
      result->layer_edge_masks[l][e] =
          objective == Objective::kCounterfactual ? 1.0 - mask_value : mask_value;
    }
  }
  result->edge_scores =
      flow::LayerEdgeScoresToEdgeScores(flows, edges, result->layer_edge_masks);
  result->layer_weights.resize(num_layers);
  for (int l = 0; l < num_layers; ++l) result->layer_weights[l] = layer_weights.At(l, 0);
}

void AppendRevelioAuditConfig(obs::AuditRecord* audit, const RevelioOptions& options) {
  if (audit == nullptr) return;
  audit->config.emplace_back("epochs", std::to_string(options.epochs));
  audit->config.emplace_back("learning_rate", std::to_string(options.learning_rate));
  audit->config.emplace_back("alpha", std::to_string(options.alpha));
  audit->config.emplace_back("seed", std::to_string(options.seed));
  audit->config.emplace_back("max_flows", std::to_string(options.max_flows));
  audit->config.emplace_back("prefilter_top_k", std::to_string(options.prefilter_top_k));
  audit->config.emplace_back("tanh_flow_masks", options.use_tanh_flow_masks ? "1" : "0");
}

}  // namespace

RevelioExplainer::FlowExplanation RevelioExplainer::ExplainFlows(const ExplanationTask& task,
                                                                 Objective objective) {
  FlowExplanation result;
  result.status = explain::ValidateExplanationTask(task);
  if (!result.status.ok()) return result;
  const gnn::GnnModel& model = *task.model;
  const int num_layers = model.num_layers();
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(*task.graph);
  {
    obs::ScopedSpan span("revelio.enumerate_flows");
    util::StatusOr<flow::FlowSet> flows =
        flow::EnumerateInstanceFlows(edges, task.target_node, num_layers, options_.max_flows);
    obs::AuditScope::AddPhase("enumerate_flows", span.ElapsedSeconds());
    if (!flows.ok()) {
      result.status = flows.status();
      return result;
    }
    result.flows = std::move(flows).value();
  }

  AppendRevelioAuditConfig(obs::AuditScope::Current(), options_);
  CHECK_GT(result.flows.num_flows(), 0);

  // §VI prefiltering: learn masks only for the top-k most salient flows.
  std::vector<int> kept_flows;  // indices into the FULL flow set (empty = all)
  if (options_.prefilter_top_k > 0 &&
      options_.prefilter_top_k < result.flows.num_flows()) {
    obs::ScopedSpan span("revelio.prefilter");
    const std::vector<double> saliency = InitialFlowSaliency(
        task, edges, result.flows, objective, options_.layer_scaling);
    kept_flows = flow::TopKFlows(saliency, options_.prefilter_top_k);
    result.flows = RestrictFlows(result.flows, edges, kept_flows);
    obs::AuditScope::AddPhase("prefilter", span.ElapsedSeconds());
  }
  const flow::FlowSet& flows = result.flows;

  // Learnable parameters: flow masks M and layer weights w.
  util::Rng rng(options_.seed);
  Tensor flow_mask_params = Tensor::Randn(flows.num_flows(), 1, &rng);
  for (auto& v : *flow_mask_params.mutable_values()) v *= 0.1f;
  flow_mask_params.WithRequiresGrad();
  Tensor layer_weights = Tensor::Zeros(num_layers, 1).WithRequiresGrad();

  {
    obs::ScopedSpan optimize_span("revelio.optimize");
    // Shape-stable: every epoch builds the same graph, so LearnMasks records
    // epoch 0 and replays it (DESIGN.md §12). Retained handles read this
    // epoch's values in place after a replay.
    Tensor omega_flows;
    result.status = explain::LearnMasks(
        "Revelio", {flow_mask_params, layer_weights}, options_.learning_rate, options_.epochs,
        /*replayable=*/true,
        [&](int) {
          omega_flows = options_.use_tanh_flow_masks ? tensor::Tanh(flow_mask_params)
                                                     : tensor::Sigmoid(flow_mask_params);
          std::vector<Tensor> masks =
              BuildLayerEdgeMasks(flows, omega_flows, layer_weights, options_.layer_scaling);
          Tensor logits = model.Run(*task.graph, edges, task.features, masks).logits;
          Tensor objective_loss = explain::ObjectiveLoss(logits, task, objective);
          Tensor regularizer = UsedEdgeMean(flows, masks);
          if (objective == Objective::kCounterfactual) {
            // Eq. 9 penalizes mean(1 - omega[E]).
            regularizer = tensor::AddScalar(tensor::Neg(regularizer), 1.0f);
          }
          return tensor::Add(objective_loss, tensor::MulScalar(regularizer, options_.alpha));
        },
        [&] { return explain::MeanMaskEntropy(omega_flows, options_.use_tanh_flow_masks); });
    obs::AuditScope::AddPhase("optimize", optimize_span.ElapsedSeconds());
  }
  if (!result.status.ok()) return result;

  obs::ScopedSpan extract_span("revelio.extract");
  // Final scores (detached).
  FinishFlowExplanation(edges, flow_mask_params, layer_weights, objective, options_, &result);
  obs::AuditScope::AddPhase("extract", extract_span.ElapsedSeconds());
  return result;
}

Explanation RevelioExplainer::ExplainImpl(const ExplanationTask& task, Objective objective) {
  Explanation explanation;
  FlowExplanation flow_explanation = ExplainFlows(task, objective);
  if (!flow_explanation.status.ok()) {
    explanation.status = flow_explanation.status;
    return explanation;
  }
  explanation.edge_scores = std::move(flow_explanation.edge_scores);
  explanation.has_flow_scores = true;
  explanation.flow_scores = std::move(flow_explanation.flow_scores);
  return explanation;
}

}  // namespace revelio::core
