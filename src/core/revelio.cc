#include "core/revelio.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/audit.h"
#include "obs/trace.h"
#include "plan/plan.h"
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
  Tensor loss = objective == Objective::kFactual
                    ? nn::FactualObjective(logits, task.logit_row(), task.target_class)
                    : nn::CounterfactualObjective(logits, task.logit_row(), task.target_class);
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

// Mean binary entropy (nats) of the mask probabilities in omega. Tanh masks live in [-1, 1] and map to p = (v + 1) / 2; p is
// clamped away from {0, 1} so the entropy stays finite once masks saturate.
// Audit-only readout: every access is a detached read of trained values.
double MeanMaskEntropy(const Tensor& omega, bool tanh_masks) {
  const int rows = omega.rows();
  if (rows == 0) return 0.0;
  double total = 0.0;
  for (int k = 0; k < rows; ++k) {
    double p = omega.At(k, 0);
    if (tanh_masks) p = 0.5 * (p + 1.0);
    p = std::min(1.0 - 1e-12, std::max(1e-12, p));
    total += -p * std::log(p) - (1.0 - p) * std::log(1.0 - p);
  }
  return total / static_cast<double>(rows);
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

// The task's flows under the max_flows budget (ResourceExhausted above it).
util::StatusOr<flow::FlowSet> EnumerateTaskFlows(const ExplanationTask& task,
                                                 const gnn::LayerEdgeSet& edges,
                                                 int64_t max_flows) {
  obs::ScopedSpan span("revelio.enumerate_flows");
  util::StatusOr<flow::FlowSet> flows = flow::EnumerateInstanceFlows(
      edges, task.target_node, task.model->num_layers(), max_flows);
  obs::AuditScope::AddPhase("enumerate_flows", span.ElapsedSeconds());
  return flows;
}

}  // namespace

RevelioExplainer::FlowExplanation RevelioExplainer::ExplainFlows(const ExplanationTask& task,
                                                                 Objective objective) {
  CHECK(task.model != nullptr && task.graph != nullptr);
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(*task.graph);
  util::StatusOr<flow::FlowSet> flows = EnumerateTaskFlows(task, edges, options_.max_flows);
  CHECK(flows.ok()) << flows.status().ToString();
  return ExplainEnumerated(task, edges, std::move(flows).value(), objective);
}

RevelioExplainer::FlowExplanation RevelioExplainer::ExplainEnumerated(
    const ExplanationTask& task, const gnn::LayerEdgeSet& edges, flow::FlowSet enumerated,
    Objective objective) {
  const gnn::GnnModel& model = *task.model;
  const int num_layers = model.num_layers();

  AppendRevelioAuditConfig(obs::AuditScope::Current(), options_);

  FlowExplanation result;
  result.flows = std::move(enumerated);
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

  nn::Adam optimizer({flow_mask_params, layer_weights}, options_.learning_rate);
  const int logit_row = task.logit_row();

  {
    obs::ScopedSpan optimize_span("revelio.optimize");
    // Recorded execution plan (DESIGN.md §12): epoch 0 records the op tape
    // while running eagerly; later epochs replay it (fused + level-parallel,
    // allocation-free) with bitwise-identical results. Retained handles read
    // this epoch's values in place after a replay.
    const bool use_plan = plan::ExecPlanEnabled();
    plan::PlanSession plan_session;
    auto make_key = [&] {
      return plan::PlanKey{{task.graph->structure_version(),
                            static_cast<uint64_t>(flows.num_flows()),
                            static_cast<uint64_t>(num_layers),
                            static_cast<uint64_t>(task.features.rows()),
                            static_cast<uint64_t>(task.features.cols()),
                            static_cast<uint64_t>(logit_row),
                            static_cast<uint64_t>(task.target_class),
                            static_cast<uint64_t>(objective == Objective::kFactual ? 1 : 0),
                            static_cast<uint64_t>(options_.use_tanh_flow_masks ? 1 : 0),
                            static_cast<uint64_t>(options_.layer_scaling)}};
    };
    Tensor omega_flows;
    Tensor loss;
    for (int epoch = 0; epoch < options_.epochs; ++epoch) {
      optimizer.ZeroGrad();
      const bool replayed = use_plan && plan_session.Replay(make_key());
      if (!replayed) {
        {
          plan::PlanSession::RecordScope record(use_plan ? &plan_session : nullptr);
          omega_flows = options_.use_tanh_flow_masks ? tensor::Tanh(flow_mask_params)
                                                     : tensor::Sigmoid(flow_mask_params);
          std::vector<Tensor> masks =
              BuildLayerEdgeMasks(flows, omega_flows, layer_weights, options_.layer_scaling);
          Tensor logits = model.Run(*task.graph, edges, task.features, masks).logits;

          Tensor objective_loss =
              objective == Objective::kFactual
                  ? nn::FactualObjective(logits, logit_row, task.target_class)
                  : nn::CounterfactualObjective(logits, logit_row, task.target_class);
          Tensor regularizer = UsedEdgeMean(flows, masks);
          if (objective == Objective::kCounterfactual) {
            // Eq. 9 penalizes mean(1 - omega[E]).
            regularizer = tensor::AddScalar(tensor::Neg(regularizer), 1.0f);
          }
          loss = tensor::Add(objective_loss, tensor::MulScalar(regularizer, options_.alpha));
        }
        loss.Backward();
        if (use_plan) plan_session.Seal(loss, make_key());
      }
      // A diverged objective (e.g. a NaN or huge learning rate) would only
      // turn into non-finite scores: stop and report it instead.
      if (!std::isfinite(loss.At(0, 0))) {
        result.status = util::Status::Internal(
            "Revelio mask learning diverged: non-finite loss at epoch " + std::to_string(epoch));
        break;
      }
      optimizer.Step();
      if (obs::AuditRecord* audit = obs::AuditScope::Current()) {
        audit->loss_curve.push_back(loss.At(0, 0));
        audit->mask_entropy.push_back(
            MeanMaskEntropy(omega_flows, options_.use_tanh_flow_masks));
      }
      // Eager path: free this epoch's intermediates. The plan path instead
      // keeps the tape pinned for replay.
      if (!use_plan) loss.ReleaseTape();
    }
    obs::AuditScope::AddPhase("optimize", optimize_span.ElapsedSeconds());
  }
  // The last Step is not followed by a loss, so check what it left behind.
  if (result.status.ok()) {
    if (!explain::AllFinite(flow_mask_params) || !explain::AllFinite(layer_weights)) {
      result.status = util::Status::Internal(
          "Revelio mask learning diverged: non-finite masks after the last epoch");
    }
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
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(*task.graph);
  util::StatusOr<flow::FlowSet> flows = EnumerateTaskFlows(task, edges, options_.max_flows);
  if (!flows.ok()) {
    explanation.status = flows.status();
    return explanation;
  }
  FlowExplanation flow_explanation =
      ExplainEnumerated(task, edges, std::move(flows).value(), objective);
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
