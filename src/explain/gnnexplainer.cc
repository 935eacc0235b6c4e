#include "explain/gnnexplainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/audit.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "tensor/ops.h"

namespace revelio::explain {

using tensor::Tensor;

namespace {

// Expands a sigmoid base-edge mask (E_base x 1) to the layer-edge list with
// self-loops pinned at 1 (GNNExplainer does not mask self-information).
Tensor ExpandToLayerEdges(const Tensor& base_mask, const gnn::LayerEdgeSet& edges) {
  std::vector<int> base_indices(edges.num_base_edges);
  std::iota(base_indices.begin(), base_indices.end(), 0);
  Tensor expanded = tensor::ScatterAddRows(base_mask, base_indices, edges.num_layer_edges());
  std::vector<float> self_ones(edges.num_layer_edges(), 0.0f);
  for (int e = edges.num_base_edges; e < edges.num_layer_edges(); ++e) self_ones[e] = 1.0f;
  return tensor::Add(expanded, Tensor::FromVector(self_ones));
}

// Mean binary entropy (nats) of the sigmoid mask rows, clamped away from
// {0, 1} so saturated masks stay finite. Audit-only readout.
double MeanSigmoidMaskEntropy(const Tensor& mask) {
  const int rows = mask.rows();
  if (rows == 0) return 0.0;
  double total = 0.0;
  for (int e = 0; e < rows; ++e) {
    const double p =
        std::min(1.0 - 1e-12, std::max(1e-12, static_cast<double>(mask.At(e, 0))));
    total += -p * std::log(p) - (1.0 - p) * std::log(1.0 - p);
  }
  return total / static_cast<double>(rows);
}

void AppendGnnExplainerAuditConfig(obs::AuditRecord* audit, const GnnExplainerOptions& options) {
  if (audit == nullptr) return;
  audit->config.emplace_back("epochs", std::to_string(options.epochs));
  audit->config.emplace_back("learning_rate", std::to_string(options.learning_rate));
  audit->config.emplace_back("size_penalty", std::to_string(options.size_penalty));
  audit->config.emplace_back("entropy_penalty", std::to_string(options.entropy_penalty));
  audit->config.emplace_back("seed", std::to_string(options.seed));
}

}  // namespace

Explanation GnnExplainerMethod::ExplainImpl(const ExplanationTask& task, Objective objective) {
  const gnn::GnnModel& model = *task.model;
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(*task.graph);
  const int num_base = edges.num_base_edges;
  CHECK_GT(num_base, 0);

  util::Rng rng(options_.seed);
  Tensor mask_params = Tensor::Randn(num_base, 1, &rng);
  for (auto& v : *mask_params.mutable_values()) v *= 0.1f;
  mask_params.WithRequiresGrad();
  nn::Adam optimizer({mask_params}, options_.learning_rate);
  AppendGnnExplainerAuditConfig(obs::AuditScope::Current(), options_);

  obs::ScopedSpan optimize_span("gnnexplainer.optimize");
  // Recorded execution plan (DESIGN.md §12): epoch 0 records while running
  // eagerly; later epochs replay the tape bitwise-identically.
  const bool use_plan = plan::ExecPlanEnabled();
  plan::PlanSession plan_session;
  auto make_key = [&] {
    return plan::PlanKey{{task.graph->structure_version(),
                          static_cast<uint64_t>(num_base),
                          static_cast<uint64_t>(task.features.rows()),
                          static_cast<uint64_t>(task.features.cols()),
                          static_cast<uint64_t>(task.logit_row()),
                          static_cast<uint64_t>(task.target_class),
                          static_cast<uint64_t>(objective == Objective::kFactual ? 1 : 0)}};
  };
  Explanation explanation;
  Tensor base_mask;
  Tensor loss;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    optimizer.ZeroGrad();
    const bool replayed = use_plan && plan_session.Replay(make_key());
    if (!replayed) {
      {
        plan::PlanSession::RecordScope record(use_plan ? &plan_session : nullptr);
        base_mask = tensor::Sigmoid(mask_params);
        Tensor layer_mask = ExpandToLayerEdges(base_mask, edges);
        std::vector<Tensor> masks(model.num_layers(), layer_mask);
        Tensor logits = model.Run(*task.graph, edges, task.features, masks).logits;

        loss = objective == Objective::kFactual
                   ? nn::FactualObjective(logits, task.logit_row(), task.target_class)
                   : nn::CounterfactualObjective(logits, task.logit_row(), task.target_class);
        // Size regularizer: keep the kept-edge set small (factual) or the
        // removed-edge set small (counterfactual).
        Tensor size_term = objective == Objective::kFactual
                               ? tensor::Mean(base_mask)
                               : tensor::Mean(tensor::AddScalar(tensor::Neg(base_mask), 1.0f));
        loss = tensor::Add(loss, tensor::MulScalar(size_term, options_.size_penalty));
        // Element-wise entropy pushes masks toward binary values.
        Tensor entropy = tensor::Neg(tensor::Add(
            tensor::Mul(base_mask, tensor::Log(base_mask)),
            tensor::Mul(tensor::AddScalar(tensor::Neg(base_mask), 1.0f),
                        tensor::Log(tensor::AddScalar(tensor::Neg(base_mask), 1.0f)))));
        loss =
            tensor::Add(loss, tensor::MulScalar(tensor::Mean(entropy), options_.entropy_penalty));
      }
      loss.Backward();
      if (use_plan) plan_session.Seal(loss, make_key());
    }
    // A diverged objective (e.g. a huge learning rate) would only turn into
    // NaN edge scores: stop and report it instead.
    if (!std::isfinite(loss.At(0, 0))) {
      explanation.status = util::Status::Internal(
          "GNNExplainer mask learning diverged: non-finite loss at epoch " +
          std::to_string(epoch));
      break;
    }
    optimizer.Step();
    if (obs::AuditRecord* audit = obs::AuditScope::Current()) {
      audit->loss_curve.push_back(loss.At(0, 0));
      audit->mask_entropy.push_back(MeanSigmoidMaskEntropy(base_mask));
    }
    // Eager path: free each epoch's intermediates (the plan path keeps the
    // tape pinned for replay instead).
    if (!use_plan) loss.ReleaseTape();
  }
  obs::AuditScope::AddPhase("optimize", optimize_span.ElapsedSeconds());
  // The last Step is not followed by a loss, so check what it left behind.
  if (explanation.status.ok() && !AllFinite(mask_params)) {
    explanation.status = util::Status::Internal(
        "GNNExplainer mask learning diverged: non-finite masks after the last epoch");
  }
  if (!explanation.status.ok()) return explanation;

  explanation.edge_scores.resize(num_base);
  Tensor final_mask = tensor::Sigmoid(mask_params);
  for (int e = 0; e < num_base; ++e) {
    const double value = final_mask.At(e, 0);
    explanation.edge_scores[e] = objective == Objective::kFactual ? value : 1.0 - value;
  }
  return explanation;
}

}  // namespace revelio::explain
