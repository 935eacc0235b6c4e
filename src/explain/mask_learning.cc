#include "explain/mask_learning.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/audit.h"
#include "plan/plan.h"
#include "tensor/ops.h"

namespace revelio::explain {

using tensor::Tensor;

namespace {

bool AllFinite(const Tensor& t) {
  return std::all_of(t.values().begin(), t.values().end(),
                     [](float v) { return std::isfinite(v); });
}

}  // namespace

util::Status LearnMasks(const char* method, const std::vector<Tensor>& params,
                        float learning_rate, int steps, bool replayable,
                        const std::function<Tensor(int step)>& build_loss,
                        const std::function<double()>& mask_entropy) {
  nn::Adam optimizer(params, learning_rate);
  const bool use_plan = replayable && plan::ExecPlanEnabled();
  plan::PlanSession plan_session;
  Tensor loss;
  for (int step = 0; step < steps; ++step) {
    optimizer.ZeroGrad();
    if (!use_plan || !plan_session.Replay()) {
      {
        plan::PlanSession::RecordScope record(use_plan ? &plan_session : nullptr);
        loss = build_loss(step);
      }
      loss.Backward();
      if (use_plan) plan_session.Seal(loss);
    }
    // A diverged objective (e.g. a NaN or huge learning rate) would only
    // turn into non-finite scores: stop and report it instead.
    if (!std::isfinite(loss.At(0, 0))) {
      return util::Status::Internal(std::string(method) +
                                    " mask learning diverged: non-finite loss at epoch " +
                                    std::to_string(step));
    }
    optimizer.Step();
    if (mask_entropy) {
      if (obs::AuditRecord* audit = obs::AuditScope::Current()) {
        audit->loss_curve.push_back(loss.At(0, 0));
        audit->mask_entropy.push_back(mask_entropy());
      }
    }
    // The plan path keeps the tape pinned for replay instead.
    if (!use_plan) loss.ReleaseTape();
  }
  // The last Step is not followed by a loss, so check what it left behind.
  if (!std::all_of(params.begin(), params.end(), AllFinite)) {
    return util::Status::Internal(std::string(method) +
                                  " mask learning diverged: non-finite masks after the last epoch");
  }
  return util::Status::Ok();
}

Tensor ObjectiveLoss(const Tensor& logits, const ExplanationTask& task, Objective objective) {
  return objective == Objective::kFactual
             ? nn::FactualObjective(logits, task.logit_row(), task.target_class)
             : nn::CounterfactualObjective(logits, task.logit_row(), task.target_class);
}

Tensor ExpandBaseEdgeMask(const Tensor& base_mask, const gnn::LayerEdgeSet& edges) {
  std::vector<int> base_indices(edges.num_base_edges);
  std::iota(base_indices.begin(), base_indices.end(), 0);
  Tensor expanded = tensor::ScatterAddRows(base_mask, base_indices, edges.num_layer_edges());
  std::vector<float> self_ones(edges.num_layer_edges(), 0.0f);
  for (int e = edges.num_base_edges; e < edges.num_layer_edges(); ++e) self_ones[e] = 1.0f;
  return tensor::Add(expanded, Tensor::FromVector(self_ones));
}

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

}  // namespace revelio::explain
