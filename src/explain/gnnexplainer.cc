#include "explain/gnnexplainer.h"

#include <string>

#include "explain/mask_learning.h"
#include "obs/audit.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace revelio::explain {

using tensor::Tensor;

namespace {

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
  AppendGnnExplainerAuditConfig(obs::AuditScope::Current(), options_);
  Explanation explanation;
  // A task without edges has no mask to learn and nothing to score.
  if (num_base == 0) return explanation;

  util::Rng rng(options_.seed);
  Tensor mask_params = Tensor::Randn(num_base, 1, &rng);
  for (auto& v : *mask_params.mutable_values()) v *= 0.1f;
  mask_params.WithRequiresGrad();

  obs::ScopedSpan optimize_span("gnnexplainer.optimize");
  // Shape-stable: LearnMasks records epoch 0 and replays it (DESIGN.md §12).
  Tensor base_mask;
  explanation.status = LearnMasks(
      "GNNExplainer", {mask_params}, options_.learning_rate, options_.epochs,
      /*replayable=*/true,
      [&](int) {
        base_mask = tensor::Sigmoid(mask_params);
        std::vector<Tensor> masks(model.num_layers(), ExpandBaseEdgeMask(base_mask, edges));
        Tensor logits = model.Run(*task.graph, edges, task.features, masks).logits;
        Tensor loss = ObjectiveLoss(logits, task, objective);
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
        return tensor::Add(loss, tensor::MulScalar(tensor::Mean(entropy), options_.entropy_penalty));
      },
      [&] { return MeanMaskEntropy(base_mask, /*tanh_masks=*/false); });
  obs::AuditScope::AddPhase("optimize", optimize_span.ElapsedSeconds());
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
