#ifndef REVELIO_EXPLAIN_MASK_LEARNING_H_
#define REVELIO_EXPLAIN_MASK_LEARNING_H_

// The one mask-learning loop. Revelio (paper §IV, Eqs. 8/9), GNNExplainer,
// FlowX, PGExplainer and GraphMask all learn their masks (or the gate
// networks that emit them) by running Adam over a scalar loss for a fixed
// number of steps. LearnMasks owns that loop; each explainer only says how to
// build one step's loss. This is also the one place where explainers meet
// recorded execution plans (DESIGN.md §12).

#include <functional>
#include <vector>

#include "explain/explainer.h"
#include "gnn/layer_edges.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace revelio::explain {

// Runs `steps` Adam steps (learning rate `learning_rate`) over `params`.
// Each step zeroes the gradients, obtains the loss, backpropagates, checks
// the loss is finite and steps the optimizer; after the last step every
// parameter must be finite.
//
// `build_loss(step)` builds the scalar loss of step `step` eagerly. When
// `replayable` holds (the loss graph is the same at every step: only
// parameter values change) and plan::ExecPlanEnabled(), step 0 records the
// forward into a plan session that lives for this call, and later steps
// replay it in place instead of calling `build_loss` — bitwise-identical to
// the eager loop. Tensors the closure keeps in captured handles therefore
// read the current step's values after a replay. Eager steps free their tape
// after the optimizer step.
//
// `mask_entropy`, when set, is called after each step with an audit scope
// open; its value goes to the record's mask_entropy curve next to the loss.
//
// A non-finite loss (checked every step) or parameter (checked after the
// last step) returns Internal("<method> mask learning diverged: ...").
util::Status LearnMasks(const char* method, const std::vector<tensor::Tensor>& params,
                        float learning_rate, int steps, bool replayable,
                        const std::function<tensor::Tensor(int step)>& build_loss,
                        const std::function<double()>& mask_entropy = nullptr);

// The paper's objective for `objective` (Eq. 1 factual, Eq. 2
// counterfactual) on the task's explained logit row and class.
tensor::Tensor ObjectiveLoss(const tensor::Tensor& logits, const ExplanationTask& task,
                             Objective objective);

// Scatters a base-edge mask (E_base x 1) onto the layer-edge list with every
// self-loop pinned at 1: the edge-mask methods do not mask self-information.
tensor::Tensor ExpandBaseEdgeMask(const tensor::Tensor& base_mask,
                                  const gnn::LayerEdgeSet& edges);

// Mean binary entropy (nats) of the mask probabilities in `omega` (one per
// row). Tanh masks live in [-1, 1] and map to p = (v + 1) / 2; p is clamped
// away from {0, 1} so the entropy stays finite once masks saturate. A
// detached read, for audit curves.
double MeanMaskEntropy(const tensor::Tensor& omega, bool tanh_masks);

}  // namespace revelio::explain

#endif  // REVELIO_EXPLAIN_MASK_LEARNING_H_
