#ifndef REVELIO_CORE_REVELIO_H_
#define REVELIO_CORE_REVELIO_H_

// REVELIO: learning-based message-flow explanation (paper §IV).
//
// Given a pretrained GNN and one instance, Revelio learns one mask per
// message flow (M in R^{|F|}) plus a per-layer weight vector w in R^L:
//
//   omega[F]    = tanh(M)                                   (Eq. 4)
//   omega[e^l]  = sigmoid( sum_{F through (l,e)} omega[F] * exp(w_l) )  (Eq. 5/7)
//   m_ij^l      = MSG(...) * omega[e^l]                      (Eq. 6)
//
// trained with Adam on the factual objective -log P(c | G, F-hat) (Eq. 1) or
// the counterfactual objective -log(1 - P(c | ...)) (Eq. 2), each with the
// matching sparsity regularizer over flow-carrying layer edges (Eqs. 8/9).
//
// The output is flow-level importance in (-1, 1), translated into per-layer
// edge masks and per-edge scores. Counterfactual scores follow §IV-C:
// omega'[F] = -omega[F] and omega'[e] = 1 - omega[e], so higher always means
// more important.

#include <string>
#include <vector>

#include "explain/explainer.h"
#include "flow/flow_scores.h"
#include "flow/message_flow.h"
#include "util/status.h"

namespace revelio::core {

struct RevelioOptions {
  int epochs = 150;              // paper default: 500 (use --full benches for that)
  float learning_rate = 0.01f;   // paper: 1e-2
  float alpha = 0.05f;           // sparsity strength, adapted per dataset in the paper
  int64_t max_flows = 500'000;   // feasibility cap; larger tasks yield ResourceExhausted
  uint64_t seed = 7;
  // Ablation switches (bench_ablation_design):
  bool use_tanh_flow_masks = true;    // false -> sigmoid (paper argues tanh is better)
  enum class LayerScaling { kExp, kSoftplus, kNone };
  LayerScaling layer_scaling = LayerScaling::kExp;

  // §VI future work, implemented: prefilter to the k most promising flows
  // before mask learning (0 = disabled). A single gradient pass at
  // initialization scores every flow by |d objective / d M_k|; only the
  // top-k flows' masks are then optimized (the rest score 0), cutting the
  // per-epoch O(L|F|) mask bookkeeping to O(L k).
  int prefilter_top_k = 0;
};

class RevelioExplainer : public explain::Explainer {
 public:
  explicit RevelioExplainer(const RevelioOptions& options) : options_(options) {}

  std::string name() const override { return "Revelio"; }
  bool supports_counterfactual() const override { return true; }

  // Full flow-level result, used by the qualitative studies (Tables VI/VII).
  struct FlowExplanation {
    flow::FlowSet flows;
    std::vector<double> flow_scores;  // omega[F], negated for counterfactual
    std::vector<std::vector<double>> layer_edge_masks;  // sigmoid outputs, [L][E_layer]
    std::vector<double> edge_scores;  // per base edge
    std::vector<double> layer_weights;  // learned w (length L)
    // InvalidArgument for a task that fails ValidateExplanationTask,
    // ResourceExhausted when it enumerates to more than options().max_flows
    // flows, Internal when mask learning diverged (a non-finite loss). The
    // score vectors are empty on any failure.
    util::Status status = util::Status::Ok();
  };
  FlowExplanation ExplainFlows(const explain::ExplanationTask& task,
                               explain::Objective objective);

  const RevelioOptions& options() const { return options_; }
  void set_alpha(float alpha) { options_.alpha = alpha; }

 protected:
  explain::Explanation ExplainImpl(const explain::ExplanationTask& task,
                                   explain::Objective objective) override;

 private:
  RevelioOptions options_;
};

}  // namespace revelio::core

#endif  // REVELIO_CORE_REVELIO_H_
