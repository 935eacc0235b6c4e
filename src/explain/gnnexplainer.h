#ifndef REVELIO_EXPLAIN_GNNEXPLAINER_H_
#define REVELIO_EXPLAIN_GNNEXPLAINER_H_

// GNNExplainer (Ying et al. 2019): learns a single sigmoid edge mask shared
// across all GNN layers, optimizing mutual information between the masked
// prediction and the explained class, with size and entropy regularizers.
// For the counterfactual study the mask is trained with the paper's Eq. (2)
// objective and the importance of an edge is 1 - mask (removed = necessary).

#include "explain/explainer.h"

namespace revelio::explain {

struct GnnExplainerOptions {
  int epochs = 150;            // paper setup: 500
  float learning_rate = 0.01f; // paper setup: 1e-2
  float size_penalty = 0.005f;
  float entropy_penalty = 0.1f;
  uint64_t seed = 11;
};

class GnnExplainerMethod : public Explainer {
 public:
  explicit GnnExplainerMethod(const GnnExplainerOptions& options) : options_(options) {}

  std::string name() const override { return "GNNExplainer"; }
  bool supports_counterfactual() const override { return true; }

  Explanation ExplainImpl(const ExplanationTask& task, Objective objective) override;

 private:
  GnnExplainerOptions options_;
};

}  // namespace revelio::explain

#endif  // REVELIO_EXPLAIN_GNNEXPLAINER_H_
