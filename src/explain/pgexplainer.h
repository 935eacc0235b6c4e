#ifndef REVELIO_EXPLAIN_PGEXPLAINER_H_
#define REVELIO_EXPLAIN_PGEXPLAINER_H_

// PGExplainer (Luo et al. 2020): a group-level method. A shared MLP maps the
// pretrained model's final node embeddings of an edge's endpoints (plus the
// target node's embedding for node tasks) to an edge importance logit. The
// MLP is trained once over a set of instances; per-instance explanation is a
// single inference pass (hence the paper's "training (inference)" split in
// Table V). This implementation uses the deterministic sigmoid relaxation of
// the concrete distribution.

#include <memory>
#include <vector>

#include "explain/explainer.h"
#include "nn/linear.h"

namespace revelio::explain {

struct PgExplainerOptions {
  int train_epochs = 20;          // epochs over the training instances
  float learning_rate = 0.003f;   // paper setup: 3e-3
  float size_penalty = 0.05f;
  int mlp_hidden = 64;
  uint64_t seed = 13;
};

class PgExplainer : public Explainer {
 public:
  explicit PgExplainer(const PgExplainerOptions& options);
  ~PgExplainer() override;  // out-of-line: GateNet is incomplete here

  std::string name() const override { return "PGExplainer"; }
  bool supports_counterfactual() const override { return true; }

  // Amortized training over a group of instances; must succeed before
  // Explain, which otherwise answers FailedPrecondition. Objectives are
  // trained separately (one gate MLP each). Returns InvalidArgument for no
  // tasks and Internal when training diverges (the objective then stays
  // untrained).
  util::Status Train(const std::vector<ExplanationTask>& tasks, Objective objective);

  bool is_trained(Objective objective) const;
  double last_train_seconds(Objective objective) const;

  Explanation ExplainImpl(const ExplanationTask& task, Objective objective) override;

 private:
  struct GateNet;  // MLP over edge-endpoint (and target) embeddings

  // Edge logits (E_base x 1, differentiable through the gate net only).
  tensor::Tensor EdgeLogits(const GateNet& net, const ExplanationTask& task,
                            const gnn::LayerEdgeSet& edges) const;

  PgExplainerOptions options_;
  std::unique_ptr<GateNet> factual_net_;
  std::unique_ptr<GateNet> counterfactual_net_;
  double factual_train_seconds_ = 0.0;
  double counterfactual_train_seconds_ = 0.0;
};

}  // namespace revelio::explain

#endif  // REVELIO_EXPLAIN_PGEXPLAINER_H_
