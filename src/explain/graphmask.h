#ifndef REVELIO_EXPLAIN_GRAPHMASK_H_
#define REVELIO_EXPLAIN_GRAPHMASK_H_

// GraphMask (Schlichtkrull et al. 2021): per-layer differentiable gates. A
// gate MLP per GNN layer maps the endpoint embeddings entering that layer to
// a keep-probability for each edge, trained amortized over a group of
// instances with a sparsity penalty. Simplification vs. the original (noted
// in DESIGN.md): hard-concrete sampling and the learned baseline message are
// replaced by a deterministic sigmoid gate that multiplies the message —
// i.e. the shared Eq. 6 mask hook.

#include <memory>
#include <vector>

#include "explain/explainer.h"
#include "nn/linear.h"

namespace revelio::explain {

struct GraphMaskOptions {
  int train_epochs = 10;          // paper setup: 200 epochs, lr 1e-2
  float learning_rate = 0.01f;
  float sparsity_penalty = 0.05f;
  int mlp_hidden = 32;
  uint64_t seed = 17;
};

class GraphMaskExplainer : public Explainer {
 public:
  explicit GraphMaskExplainer(const GraphMaskOptions& options);
  ~GraphMaskExplainer() override;

  std::string name() const override { return "GraphMask"; }
  bool supports_counterfactual() const override { return true; }

  // Amortized training over a group of instances, one set of gates per
  // objective; must succeed before Explain, which otherwise answers
  // FailedPrecondition. Returns InvalidArgument for no tasks and Internal
  // when training diverges (the objective then stays untrained).
  util::Status Train(const std::vector<ExplanationTask>& tasks, Objective objective);
  bool is_trained(Objective objective) const;

  Explanation ExplainImpl(const ExplanationTask& task, Objective objective) override;

 private:
  struct LayerGates;

  // Per-layer gate tensors over layer edges (self-loops pinned to 1).
  std::vector<tensor::Tensor> LayerMasks(const LayerGates& gates, const ExplanationTask& task,
                                         const gnn::LayerEdgeSet& edges) const;

  GraphMaskOptions options_;
  std::unique_ptr<LayerGates> factual_gates_;
  std::unique_ptr<LayerGates> counterfactual_gates_;
};

}  // namespace revelio::explain

#endif  // REVELIO_EXPLAIN_GRAPHMASK_H_
