#ifndef REVELIO_EXPLAIN_EXPLAINER_H_
#define REVELIO_EXPLAIN_EXPLAINER_H_

// Common interface for every explanation method in the paper's evaluation.
//
// An ExplanationTask packages one instance: the pretrained model, the
// instance graph (for node tasks this is the L-hop computation subgraph with
// a local target id), its features, and the class being explained (the
// model's prediction, per the paper). Every method returns per-edge
// importance scores over the instance's base edges; flow-based methods
// additionally return flow-level scores.

#include <string>
#include <vector>

#include "gnn/model.h"
#include "graph/graph.h"
#include "util/status.h"

namespace revelio::explain {

struct ExplanationTask {
  const gnn::GnnModel* model = nullptr;
  const graph::Graph* graph = nullptr;
  tensor::Tensor features;  // leaf tensor, num_nodes x feature_dim
  int target_node = -1;     // local node id for node tasks; -1 for graph tasks
  int target_class = 0;

  bool is_node_task() const { return target_node >= 0; }
  // Row of the model's logits that carries the explained prediction.
  int logit_row() const { return is_node_task() ? target_node : 0; }
};

struct Explanation {
  // Ok for a produced explanation. Batch drivers (eval::ExplainAll, the
  // serving engine) park a per-task error here — a failed task must not
  // abort its whole batch, and the slot stays index-aligned either way.
  // When !status.ok() the score vectors are empty.
  util::Status status = util::Status::Ok();

  // Importance per base edge of task.graph (higher = more important). For
  // counterfactual explanations higher still means "more important", i.e.
  // removing high-scoring edges should destroy the prediction (paper §IV-C).
  std::vector<double> edge_scores;

  // Flow-level scores (flow-based methods only), parallel to the FlowSet the
  // method enumerated. Kept here for the top-k flow study (Tables VI/VII).
  bool has_flow_scores = false;
  std::vector<double> flow_scores;
};

enum class Objective { kFactual, kCounterfactual };

const char* ObjectiveName(Objective objective);

class Explainer {
 public:
  virtual ~Explainer() = default;

  virtual std::string name() const = 0;

  // Whether the method optimizes a dedicated counterfactual objective. For
  // methods that do not (GradCAM, DeepLIFT, PGM-Explainer, SubgraphX,
  // GNN-LRP), the paper reuses their original importance scores in the
  // Fidelity+ study; callers pass kCounterfactual and the method returns its
  // standard scores.
  virtual bool supports_counterfactual() const { return false; }

  // Model-specific methods (GNN-LRP) return false for unsupported
  // architectures (paper: "GNN-LRP is not compatible with GATs"); Explain
  // answers such a task with an InvalidArgument status.
  virtual bool SupportsArch(gnn::GnnArch arch) const {
    (void)arch;
    return true;
  }

  // True when concurrent Explain() calls on this object are safe (no mutable
  // per-call state shared across calls; the model must be frozen). Methods
  // with stateful members (RandomExplainer's RNG) override to false and
  // ExplainBatch falls back to the serial per-task loop.
  virtual bool thread_safe_explain() const { return true; }

  // Shared entry point: opens the "explain.<name()>" telemetry span and
  // counts the call. A task that fails ValidateExplanationTask, or a model
  // architecture the method does not support, gets an InvalidArgument status
  // with empty scores and no audit record. Otherwise it emits one audit
  // record and dispatches to ExplainImpl. Non-virtual so every method is
  // instrumented uniformly regardless of call site.
  Explanation Explain(const ExplanationTask& task, Objective objective);

  // Batched entry point: one Explain per task, index-parallel to `tasks`; a
  // null task pointer gets InvalidArgument in its slot. When
  // thread_safe_explain() holds, tasks run side by side (util::ParallelFor,
  // grain 1): threads claim them one at a time, largest graph (num_edges)
  // first with ties in index order, so the longest instances never start
  // last. Otherwise they run serially in index order. This is the only place
  // explanation forks: each Explain runs serially on one thread, and a
  // one-task batch runs on the calling thread. Each Explain is deterministic
  // on its own, so results are bitwise-equal to the per-task loop at any
  // thread count and in any claim order.
  std::vector<Explanation> ExplainBatch(const std::vector<const ExplanationTask*>& tasks,
                                        Objective objective);

 protected:
  virtual Explanation ExplainImpl(const ExplanationTask& task, Objective objective) = 0;
};

// Validates a task before it reaches an explainer: null model/graph, an empty
// graph, a feature matrix whose shape disagrees with the graph or the model's
// input_dim, a NaN/Inf feature, or an out-of-range target node/class all
// yield kInvalidArgument instead of a CHECK-abort (or NaN scores) deep inside
// the method. Degenerate-but-valid tasks (single node, zero edges) pass.
util::Status ValidateExplanationTask(const ExplanationTask& task);

// Makes a differentiable clone of the task's feature matrix (leaf).
tensor::Tensor CloneFeatures(const ExplanationTask& task);

// Runs the model unmasked and returns P(target_class) for the task instance.
double PredictedProbability(const ExplanationTask& task);

// The model's predicted class for the task instance.
int PredictedClass(const ExplanationTask& task);

}  // namespace revelio::explain

#endif  // REVELIO_EXPLAIN_EXPLAINER_H_
