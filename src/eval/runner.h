#ifndef REVELIO_EVAL_RUNNER_H_
#define REVELIO_EVAL_RUNNER_H_

// Shared experiment harness: trains the target GNNs, selects evaluation
// instances (computation subgraphs for node tasks), constructs explainers by
// name, and runs the fidelity / AUC / runtime protocols of §V. Every bench
// binary is a thin wrapper over this module.

#include <memory>
#include <string>
#include <vector>

#include "datasets/dataset.h"
#include "explain/explainer.h"
#include "gnn/trainer.h"

namespace revelio::eval {

struct RunnerConfig {
  uint64_t seed = 1;
  int num_instances = 10;       // paper: 50 target instances per dataset
  int gnn_train_epochs = 0;     // 0 = per-dataset default (DefaultGnnTrainEpochs)
  int explainer_epochs = 100;   // learning-based explainers (paper: 500)
  int64_t max_flows = 60'000;   // skip instances whose flow count exceeds this
  int min_instance_edges = 6;   // skip degenerate subgraphs
  int pg_train_instances = 12;  // group size for amortized methods

  // Telemetry sinks (empty = disabled). Setting trace_out/metrics_out turns
  // on the obs subsystem for the run; audit_out streams one AuditRecord per
  // explanation as JSONL without requiring metrics/tracing. Bench binaries
  // inherit --trace-out/--metrics-out/--audit-out through bench_common.h.
  std::string trace_out;    // Chrome trace-event JSON
  std::string metrics_out;  // metrics snapshot JSON
  std::string audit_out;    // per-explanation audit records, JSONL
};

// A pretrained target model plus its dataset.
struct PreparedModel {
  datasets::Dataset dataset;
  gnn::GnnArch arch = gnn::GnnArch::kGcn;
  std::unique_ptr<gnn::GnnModel> model;
  gnn::TrainMetrics metrics;
};

// Pretraining epochs that land each dataset's models in the paper's Table
// III accuracy band (structure-only synthetic datasets need longer).
int DefaultGnnTrainEpochs(const std::string& dataset_name);

// Trains a 3-layer model of `arch` on `dataset_name` (paper Table III setup).
PreparedModel PrepareModel(const std::string& dataset_name, gnn::GnnArch arch,
                           const RunnerConfig& config);

// True for the paper's excluded combinations (GAT on the constant-feature
// synthetic datasets).
bool ArchSupportsDataset(gnn::GnnArch arch, const std::string& dataset_name);

// One evaluation instance. Owns its graph/features so ExplanationTask
// pointers can be constructed on demand.
struct EvalInstance {
  graph::Graph graph;
  tensor::Tensor features;
  int target_node = -1;  // local id (node tasks); -1 for graph tasks
  int target_class = 0;  // the model's prediction (the class explained)
  bool correct_prediction = false;
  bool target_in_motif = false;          // node tasks with ground truth
  std::vector<char> edge_in_motif;       // per edge of `graph` (may be empty)
  int64_t num_flows = 0;

  explain::ExplanationTask MakeTask(const gnn::GnnModel* model) const;
};

enum class InstanceFilter {
  kAny,          // paper §V-B "regardless of their labels"
  kMotifCorrect  // AUC study: motif-associated and correctly predicted
};

// Samples up to `config.num_instances` evaluation instances.
std::vector<EvalInstance> SelectInstances(const PreparedModel& prepared,
                                          const RunnerConfig& config, InstanceFilter filter);

// --- Explainer registry -------------------------------------------------------

// Paper order: GradCAM, DeepLIFT, GNNExplainer, PGExplainer, GraphMask,
// PGMExplainer, SubgraphX, GNN-LRP, FlowX, Revelio.
std::vector<std::string> AllExplainerNames();

std::unique_ptr<explain::Explainer> MakeExplainer(const std::string& name,
                                                  const RunnerConfig& config);

// True if the method needs amortized Train() over a task group before
// Explain (PGExplainer, GraphMask). TrainAmortized is a no-op otherwise;
// it returns the method's Train status (a diverged or empty training run
// leaves the objective untrained).
bool NeedsAmortizedTraining(const explain::Explainer& explainer);
util::Status TrainAmortized(explain::Explainer* explainer, const PreparedModel& prepared,
                            const std::vector<EvalInstance>& instances,
                            explain::Objective objective, const RunnerConfig& config);

// --- Protocols -----------------------------------------------------------------

// Explains every task with a shared explainer through Explainer::ExplainBatch:
// concurrently across instances when the explainer reports
// thread_safe_explain() (requires the model to be frozen, which PrepareModel
// does after training). Results are index-aligned
// with `tasks` and identical to the serial loop for any thread count. A task
// that fails ValidateExplanationTask does not abort the batch: its slot
// carries the error in Explanation::status (empty scores) and every other
// task still runs.
std::vector<explain::Explanation> ExplainAll(explain::Explainer* explainer,
                                             const std::vector<explain::ExplanationTask>& tasks,
                                             explain::Objective objective);

// Both protocols below skip an instance whose explanation failed (a non-ok
// Explanation::status, e.g. a diverged mask or an unsupported architecture)
// and count it in instances_failed; the means cover the rest. An amortized
// explainer whose training fails answers every task with an error, so all
// instances count as failed.

// Mean Fidelity-/Fidelity+ over instances for each sparsity level.
struct FidelityCurve {
  std::vector<double> sparsities;
  std::vector<double> values;
  int instances_evaluated = 0;
  int instances_failed = 0;
};

FidelityCurve RunFidelity(explain::Explainer* explainer, const PreparedModel& prepared,
                          const std::vector<EvalInstance>& instances,
                          explain::Objective objective, const std::vector<double>& sparsities);

// Mean explanation AUC against motif ground truth (Table IV protocol); 0.5
// when no instance was evaluated. Instances without ground truth are skipped
// and counted in neither field.
struct AucResult {
  double mean_auc = 0.5;
  int instances_evaluated = 0;
  int instances_failed = 0;
};

AucResult RunAuc(explain::Explainer* explainer, const PreparedModel& prepared,
                 const std::vector<EvalInstance>& instances, explain::Objective objective);

}  // namespace revelio::eval

#endif  // REVELIO_EVAL_RUNNER_H_
