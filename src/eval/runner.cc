#include "eval/runner.h"

#include <algorithm>

#include "core/revelio.h"
#include "eval/metrics.h"
#include "explain/deeplift.h"
#include "explain/flowx.h"
#include "explain/gnnexplainer.h"
#include "explain/gnnlrp.h"
#include "explain/gradcam.h"
#include "explain/graphmask.h"
#include "explain/pgexplainer.h"
#include "explain/pgm_explainer.h"
#include "explain/random_explainer.h"
#include "explain/subgraphx.h"
#include "flow/message_flow.h"
#include "graph/subgraph.h"
#include "nn/loss.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace revelio::eval {

using explain::ExplanationTask;
using explain::Objective;

int DefaultGnnTrainEpochs(const std::string& dataset_name) {
  // Constant-feature synthetic benchmarks learn from structure alone and
  // need more epochs to reach the paper's accuracy band.
  if (dataset_name == "ba_shapes" || dataset_name == "tree_cycles") return 500;
  if (dataset_name == "ba_2motifs") return 300;
  if (dataset_name == "mutag_like" || dataset_name == "bbbp_like") return 100;
  return 150;  // citation-like node classification
}

PreparedModel PrepareModel(const std::string& dataset_name, gnn::GnnArch arch,
                           const RunnerConfig& config) {
  obs::ScopedSpan span("eval.PrepareModel");
  PreparedModel prepared;
  prepared.dataset = datasets::MakeDataset(dataset_name, config.seed);
  prepared.arch = arch;

  gnn::GnnConfig model_config;
  model_config.arch = arch;
  model_config.task = prepared.dataset.task;
  model_config.input_dim = prepared.dataset.feature_dim;
  model_config.hidden_dim = 32;
  model_config.num_classes = prepared.dataset.num_classes;
  model_config.num_layers = 3;
  model_config.num_heads = 8;
  // Symmetric normalization suppresses the count/structure signals the
  // graph-classification benchmarks are built on (constant features on
  // BA-2motifs; identical-composition motifs on the molecule substitutes),
  // so GCN targets use plain-sum aggregation there — matching PGExplainer's
  // original unnormalized BA-2motifs GCN. Node tasks keep symmetric norm.
  model_config.gcn_normalize =
      prepared.dataset.task == gnn::TaskType::kNodeClassification;
  model_config.seed = config.seed + 1000;
  prepared.model = std::make_unique<gnn::GnnModel>(model_config);

  gnn::TrainConfig train_config;
  train_config.epochs = config.gnn_train_epochs > 0 ? config.gnn_train_epochs
                                                    : DefaultGnnTrainEpochs(dataset_name);
  util::Rng split_rng(config.seed + 7);
  if (prepared.dataset.is_node_task()) {
    const auto& instance = prepared.dataset.instances[0];
    const gnn::Split split =
        gnn::MakeSplit(instance.graph.num_nodes(), 0.8, 0.1, &split_rng);
    prepared.metrics = gnn::TrainNodeModel(prepared.model.get(), instance.graph,
                                           instance.features, instance.labels, split,
                                           train_config);
  } else {
    const gnn::Split split =
        gnn::MakeSplit(prepared.dataset.num_graphs(), 0.8, 0.1, &split_rng);
    prepared.metrics =
        gnn::TrainGraphModel(prepared.model.get(), prepared.dataset.instances, split,
                             train_config);
  }
  // Evaluation only reads the weights from here on. Freezing them keeps
  // explainer backward passes off the shared weight grad buffers, which is
  // what makes concurrent per-instance explanation (ExplainAll) race-free.
  prepared.model->Freeze();
  return prepared;
}

bool ArchSupportsDataset(gnn::GnnArch arch, const std::string& dataset_name) {
  if (arch != gnn::GnnArch::kGat) return true;
  // Paper: "GATs do not work on synthetic datasets" (constant features give
  // degenerate attention).
  return dataset_name != "ba_shapes" && dataset_name != "tree_cycles" &&
         dataset_name != "ba_2motifs";
}

ExplanationTask EvalInstance::MakeTask(const gnn::GnnModel* model) const {
  ExplanationTask task;
  task.model = model;
  task.graph = &graph;
  task.features = features;
  task.target_node = target_node;
  task.target_class = target_class;
  return task;
}

std::vector<EvalInstance> SelectInstances(const PreparedModel& prepared,
                                          const RunnerConfig& config, InstanceFilter filter) {
  obs::ScopedSpan span("eval.SelectInstances");
  util::Rng rng(config.seed + 31);
  const gnn::GnnModel& model = *prepared.model;
  const datasets::Dataset& dataset = prepared.dataset;
  std::vector<EvalInstance> selected;

  if (dataset.is_node_task()) {
    const auto& instance = dataset.instances[0];
    std::vector<int> candidates(instance.graph.num_nodes());
    for (int v = 0; v < instance.graph.num_nodes(); ++v) candidates[v] = v;
    rng.Shuffle(&candidates);
    for (int v : candidates) {
      if (static_cast<int>(selected.size()) >= config.num_instances) break;
      if (filter == InstanceFilter::kMotifCorrect &&
          (!dataset.has_ground_truth || !dataset.node_in_motif[0][v])) {
        continue;
      }
      graph::Subgraph sub =
          graph::ExtractKHopInSubgraph(instance.graph, v, model.num_layers());
      if (sub.graph.num_edges() < config.min_instance_edges) continue;
      const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(sub.graph);
      const int64_t flow_count =
          flow::CountFlowsToTarget(edges, sub.target_local, model.num_layers());
      if (flow_count > config.max_flows) continue;

      EvalInstance eval_instance;
      eval_instance.features = graph::SliceRows(instance.features, sub.node_map);
      eval_instance.target_node = sub.target_local;
      eval_instance.num_flows = flow_count;
      if (dataset.has_ground_truth) {
        eval_instance.target_in_motif = dataset.node_in_motif[0][v];
        eval_instance.edge_in_motif.resize(sub.graph.num_edges());
        for (int e = 0; e < sub.graph.num_edges(); ++e) {
          eval_instance.edge_in_motif[e] = dataset.edge_in_motif[0][sub.edge_map[e]];
        }
      }
      eval_instance.graph = std::move(sub.graph);
      // Model prediction on the computation subgraph (the instance "G").
      const tensor::Tensor logits =
          model.Logits(eval_instance.graph, eval_instance.features);
      eval_instance.target_class = nn::ArgmaxRow(logits, eval_instance.target_node);
      eval_instance.correct_prediction =
          eval_instance.target_class == instance.labels[v];
      if (filter == InstanceFilter::kMotifCorrect && !eval_instance.correct_prediction) {
        continue;
      }
      selected.push_back(std::move(eval_instance));
    }
  } else {
    std::vector<int> candidates(dataset.num_graphs());
    for (int g = 0; g < dataset.num_graphs(); ++g) candidates[g] = g;
    rng.Shuffle(&candidates);
    for (int g : candidates) {
      if (static_cast<int>(selected.size()) >= config.num_instances) break;
      const auto& instance = dataset.instances[g];
      if (instance.graph.num_edges() < config.min_instance_edges) continue;
      const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(instance.graph);
      const int64_t flow_count = flow::CountAllFlows(edges, model.num_layers());
      if (flow_count > config.max_flows) continue;

      EvalInstance eval_instance;
      eval_instance.graph = instance.graph;
      eval_instance.features = instance.features;
      eval_instance.num_flows = flow_count;
      if (dataset.has_ground_truth) {
        eval_instance.edge_in_motif = dataset.edge_in_motif[g];
        eval_instance.target_in_motif = true;
      }
      const tensor::Tensor logits = model.Logits(eval_instance.graph, eval_instance.features);
      eval_instance.target_class = nn::ArgmaxRow(logits, 0);
      eval_instance.correct_prediction = eval_instance.target_class == instance.labels[0];
      if (filter == InstanceFilter::kMotifCorrect && !eval_instance.correct_prediction) {
        continue;
      }
      selected.push_back(std::move(eval_instance));
    }
  }
  return selected;
}

std::vector<std::string> AllExplainerNames() {
  return {"GradCAM",      "DeepLIFT",  "GNNExplainer", "PGExplainer", "GraphMask",
          "PGMExplainer", "SubgraphX", "GNN-LRP",      "FlowX",       "Revelio"};
}

std::unique_ptr<explain::Explainer> MakeExplainer(const std::string& name,
                                                  const RunnerConfig& config) {
  if (name == "GradCAM") return std::make_unique<explain::GradCamExplainer>();
  if (name == "DeepLIFT") return std::make_unique<explain::DeepLiftExplainer>();
  if (name == "Random") return std::make_unique<explain::RandomExplainer>(config.seed + 41);
  if (name == "GNNExplainer") {
    explain::GnnExplainerOptions options;
    options.epochs = config.explainer_epochs;
    return std::make_unique<explain::GnnExplainerMethod>(options);
  }
  if (name == "PGExplainer") {
    explain::PgExplainerOptions options;
    options.train_epochs = std::max(5, config.explainer_epochs / 10);
    return std::make_unique<explain::PgExplainer>(options);
  }
  if (name == "GraphMask") {
    explain::GraphMaskOptions options;
    options.train_epochs = std::max(4, config.explainer_epochs / 20);
    return std::make_unique<explain::GraphMaskExplainer>(options);
  }
  if (name == "PGMExplainer") {
    explain::PgmExplainerOptions options;
    return std::make_unique<explain::PgmExplainer>(options);
  }
  if (name == "SubgraphX") {
    explain::SubgraphXOptions options;
    return std::make_unique<explain::SubgraphXExplainer>(options);
  }
  if (name == "GNN-LRP") {
    explain::GnnLrpOptions options;
    options.max_flows = config.max_flows;
    return std::make_unique<explain::GnnLrpExplainer>(options);
  }
  if (name == "FlowX") {
    explain::FlowXOptions options;
    options.learning_epochs = config.explainer_epochs;
    options.max_flows = config.max_flows;
    return std::make_unique<explain::FlowXExplainer>(options);
  }
  if (name == "Revelio") {
    core::RevelioOptions options;
    options.epochs = config.explainer_epochs;
    options.max_flows = config.max_flows;
    return std::make_unique<core::RevelioExplainer>(options);
  }
  CHECK(false) << "unknown explainer: " << name;
  return nullptr;
}

bool NeedsAmortizedTraining(const explain::Explainer& explainer) {
  return explainer.name() == "PGExplainer" || explainer.name() == "GraphMask";
}

util::Status TrainAmortized(explain::Explainer* explainer, const PreparedModel& prepared,
                            const std::vector<EvalInstance>& instances, Objective objective,
                            const RunnerConfig& config) {
  if (!NeedsAmortizedTraining(*explainer)) return util::Status::Ok();
  obs::ScopedSpan span("eval.TrainAmortized");
  std::vector<ExplanationTask> tasks;
  const int count = std::min<int>(config.pg_train_instances,
                                  static_cast<int>(instances.size()));
  tasks.reserve(count);
  for (int i = 0; i < count; ++i) {
    tasks.push_back(instances[i].MakeTask(prepared.model.get()));
  }
  if (auto* pg = dynamic_cast<explain::PgExplainer*>(explainer)) {
    if (!pg->is_trained(objective)) return pg->Train(tasks, objective);
  } else if (auto* gm = dynamic_cast<explain::GraphMaskExplainer*>(explainer)) {
    if (!gm->is_trained(objective)) return gm->Train(tasks, objective);
  }
  return util::Status::Ok();
}

std::vector<explain::Explanation> ExplainAll(explain::Explainer* explainer,
                                             const std::vector<ExplanationTask>& tasks,
                                             Objective objective) {
  obs::ScopedSpan span("eval.ExplainAll");
  // Explain validates each task, so an invalid one gets its error parked in
  // its (index-aligned) slot instead of aborting the whole batch.
  std::vector<const ExplanationTask*> pointers;
  pointers.reserve(tasks.size());
  for (const ExplanationTask& task : tasks) pointers.push_back(&task);
  return explainer->ExplainBatch(pointers, objective);
}

namespace {

// Trains an amortized explainer with the default group size unless it is
// trained already. A failed training run leaves the objective untrained, so
// every explanation then fails and is counted, not aborted on.
void EnsureAmortizedTrained(explain::Explainer* explainer, const PreparedModel& prepared,
                            const std::vector<EvalInstance>& instances, Objective objective) {
  const util::Status trained =
      TrainAmortized(explainer, prepared, instances, objective, RunnerConfig{});
  if (!trained.ok()) LOG_WARNING << explainer->name() << ": " << trained.ToString();
}

}  // namespace

FidelityCurve RunFidelity(explain::Explainer* explainer, const PreparedModel& prepared,
                          const std::vector<EvalInstance>& instances, Objective objective,
                          const std::vector<double>& sparsities) {
  obs::ScopedSpan span("eval.RunFidelity");
  FidelityCurve curve;
  curve.sparsities = sparsities;
  curve.values.assign(sparsities.size(), 0.0);
  EnsureAmortizedTrained(explainer, prepared, instances, objective);
  std::vector<ExplanationTask> tasks;
  tasks.reserve(instances.size());
  for (const EvalInstance& instance : instances) {
    tasks.push_back(instance.MakeTask(prepared.model.get()));
  }
  const std::vector<explain::Explanation> explanations =
      ExplainAll(explainer, tasks, objective);
  // Serial reduction in instance order: parallel explanation changes neither
  // the per-instance values nor the order they are summed in.
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!explanations[i].status.ok()) {
      ++curve.instances_failed;
      continue;
    }
    for (size_t s = 0; s < sparsities.size(); ++s) {
      const double value =
          objective == Objective::kFactual
              ? FidelityMinus(tasks[i], explanations[i].edge_scores, sparsities[s])
              : FidelityPlus(tasks[i], explanations[i].edge_scores, sparsities[s]);
      curve.values[s] += value;
    }
    ++curve.instances_evaluated;
  }
  if (curve.instances_evaluated > 0) {
    for (auto& v : curve.values) v /= curve.instances_evaluated;
  }
  return curve;
}

AucResult RunAuc(explain::Explainer* explainer, const PreparedModel& prepared,
                 const std::vector<EvalInstance>& instances, Objective objective) {
  obs::ScopedSpan span("eval.RunAuc");
  EnsureAmortizedTrained(explainer, prepared, instances, objective);
  std::vector<ExplanationTask> tasks;
  std::vector<const EvalInstance*> evaluated_instances;
  for (const EvalInstance& instance : instances) {
    if (instance.edge_in_motif.empty()) continue;
    tasks.push_back(instance.MakeTask(prepared.model.get()));
    evaluated_instances.push_back(&instance);
  }
  const std::vector<explain::Explanation> explanations =
      ExplainAll(explainer, tasks, objective);
  AucResult result;
  double total = 0.0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!explanations[i].status.ok()) {
      ++result.instances_failed;
      continue;
    }
    total += RocAuc(explanations[i].edge_scores, evaluated_instances[i]->edge_in_motif);
    ++result.instances_evaluated;
  }
  if (result.instances_evaluated > 0) result.mean_auc = total / result.instances_evaluated;
  return result;
}

}  // namespace revelio::eval
