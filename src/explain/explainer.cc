#include "explain/explainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "nn/loss.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace revelio::explain {

namespace {

// How many of the final scores an audit record retains. Enough to see the
// shape of the distribution (and the paper's top-k sweeps stop well below
// this); full score vectors belong in result files, not per-call audit logs.
constexpr size_t kAuditTopScores = 32;

void FillAuditTaskShape(obs::AuditRecord* record, const ExplanationTask& task) {
  record->num_nodes = task.graph->num_nodes();
  record->num_edges = task.graph->num_edges();
  record->target_node = task.target_node;
  record->target_class = task.target_class;
}

void FillAuditResult(obs::AuditRecord* record, const Explanation& result) {
  const std::vector<double>& scores =
      result.has_flow_scores ? result.flow_scores : result.edge_scores;
  std::vector<double> top = scores;
  const size_t k = std::min(kAuditTopScores, top.size());
  std::partial_sort(top.begin(), top.begin() + k, top.end(), std::greater<double>());
  top.resize(k);
  record->top_scores = std::move(top);
}

void FillAuditCall(obs::AuditRecord* record, const std::string& method, Objective objective,
                   double wall_seconds) {
  record->method = method;
  record->objective = ObjectiveName(objective);
  record->wall_seconds = wall_seconds;
}

}  // namespace

const char* ObjectiveName(Objective objective) {
  return objective == Objective::kFactual ? "factual" : "counterfactual";
}

Explanation Explainer::Explain(const ExplanationTask& task, Objective objective) {
  // Skip the name() call entirely when telemetry is off: the span then costs
  // one relaxed load and no allocation. The flight recorder needs the name
  // too — its span events carry only an interned pointer.
  obs::ScopedSpan span(obs::Enabled() || obs::FlightEnabled() ? "explain." + name()
                                                              : std::string());
  static obs::Counter* calls = obs::MetricsRegistry::Global().GetCounter("explain.calls");
  calls->Increment();
  util::Status status = ValidateExplanationTask(task);
  if (status.ok() && !SupportsArch(task.model->config().arch)) {
    status = util::Status::InvalidArgument(name() + " does not support " +
                                           gnn::GnnArchName(task.model->config().arch) +
                                           " models");
  }
  if (!status.ok()) {
    Explanation rejected;
    rejected.status = std::move(status);
    return rejected;
  }
  obs::AuditScope audit;
  if (!audit.active()) return ExplainImpl(task, objective);

  FillAuditTaskShape(audit.record(), task);
  Explanation result = ExplainImpl(task, objective);
  FillAuditResult(audit.record(), result);
  FillAuditCall(audit.record(), name(), objective, span.ElapsedSeconds());
  audit.Submit();
  return result;
}

std::vector<Explanation> Explainer::ExplainBatch(const std::vector<const ExplanationTask*>& tasks,
                                                 Objective objective) {
  std::vector<Explanation> results(tasks.size());
  auto explain_slot = [this, &tasks, &results, objective](size_t i) {
    if (tasks[i] == nullptr) {
      results[i].status = util::Status::InvalidArgument("task is null");
    } else {
      results[i] = Explain(*tasks[i], objective);
    }
  };
  // Methods with per-call mutable state run one at a time, in index order.
  if (!thread_safe_explain()) {
    for (size_t i = 0; i < tasks.size(); ++i) explain_slot(i);
    return results;
  }
  // Instances are the one parallel axis: each Explain runs serially on the
  // thread that claimed it and writes only its own slot. Threads claim one
  // task at a time, largest graph first, so a long instance starts early
  // instead of landing last on one thread. Ties keep index order. A lone
  // task runs on the calling thread (ParallelFor's one-chunk path).
  std::vector<size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), size_t{0});
  auto edges = [&tasks](size_t i) {
    return tasks[i] != nullptr && tasks[i]->graph != nullptr ? tasks[i]->graph->num_edges() : -1;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&edges](size_t a, size_t b) { return edges(a) > edges(b); });
  util::ParallelFor(0, static_cast<int64_t>(order.size()), 1,
                    [&order, &explain_slot](int64_t begin, int64_t end) {
                      for (int64_t k = begin; k < end; ++k) explain_slot(order[k]);
                    });
  return results;
}

util::Status ValidateExplanationTask(const ExplanationTask& task) {
  if (task.model == nullptr) return util::Status::InvalidArgument("task.model is null");
  if (task.graph == nullptr) return util::Status::InvalidArgument("task.graph is null");
  const int n = task.graph->num_nodes();
  if (n <= 0) {
    return util::Status::InvalidArgument("cannot explain an empty graph (0 nodes, no flows)");
  }
  if (task.features.rows() != n) {
    return util::Status::InvalidArgument(
        "features have " + std::to_string(task.features.rows()) + " rows for " +
        std::to_string(n) + " nodes");
  }
  const gnn::GnnConfig& config = task.model->config();
  if (task.features.cols() != config.input_dim) {
    return util::Status::InvalidArgument(
        "feature dim " + std::to_string(task.features.cols()) + " != model input_dim " +
        std::to_string(config.input_dim));
  }
  const std::vector<float>& values = task.features.values();
  for (size_t k = 0; k < values.size(); ++k) {
    if (!std::isfinite(values[k])) {
      return util::Status::InvalidArgument(
          "feature (" + std::to_string(k / config.input_dim) + ", " +
          std::to_string(k % config.input_dim) + ") is not finite");
    }
  }
  const bool node_task = config.task == gnn::TaskType::kNodeClassification;
  if (node_task != task.is_node_task()) {
    return util::Status::InvalidArgument(node_task
                                             ? "node-classification model requires target_node >= 0"
                                             : "graph-classification task must use target_node = -1");
  }
  if (node_task && task.target_node >= n) {
    return util::Status::InvalidArgument(
        "target_node " + std::to_string(task.target_node) + " out of range for " +
        std::to_string(n) + " nodes");
  }
  if (task.target_class < 0 || task.target_class >= config.num_classes) {
    return util::Status::InvalidArgument(
        "target_class " + std::to_string(task.target_class) + " out of range for " +
        std::to_string(config.num_classes) + " classes");
  }
  return util::Status::Ok();
}

tensor::Tensor CloneFeatures(const ExplanationTask& task) {
  return task.features.Detach();
}

double PredictedProbability(const ExplanationTask& task) {
  const tensor::Tensor logits = task.model->Logits(*task.graph, task.features);
  return nn::SoftmaxRow(logits, task.logit_row())[task.target_class];
}

int PredictedClass(const ExplanationTask& task) {
  const tensor::Tensor logits = task.model->Logits(*task.graph, task.features);
  return nn::ArgmaxRow(logits, task.logit_row());
}

}  // namespace revelio::explain
