#include "gnn/trainer.h"

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace revelio::gnn {

using tensor::Tensor;

namespace {

void ReportTrainMetrics(const TrainMetrics& metrics) {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("gnn.train.final_loss")->Set(metrics.final_loss);
  registry.GetGauge("gnn.train.train_accuracy")->Set(metrics.train_accuracy);
  registry.GetGauge("gnn.train.val_accuracy")->Set(metrics.val_accuracy);
  registry.GetGauge("gnn.train.test_accuracy")->Set(metrics.test_accuracy);
}

// Per-epoch wall time feeds the SLO histogram (p50/p95/p99 over the run) and
// a flight-ring phase marker so a crash dump shows training progress.
void ObserveTrainEpoch(double seconds) {
  static obs::Histogram* epoch_seconds =
      obs::MetricsRegistry::Global().GetHistogram("gnn.train.epoch_seconds");
  epoch_seconds->Observe(seconds);
  obs::RecordPhase("gnn.train.epoch_done");
}

}  // namespace

Split MakeSplit(int n, double train_fraction, double val_fraction, util::Rng* rng) {
  CHECK_GT(n, 0);
  CHECK_LE(train_fraction + val_fraction, 1.0);
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  rng->Shuffle(&order);
  const int train_count = static_cast<int>(n * train_fraction);
  const int val_count = static_cast<int>(n * val_fraction);
  Split split;
  split.train.assign(order.begin(), order.begin() + train_count);
  split.val.assign(order.begin() + train_count, order.begin() + train_count + val_count);
  split.test.assign(order.begin() + train_count + val_count, order.end());
  return split;
}

namespace {

std::vector<int> GatherLabels(const std::vector<int>& labels, const std::vector<int>& rows) {
  std::vector<int> subset;
  subset.reserve(rows.size());
  for (int r : rows) subset.push_back(labels[r]);
  return subset;
}

}  // namespace

TrainMetrics TrainNodeModel(GnnModel* model, const graph::Graph& graph,
                            const tensor::Tensor& features, const std::vector<int>& labels,
                            const Split& split, const TrainConfig& config) {
  CHECK(model->config().task == TaskType::kNodeClassification);
  CHECK_EQ(static_cast<int>(labels.size()), graph.num_nodes());
  obs::ScopedSpan span("gnn.TrainNodeModel");
  const LayerEdgeSet edges = BuildLayerEdges(graph);
  nn::Adam optimizer(model->Parameters(), config.learning_rate, 0.9f, 0.999f, 1e-8f,
                     config.weight_decay);
  const std::vector<int> train_labels = GatherLabels(labels, split.train);
  TrainMetrics metrics;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    obs::ScopedSpan epoch_span("gnn.train.epoch");
    optimizer.ZeroGrad();
    Tensor logits = model->Run(graph, edges, features, {}).logits;
    Tensor train_logits = tensor::GatherRows(logits, split.train);
    Tensor loss = nn::CrossEntropyFromLogits(train_logits, train_labels);
    loss.Backward();
    optimizer.Step();
    metrics.final_loss = loss.Value();
    metrics.loss_curve.push_back(loss.Value());
    // Free this epoch's intermediates; parameter values and the recorded
    // loss value survive the release.
    loss.ReleaseTape();
    ObserveTrainEpoch(epoch_span.ElapsedSeconds());
    if (config.verbose && (epoch % 20 == 0 || epoch + 1 == config.epochs)) {
      LOG_INFO << "node-train epoch " << epoch << " loss " << metrics.final_loss;
    }
  }
  Tensor logits = model->Run(graph, edges, features, {}).logits;
  metrics.train_accuracy = nn::Accuracy(logits, labels, split.train);
  metrics.val_accuracy = nn::Accuracy(logits, labels, split.val);
  metrics.test_accuracy = nn::Accuracy(logits, labels, split.test);
  ReportTrainMetrics(metrics);
  return metrics;
}

TrainMetrics TrainGraphModel(GnnModel* model, const std::vector<graph::GraphInstance>& instances,
                             const Split& split, const TrainConfig& config) {
  CHECK(model->config().task == TaskType::kGraphClassification);
  obs::ScopedSpan span("gnn.TrainGraphModel");
  auto make_batch = [&](const std::vector<int>& indices) {
    std::vector<const graph::GraphInstance*> members;
    members.reserve(indices.size());
    for (int i : indices) members.push_back(&instances[i]);
    return graph::MakeBatch(members);
  };
  const graph::GraphBatch train_batch = make_batch(split.train);
  const LayerEdgeSet train_edges = BuildLayerEdges(train_batch.graph);

  nn::Adam optimizer(model->Parameters(), config.learning_rate, 0.9f, 0.999f, 1e-8f,
                     config.weight_decay);
  TrainMetrics metrics;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    obs::ScopedSpan epoch_span("gnn.train.epoch");
    optimizer.ZeroGrad();
    Tensor logits = model->Run(train_batch.graph, train_edges, train_batch.features, {},
                               &train_batch.node_to_graph, train_batch.num_graphs)
                        .logits;
    Tensor loss = nn::CrossEntropyFromLogits(logits, train_batch.labels);
    loss.Backward();
    optimizer.Step();
    metrics.final_loss = loss.Value();
    metrics.loss_curve.push_back(loss.Value());
    loss.ReleaseTape();
    ObserveTrainEpoch(epoch_span.ElapsedSeconds());
    if (config.verbose && (epoch % 20 == 0 || epoch + 1 == config.epochs)) {
      LOG_INFO << "graph-train epoch " << epoch << " loss " << metrics.final_loss;
    }
  }

  auto evaluate = [&](const std::vector<int>& indices) {
    if (indices.empty()) return 0.0;
    const graph::GraphBatch batch = make_batch(indices);
    const LayerEdgeSet batch_edges = BuildLayerEdges(batch.graph);
    Tensor logits = model->Run(batch.graph, batch_edges, batch.features, {},
                               &batch.node_to_graph, batch.num_graphs)
                        .logits;
    return nn::Accuracy(logits, batch.labels);
  };
  metrics.train_accuracy = evaluate(split.train);
  metrics.val_accuracy = evaluate(split.val);
  metrics.test_accuracy = evaluate(split.test);
  ReportTrainMetrics(metrics);
  return metrics;
}

}  // namespace revelio::gnn
