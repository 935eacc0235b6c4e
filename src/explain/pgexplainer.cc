#include "explain/pgexplainer.h"

#include <string>

#include "explain/mask_learning.h"
#include "tensor/ops.h"
#include "util/timer.h"

namespace revelio::explain {

using tensor::Tensor;

struct PgExplainer::GateNet : public nn::Module {
  GateNet(int embedding_dim, int hidden, bool node_task, util::Rng* rng)
      : conditions_on_target(node_task),
        mlp({embedding_dim * (node_task ? 3 : 2), hidden, 1}, rng) {
    RegisterChild(&mlp);
  }

  bool conditions_on_target;
  nn::Mlp mlp;
};

PgExplainer::PgExplainer(const PgExplainerOptions& options) : options_(options) {}

PgExplainer::~PgExplainer() = default;

tensor::Tensor PgExplainer::EdgeLogits(const GateNet& net, const ExplanationTask& task,
                                       const gnn::LayerEdgeSet& edges) const {
  // Final-layer embeddings of the pretrained model, detached: PGExplainer
  // trains only the gate MLP.
  const auto forward = task.model->Run(*task.graph, edges, task.features, {});
  const Tensor embeddings = forward.embeddings.back().Detach();

  std::vector<int> srcs, dsts;
  srcs.reserve(edges.num_base_edges);
  dsts.reserve(edges.num_base_edges);
  for (int e = 0; e < edges.num_base_edges; ++e) {
    srcs.push_back(edges.src[e]);
    dsts.push_back(edges.dst[e]);
  }
  Tensor inputs = tensor::ConcatCols(tensor::GatherRows(embeddings, srcs),
                                     tensor::GatherRows(embeddings, dsts));
  if (net.conditions_on_target) {
    const std::vector<int> target_rows(edges.num_base_edges, task.target_node);
    inputs = tensor::ConcatCols(inputs, tensor::GatherRows(embeddings, target_rows));
  }
  return net.mlp.Forward(inputs);
}

util::Status PgExplainer::Train(const std::vector<ExplanationTask>& tasks, Objective objective) {
  if (tasks.empty()) return util::Status::InvalidArgument("PGExplainer needs tasks to train on");
  util::Timer timer;
  util::Rng rng(options_.seed);
  const int embedding_dim = tasks[0].model->config().hidden_dim;
  auto net = std::make_unique<GateNet>(embedding_dim, options_.mlp_hidden,
                                       tasks[0].is_node_task(), &rng);
  // One step per (epoch, task); the graph changes with the task, so nothing
  // replays.
  const int num_tasks = static_cast<int>(tasks.size());
  gnn::LayerEdgeSet edges;  // the step's task; outlives the step's backward pass
  util::Status status = LearnMasks(
      "PGExplainer", net->Parameters(), options_.learning_rate, options_.train_epochs * num_tasks,
      /*replayable=*/false, [&](int step) {
        const ExplanationTask& task = tasks[step % num_tasks];
        edges = gnn::BuildLayerEdges(*task.graph);
        Tensor gate = tensor::Sigmoid(EdgeLogits(*net, task, edges));
        std::vector<Tensor> masks(task.model->num_layers(), ExpandBaseEdgeMask(gate, edges));
        Tensor logits = task.model->Run(*task.graph, edges, task.features, masks).logits;
        Tensor loss = ObjectiveLoss(logits, task, objective);
        Tensor size_term = objective == Objective::kFactual
                               ? tensor::Mean(gate)
                               : tensor::Mean(tensor::AddScalar(tensor::Neg(gate), 1.0f));
        return tensor::Add(loss, tensor::MulScalar(size_term, options_.size_penalty));
      });
  if (!status.ok()) return status;
  if (objective == Objective::kFactual) {
    factual_net_ = std::move(net);
    factual_train_seconds_ = timer.ElapsedSeconds();
  } else {
    counterfactual_net_ = std::move(net);
    counterfactual_train_seconds_ = timer.ElapsedSeconds();
  }
  return util::Status::Ok();
}

bool PgExplainer::is_trained(Objective objective) const {
  return objective == Objective::kFactual ? factual_net_ != nullptr
                                          : counterfactual_net_ != nullptr;
}

double PgExplainer::last_train_seconds(Objective objective) const {
  return objective == Objective::kFactual ? factual_train_seconds_
                                          : counterfactual_train_seconds_;
}

Explanation PgExplainer::ExplainImpl(const ExplanationTask& task, Objective objective) {
  const GateNet* net =
      objective == Objective::kFactual ? factual_net_.get() : counterfactual_net_.get();
  Explanation explanation;
  if (net == nullptr) {
    explanation.status = util::Status::FailedPrecondition(
        std::string("PGExplainer has no trained ") + ObjectiveName(objective) +
        " gate network: Train must succeed before Explain");
    return explanation;
  }
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(*task.graph);
  Tensor gate = tensor::Sigmoid(EdgeLogits(*net, task, edges));
  explanation.edge_scores.resize(edges.num_base_edges);
  for (int e = 0; e < edges.num_base_edges; ++e) {
    const double value = gate.At(e, 0);
    explanation.edge_scores[e] = objective == Objective::kFactual ? value : 1.0 - value;
  }
  return explanation;
}

}  // namespace revelio::explain
