#include "explain/graphmask.h"

#include <numeric>
#include <string>

#include "explain/mask_learning.h"
#include "tensor/ops.h"

namespace revelio::explain {

using tensor::Tensor;

struct GraphMaskExplainer::LayerGates : public nn::Module {
  LayerGates(const gnn::GnnModel& model, int hidden, util::Rng* rng) {
    for (int l = 0; l < model.num_layers(); ++l) {
      const int in_dim = model.layer(l).in_dim();
      gate_mlps.push_back(std::make_unique<nn::Mlp>(std::vector<int>{2 * in_dim, hidden, 1}, rng));
      RegisterChild(gate_mlps.back().get());
    }
  }
  std::vector<std::unique_ptr<nn::Mlp>> gate_mlps;
};

GraphMaskExplainer::GraphMaskExplainer(const GraphMaskOptions& options) : options_(options) {}

GraphMaskExplainer::~GraphMaskExplainer() = default;

std::vector<Tensor> GraphMaskExplainer::LayerMasks(const LayerGates& gates,
                                                   const ExplanationTask& task,
                                                   const gnn::LayerEdgeSet& edges) const {
  // Embeddings entering each layer come from an unmasked pass (detached:
  // only the gate MLPs train).
  const auto forward = task.model->Run(*task.graph, edges, task.features, {});

  std::vector<int> srcs, dsts;
  for (int e = 0; e < edges.num_base_edges; ++e) {
    srcs.push_back(edges.src[e]);
    dsts.push_back(edges.dst[e]);
  }
  std::vector<Tensor> masks;
  for (int l = 0; l < task.model->num_layers(); ++l) {
    const Tensor h = forward.embeddings[l].Detach();
    Tensor inputs =
        tensor::ConcatCols(tensor::GatherRows(h, srcs), tensor::GatherRows(h, dsts));
    Tensor gate = tensor::Sigmoid(gates.gate_mlps[l]->Forward(inputs));
    masks.push_back(ExpandBaseEdgeMask(gate, edges));
  }
  return masks;
}

util::Status GraphMaskExplainer::Train(const std::vector<ExplanationTask>& tasks,
                                       Objective objective) {
  if (tasks.empty()) return util::Status::InvalidArgument("GraphMask needs tasks to train on");
  util::Rng rng(options_.seed);
  auto gates = std::make_unique<LayerGates>(*tasks[0].model, options_.mlp_hidden, &rng);
  // One step per (epoch, task); the graph changes with the task, so nothing
  // replays.
  const int num_tasks = static_cast<int>(tasks.size());
  gnn::LayerEdgeSet edges;  // the step's task; outlives the step's backward pass
  util::Status status = LearnMasks(
      "GraphMask", gates->Parameters(), options_.learning_rate, options_.train_epochs * num_tasks,
      /*replayable=*/false, [&](int step) {
        const ExplanationTask& task = tasks[step % num_tasks];
        edges = gnn::BuildLayerEdges(*task.graph);
        std::vector<Tensor> masks = LayerMasks(*gates, task, edges);
        Tensor logits = task.model->Run(*task.graph, edges, task.features, masks).logits;
        Tensor loss = ObjectiveLoss(logits, task, objective);
        // Sparsity over gate values (base edges only; self-loop slots are 1).
        std::vector<int> base_indices(edges.num_base_edges);
        std::iota(base_indices.begin(), base_indices.end(), 0);
        Tensor gate_mean;
        for (const Tensor& mask : masks) {
          Tensor base_part = tensor::Mean(tensor::GatherRows(mask, base_indices));
          gate_mean = gate_mean.defined() ? tensor::Add(gate_mean, base_part) : base_part;
        }
        gate_mean = tensor::MulScalar(gate_mean, 1.0f / task.model->num_layers());
        if (objective == Objective::kCounterfactual) {
          gate_mean = tensor::AddScalar(tensor::Neg(gate_mean), 1.0f);
        }
        return tensor::Add(loss, tensor::MulScalar(gate_mean, options_.sparsity_penalty));
      });
  if (!status.ok()) return status;
  if (objective == Objective::kFactual) {
    factual_gates_ = std::move(gates);
  } else {
    counterfactual_gates_ = std::move(gates);
  }
  return util::Status::Ok();
}

bool GraphMaskExplainer::is_trained(Objective objective) const {
  return objective == Objective::kFactual ? factual_gates_ != nullptr
                                          : counterfactual_gates_ != nullptr;
}

Explanation GraphMaskExplainer::ExplainImpl(const ExplanationTask& task, Objective objective) {
  const LayerGates* gates =
      objective == Objective::kFactual ? factual_gates_.get() : counterfactual_gates_.get();
  Explanation explanation;
  if (gates == nullptr) {
    explanation.status = util::Status::FailedPrecondition(
        std::string("GraphMask has no trained ") + ObjectiveName(objective) +
        " gates: Train must succeed before Explain");
    return explanation;
  }
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(*task.graph);
  const std::vector<Tensor> masks = LayerMasks(*gates, task, edges);

  explanation.edge_scores.assign(edges.num_base_edges, 0.0);
  for (int e = 0; e < edges.num_base_edges; ++e) {
    double total = 0.0;
    for (const Tensor& mask : masks) total += mask.At(e, 0);
    const double mean_gate = total / masks.size();
    explanation.edge_scores[e] =
        objective == Objective::kFactual ? mean_gate : 1.0 - mean_gate;
  }
  return explanation;
}

}  // namespace revelio::explain
