#include "explain/flowx.h"

#include <algorithm>
#include <cmath>

#include "explain/mask_learning.h"
#include "flow/flow_scores.h"
#include "nn/loss.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace revelio::explain {

using tensor::Tensor;

namespace {

// Probability of the target class with the given 0/1 base-edge keep vector
// (masks applied at every layer; self-loops always kept).
double MaskedProbability(const ExplanationTask& task, const gnn::LayerEdgeSet& edges,
                         const std::vector<char>& edge_kept) {
  std::vector<float> mask_values(edges.num_layer_edges(), 1.0f);
  for (int e = 0; e < edges.num_base_edges; ++e) {
    mask_values[e] = edge_kept[e] ? 1.0f : 0.0f;
  }
  Tensor mask = Tensor::FromVector(mask_values);
  std::vector<Tensor> masks(task.model->num_layers(), mask);
  const Tensor logits = task.model->Run(*task.graph, edges, task.features, masks).logits;
  return nn::SoftmaxRow(logits, task.logit_row())[task.target_class];
}

}  // namespace

std::vector<double> FlowXExplainer::SampleShapleyScores(const ExplanationTask& task,
                                                        const gnn::LayerEdgeSet& edges,
                                                        const flow::FlowSet& flows) {
  util::Rng rng(options_.seed);
  const int num_base = edges.num_base_edges;
  std::vector<double> scores(flows.num_flows(), 0.0);

  // Flows using base edge e at any layer.
  std::vector<std::vector<int>> flows_using_edge(num_base);
  for (int l = 0; l < flows.num_layers(); ++l) {
    for (int k = 0; k < flows.num_flows(); ++k) {
      const int e = flows.EdgeAt(l, k);
      if (e < num_base) flows_using_edge[e].push_back(k);
    }
  }

  std::vector<int> order(num_base);
  for (int e = 0; e < num_base; ++e) order[e] = e;

  for (int iteration = 0; iteration < options_.shapley_iterations; ++iteration) {
    rng.Shuffle(&order);
    std::vector<char> kept(num_base, 1);
    std::vector<char> killed(flows.num_flows(), 0);
    double previous = MaskedProbability(task, edges, kept);
    for (int e : order) {
      kept[e] = 0;
      const double current = MaskedProbability(task, edges, kept);
      const double drop = previous - current;
      // Flows newly killed by this removal share the marginal contribution.
      std::vector<int> newly_killed;
      for (int k : flows_using_edge[e]) {
        if (!killed[k]) {
          killed[k] = 1;
          newly_killed.push_back(k);
        }
      }
      if (!newly_killed.empty()) {
        const double share = drop / newly_killed.size();
        for (int k : newly_killed) scores[k] += share;
      }
      previous = current;
    }
  }
  for (auto& s : scores) s /= options_.shapley_iterations;
  return scores;
}

Explanation FlowXExplainer::ExplainImpl(const ExplanationTask& task, Objective objective) {
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(*task.graph);
  const int num_layers = task.model->num_layers();
  util::StatusOr<flow::FlowSet> enumerated = [&] {
    obs::ScopedSpan span("flowx.enumerate");
    return flow::EnumerateInstanceFlows(edges, task.target_node, num_layers, options_.max_flows);
  }();
  if (!enumerated.ok()) {
    Explanation explanation;
    explanation.status = enumerated.status();
    return explanation;
  }
  const flow::FlowSet& flows = enumerated.value();

  // Stage 1: sampled Shapley initialization.
  std::vector<double> initial = [&] {
    obs::ScopedSpan span("flowx.shapley_init");
    return SampleShapleyScores(task, edges, flows);
  }();
  double max_magnitude = 1e-9;
  for (double s : initial) max_magnitude = std::max(max_magnitude, std::fabs(s));

  // Stage 2: learning refinement. Flow mask parameters start at
  // atanh(score / (2 * max|score|)) so stage-1 ordering seeds the learning.
  std::vector<float> init_params(flows.num_flows());
  for (int k = 0; k < flows.num_flows(); ++k) {
    init_params[k] = std::atanh(static_cast<float>(initial[k] / (2.0 * max_magnitude)));
  }
  Tensor flow_params = Tensor::FromVector(init_params).WithRequiresGrad();

  Explanation explanation;
  obs::ScopedSpan learn_span("flowx.learn");
  // Shape-stable: LearnMasks records epoch 0 and replays it (DESIGN.md §12).
  explanation.status = LearnMasks(
      "FlowX", {flow_params}, options_.learning_rate, options_.learning_epochs,
      /*replayable=*/true, [&](int) {
        Tensor omega = tensor::Tanh(flow_params);
        std::vector<Tensor> masks;
        masks.reserve(num_layers);
        Tensor mask_mean;
        for (int l = 0; l < num_layers; ++l) {
          Tensor accumulated =
              tensor::ScatterAddRows(omega, flows.EdgesAtLayer(l), flows.num_layer_edges());
          Tensor mask = tensor::Sigmoid(accumulated);
          masks.push_back(mask);
          const std::vector<int> used = flows.UsedEdgesAtLayer(l);
          if (!used.empty()) {
            Tensor layer_mean = tensor::Mean(tensor::GatherRows(mask, used));
            mask_mean = mask_mean.defined() ? tensor::Add(mask_mean, layer_mean) : layer_mean;
          }
        }
        mask_mean = tensor::MulScalar(mask_mean, 1.0f / num_layers);
        Tensor logits = task.model->Run(*task.graph, edges, task.features, masks).logits;
        Tensor loss = ObjectiveLoss(logits, task, objective);
        if (objective == Objective::kCounterfactual) {
          mask_mean = tensor::AddScalar(tensor::Neg(mask_mean), 1.0f);
        }
        return tensor::Add(loss, tensor::MulScalar(mask_mean, options_.alpha));
      });
  if (!explanation.status.ok()) return explanation;

  explanation.has_flow_scores = true;
  explanation.flow_scores.resize(flows.num_flows());
  Tensor omega = tensor::Tanh(flow_params);
  const double sign = objective == Objective::kCounterfactual ? -1.0 : 1.0;
  for (int k = 0; k < flows.num_flows(); ++k) {
    explanation.flow_scores[k] = sign * omega.At(k, 0);
  }
  // Translate flow scores into per-layer sigmoid masks, then edge scores.
  std::vector<std::vector<double>> layer_scores(
      num_layers, std::vector<double>(edges.num_layer_edges(), 0.0));
  for (int l = 0; l < num_layers; ++l) {
    Tensor accumulated =
        tensor::ScatterAddRows(omega.Detach(), flows.EdgesAtLayer(l), flows.num_layer_edges());
    for (int e = 0; e < edges.num_layer_edges(); ++e) {
      const double value = 1.0 / (1.0 + std::exp(-accumulated.At(e, 0)));
      layer_scores[l][e] = objective == Objective::kCounterfactual ? 1.0 - value : value;
    }
  }
  explanation.edge_scores = flow::LayerEdgeScoresToEdgeScores(flows, edges, layer_scores);
  return explanation;
}

}  // namespace revelio::explain
