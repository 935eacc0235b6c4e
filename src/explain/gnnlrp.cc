#include "explain/gnnlrp.h"

#include <cmath>

#include "flow/flow_scores.h"
#include "nn/loss.h"
#include "tensor/ops.h"

namespace revelio::explain {
namespace {

using tensor::Tensor;

float Stabilize(float value, float epsilon) {
  return value >= 0.0f ? value + epsilon : value - epsilon;
}

// Cached activations needed to propagate relevance through one instance.
struct LrpTrace {
  // Per layer l (0-based): input activations h^{l-1} and, depending on the
  // architecture, the intermediate stages.
  std::vector<Tensor> inputs;          // h^0 .. h^{L-1}
  std::vector<Tensor> gcn_pre;         // GCN: z^l (pre-activation)
  std::vector<Tensor> gin_aggregate;   // GIN: aggregated sum entering the MLP
  std::vector<Tensor> gin_hidden;      // GIN: ReLU(agg W1 + b1)
  std::vector<Tensor> gin_pre;         // GIN: layer output pre-activation
  Tensor final_embeddings;             // h^L (input to the head)
  Tensor logits;
};

LrpTrace BuildTrace(const ExplanationTask& task, const gnn::LayerEdgeSet& edges) {
  const gnn::GnnModel& model = *task.model;
  LrpTrace trace;
  Tensor h = task.features;
  for (int l = 0; l < model.num_layers(); ++l) {
    trace.inputs.push_back(h);
    Tensor pre = model.layer(l).Forward(*task.graph, edges, h, Tensor());
    if (model.config().arch == gnn::GnnArch::kGcn) {
      trace.gcn_pre.push_back(pre);
      trace.gin_aggregate.emplace_back();
      trace.gin_hidden.emplace_back();
      trace.gin_pre.emplace_back();
    } else {
      // Recompute the GIN layer's internal stages.
      const auto& layer = static_cast<const gnn::GinLayer&>(model.layer(l));
      std::vector<float> coefficients(edges.num_layer_edges(), 1.0f);
      for (int e = edges.num_base_edges; e < edges.num_layer_edges(); ++e) {
        coefficients[e] = 1.0f + layer.eps();
      }
      Tensor aggregated =
          tensor::SpmmCsrWeighted(edges.csr, Tensor::FromVector(coefficients), h);
      Tensor hidden = tensor::Relu(layer.mlp_first().Forward(aggregated));
      trace.gcn_pre.emplace_back();
      trace.gin_aggregate.push_back(aggregated);
      trace.gin_hidden.push_back(hidden);
      trace.gin_pre.push_back(layer.mlp_second().Forward(hidden));
    }
    h = pre;
    if (l + 1 < model.num_layers()) h = tensor::Relu(h);
  }
  trace.final_embeddings = h;
  trace.logits = model.Run(*task.graph, edges, task.features, {}).logits;
  return trace;
}

// Epsilon-LRP through a dense layer y = x W + b at one "row" (node): given
// relevance over y, returns relevance over x.
std::vector<double> LrpThroughLinear(const std::vector<double>& relevance_out,
                                     const Tensor& weight, const Tensor& pre_activation,
                                     int row, const std::vector<float>& input_row,
                                     float epsilon) {
  const int in_dim = weight.rows();
  const int out_dim = weight.cols();
  std::vector<double> relevance_in(in_dim, 0.0);
  for (int g = 0; g < out_dim; ++g) {
    if (relevance_out[g] == 0.0) continue;
    const float denom = Stabilize(pre_activation.At(row, g), epsilon);
    const double share = relevance_out[g] / denom;
    for (int f = 0; f < in_dim; ++f) {
      relevance_in[f] += input_row[f] * weight.At(f, g) * share;
    }
  }
  return relevance_in;
}

}  // namespace

std::vector<double> GnnLrpExplainer::ScoreFlows(const ExplanationTask& task,
                                                const gnn::LayerEdgeSet& edges,
                                                const flow::FlowSet& flows) const {
  const gnn::GnnModel& model = *task.model;
  CHECK(SupportsArch(model.config().arch)) << "GNN-LRP does not support GAT";
  const int num_layers = model.num_layers();
  const float epsilon = options_.epsilon;
  const LrpTrace trace = BuildTrace(task, edges);

  // Head relevance: decompose the explained logit over h^L features of the
  // flow's terminal node. For graph tasks the mean-pool contributes 1/N.
  const nn::Linear& head = model.head();
  const int hidden = trace.final_embeddings.cols();
  const int num_nodes = task.graph->num_nodes();
  const double logit = trace.logits.At(task.logit_row(), task.target_class);
  const double pool_weight = task.is_node_task() ? 1.0 : 1.0 / num_nodes;

  // Precompute the GCN coefficients once (respecting the layer's
  // normalization setting; all layers share it).
  std::vector<float> gcn_coefficients;
  if (model.config().arch == gnn::GnnArch::kGcn) {
    gcn_coefficients =
        static_cast<const gnn::GcnLayer&>(model.layer(0)).Coefficients(*task.graph, edges);
  }

  std::vector<double> scores(flows.num_flows(), 0.0);
  std::vector<float> input_row;
  for (int k = 0; k < flows.num_flows(); ++k) {
    const std::vector<int> nodes = flows.FlowNodes(k, edges);
    const int terminal = nodes[num_layers];

    // Relevance over the terminal node's final embedding.
    std::vector<double> relevance(hidden, 0.0);
    {
      const float denom = Stabilize(static_cast<float>(logit), epsilon);
      for (int g = 0; g < hidden; ++g) {
        relevance[g] = trace.final_embeddings.At(terminal, g) * pool_weight *
                       head.weight().At(g, task.target_class) * logit / denom;
      }
    }

    // Walk backwards through the layers along the flow's edges.
    for (int l = num_layers - 1; l >= 0; --l) {
      const int node_in = nodes[l];
      const int node_out = nodes[l + 1];
      const int layer_edge = flows.EdgeAt(l, k);
      const Tensor& h_in = trace.inputs[l];
      const int in_dim = h_in.cols();

      if (model.config().arch == gnn::GnnArch::kGcn) {
        const auto& layer = static_cast<const gnn::GcnLayer&>(model.layer(l));
        const Tensor& weight = layer.linear().weight();
        const float coefficient = gcn_coefficients[layer_edge];
        std::vector<double> relevance_in(in_dim, 0.0);
        for (int g = 0; g < weight.cols(); ++g) {
          if (relevance[g] == 0.0) continue;
          const float denom = Stabilize(trace.gcn_pre[l].At(node_out, g), epsilon);
          const double share = relevance[g] / denom;
          for (int f = 0; f < in_dim; ++f) {
            relevance_in[f] += coefficient * h_in.At(node_in, f) * weight.At(f, g) * share;
          }
        }
        relevance = std::move(relevance_in);
      } else {
        const auto& layer = static_cast<const gnn::GinLayer&>(model.layer(l));
        // Through the MLP's second linear (inputs: hidden activations).
        input_row.assign(layer.mlp_second().in_features(), 0.0f);
        for (int f = 0; f < layer.mlp_second().in_features(); ++f) {
          input_row[f] = trace.gin_hidden[l].At(node_out, f);
        }
        std::vector<double> relevance_hidden = LrpThroughLinear(
            relevance, layer.mlp_second().weight(), trace.gin_pre[l], node_out, input_row,
            epsilon);
        // Through the first linear (inputs: the aggregated sum). The ReLU
        // between them passes relevance unchanged (LRP convention).
        input_row.assign(in_dim, 0.0f);
        for (int f = 0; f < in_dim; ++f) {
          input_row[f] = trace.gin_aggregate[l].At(node_out, f);
        }
        // Pre-activation of the first linear is not stored; its stabilized
        // denominator equals hidden before ReLU — reuse the aggregate pass.
        Tensor first_pre = layer.mlp_first().Forward(trace.gin_aggregate[l].Detach());
        std::vector<double> relevance_agg =
            LrpThroughLinear(relevance_hidden, layer.mlp_first().weight(), first_pre, node_out,
                             input_row, epsilon);
        // Through the aggregation: feature-wise split across in-edges; keep
        // only the walk's edge share.
        const float coefficient =
            edges.IsSelfLoop(layer_edge) ? 1.0f + layer.eps() : 1.0f;
        std::vector<double> relevance_in(in_dim, 0.0);
        for (int f = 0; f < in_dim; ++f) {
          if (relevance_agg[f] == 0.0) continue;
          const float denom = Stabilize(trace.gin_aggregate[l].At(node_out, f), epsilon);
          relevance_in[f] =
              coefficient * h_in.At(node_in, f) / denom * relevance_agg[f];
        }
        relevance = std::move(relevance_in);
      }
    }

    double total = 0.0;
    for (double r : relevance) total += r;
    scores[k] = total;
  }
  return scores;
}

Explanation GnnLrpExplainer::ExplainImpl(const ExplanationTask& task, Objective objective) {
  (void)objective;  // GNN-LRP's original scores serve both studies.
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(*task.graph);
  Explanation explanation;
  util::StatusOr<flow::FlowSet> enumerated = flow::EnumerateInstanceFlows(
      edges, task.target_node, task.model->num_layers(), options_.max_flows);
  if (!enumerated.ok()) {
    explanation.status = enumerated.status();
    return explanation;
  }
  const flow::FlowSet& flows = enumerated.value();
  explanation.flow_scores = ScoreFlows(task, edges, flows);
  explanation.has_flow_scores = true;
  // Edge ranking uses relevance magnitude: LRP relevances are signed
  // (negative = contradicts the class), but an edge carrying strongly
  // negative relevance is still important to the prediction.
  std::vector<double> magnitudes(explanation.flow_scores.size());
  for (size_t k = 0; k < magnitudes.size(); ++k) {
    magnitudes[k] = std::fabs(explanation.flow_scores[k]);
  }
  const auto layer_scores = flow::FlowScoresToLayerEdgeScores(flows, magnitudes);
  explanation.edge_scores = flow::LayerEdgeScoresToEdgeScores(flows, edges, layer_scores);
  return explanation;
}

}  // namespace revelio::explain
