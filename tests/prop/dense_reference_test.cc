// Dense-reference differential for the GNN layers: GCN / GIN / GAT forward
// and backward are checked against a naive dense-adjacency matmul reference
// built from the layers' own parameters. The real layers aggregate with the
// weighted CSR SpMM over LayerEdgeSet::csr (GAT adds a segment softmax); the
// reference routes the same math through dense MatMul / RowSoftmax, so any
// indexing or accumulation bug in the sparse message-passing path shows up as
// a divergence from the obviously-right dense formulation. This is the only
// layer-level suite over the aggregation path.

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gnn/layer_edges.h"
#include "gnn/layers.h"
#include "prop/prop_util.h"
#include "tensor/ops.h"
#include "util/proptest.h"

namespace revelio {
namespace {

using proptest::GraphSpec;
using tensor::Tensor;

constexpr int kInDim = 5;
constexpr int kOutDim = 6;
constexpr double kRtol = 5e-4;
constexpr double kAtol = 5e-5;

struct LayerCase {
  GraphSpec spec;
  uint64_t seed = 0;
  bool use_mask = true;
};

util::Domain<LayerCase> LayerCaseDomain() {
  util::Domain<LayerCase> domain;
  domain.generate = [](util::Rng& rng) {
    LayerCase c;
    c.spec = proptest::GenGraphSpec(rng, 1, 9, /*allow_empty=*/false);
    c.seed = rng.NextUint64();
    c.use_mask = rng.Bernoulli(0.7);
    return c;
  };
  domain.shrink = [](const LayerCase& c) {
    std::vector<LayerCase> out;
    for (GraphSpec& spec : proptest::ShrinkGraphSpec(c.spec)) {
      if (spec.num_nodes == 0) continue;
      LayerCase smaller = c;
      smaller.spec = std::move(spec);
      out.push_back(std::move(smaller));
    }
    return out;
  };
  domain.describe = [](const LayerCase& c) {
    return proptest::DescribeGraphSpec(c.spec) +
           (c.use_mask ? ", masked" : ", unmasked") + ", seed " + util::FormatSeed(c.seed);
  };
  return domain;
}

std::string CompareClose(const char* what, const std::vector<float>& real,
                         const std::vector<float>& ref) {
  if (real.size() != ref.size()) {
    return std::string(what) + ": size mismatch " + std::to_string(real.size()) + " vs " +
           std::to_string(ref.size());
  }
  for (size_t i = 0; i < real.size(); ++i) {
    const double a = real[i];
    const double b = ref[i];
    if (std::fabs(a - b) > kAtol + kRtol * std::max(std::fabs(a), std::fabs(b))) {
      std::ostringstream out;
      out << what << "[" << i << "]: sparse " << a << " vs dense " << b;
      return out.str();
    }
  }
  return "";
}

// Dense per-layer-edge weight matrix: W[dst][src] += weight(e), as a
// constant tensor (coefficients and masks are non-differentiable inputs).
Tensor DenseFromLayerEdges(const gnn::LayerEdgeSet& edges, const std::vector<float>& weight) {
  const int n = edges.num_nodes;
  std::vector<float> dense(static_cast<size_t>(n) * n, 0.0f);
  for (int e = 0; e < edges.num_layer_edges(); ++e) {
    dense[static_cast<size_t>(edges.dst[e]) * n + edges.src[e]] += weight[e];
  }
  return Tensor::FromData(n, n, std::move(dense));
}

// Runs `forward` to a fixed-weight scalar loss and collects the forward
// values, then the gradients of `h` and every layer parameter.
struct PassResult {
  std::vector<float> output;
  std::vector<std::vector<float>> grads;
};

PassResult RunPass(const std::function<Tensor()>& forward, Tensor h,
                   const std::vector<Tensor>& params, uint64_t weight_seed) {
  h.ZeroGrad();
  for (Tensor p : params) p.ZeroGrad();
  Tensor out = forward();
  util::Rng wrng(weight_seed);
  Tensor weights = Tensor::Uniform(out.rows(), out.cols(), 0.5f, 1.5f, &wrng);
  tensor::Sum(tensor::Mul(out, weights)).Backward();
  PassResult result;
  result.output = out.values();
  result.grads.push_back(h.GradData());
  for (const Tensor& p : params) result.grads.push_back(p.GradData());
  return result;
}

std::string ComparePasses(const PassResult& real, const PassResult& ref) {
  std::string failure = CompareClose("forward", real.output, ref.output);
  if (!failure.empty()) return failure;
  if (real.grads.size() != ref.grads.size()) return "gradient count mismatch";
  for (size_t i = 0; i < real.grads.size(); ++i) {
    // A grad never reached by backward is reported as an empty vector, which
    // is equivalent to all-zeros; normalize before comparing.
    std::vector<float> a = real.grads[i];
    std::vector<float> b = ref.grads[i];
    if (a.empty()) a.assign(b.size(), 0.0f);
    if (b.empty()) b.assign(a.size(), 0.0f);
    failure = CompareClose(("grad " + std::to_string(i)).c_str(), a, b);
    if (!failure.empty()) return failure;
  }
  return "";
}

// Shared per-case setup: graph, layer edges, input features, optional mask.
struct CaseSetup {
  graph::Graph graph;
  gnn::LayerEdgeSet edges;
  Tensor h;
  Tensor mask;                     // undefined when !use_mask
  std::vector<float> mask_values;  // ones when unmasked
  uint64_t weight_seed = 0;
};

CaseSetup BuildSetup(const LayerCase& c) {
  CaseSetup s;
  s.graph = proptest::MakeGraph(c.spec);
  s.edges = gnn::BuildLayerEdges(s.graph);
  util::Rng rng(c.seed);
  s.h = proptest::RandLeaf(rng, s.graph.num_nodes(), kInDim);
  s.mask_values.assign(s.edges.num_layer_edges(), 1.0f);
  if (c.use_mask) {
    for (auto& m : s.mask_values) m = static_cast<float>(rng.Uniform(0.2, 1.0));
    s.mask = Tensor::FromData(s.edges.num_layer_edges(), 1,
                              std::vector<float>(s.mask_values));
  }
  s.weight_seed = c.seed ^ 0xfeedf00dULL;
  return s;
}

TEST(DenseReferenceTest, GcnLayerMatchesDenseAdjacency) {
  const util::CheckResult result = util::ForAll<LayerCase>(
      "dense-ref:gcn", LayerCaseDomain(),
      [](const LayerCase& c) -> std::string {
        CaseSetup s = BuildSetup(c);
        util::Rng layer_rng(c.seed ^ 0x6c6cULL);
        gnn::GcnLayer layer(kInDim, kOutDim, &layer_rng, /*normalize=*/true);
        const std::vector<Tensor> params = layer.Parameters();

        // Dense reference: H' = A_hat (H W) + b with
        // A_hat[dst][src] = coeff_e * mask_e.
        std::vector<float> weight = layer.Coefficients(s.graph, s.edges);
        for (int e = 0; e < s.edges.num_layer_edges(); ++e) weight[e] *= s.mask_values[e];
        Tensor a_hat = DenseFromLayerEdges(s.edges, weight);
        PassResult ref = RunPass(
            [&] {
              return tensor::AddRowBroadcast(
                  tensor::MatMul(a_hat, layer.linear().Forward(s.h)), layer.bias());
            },
            s.h, params, s.weight_seed);

        PassResult real = RunPass(
            [&] { return layer.Forward(s.graph, s.edges, s.h, s.mask); }, s.h, params,
            s.weight_seed);
        return ComparePasses(real, ref);
      },
      util::DefaultPropConfig(60));
  EXPECT_TRUE(result.ok) << result.report;
}

TEST(DenseReferenceTest, GinLayerMatchesDenseAdjacency) {
  const util::CheckResult result = util::ForAll<LayerCase>(
      "dense-ref:gin", LayerCaseDomain(),
      [](const LayerCase& c) -> std::string {
        CaseSetup s = BuildSetup(c);
        util::Rng layer_rng(c.seed ^ 0x9191ULL);
        gnn::GinLayer layer(kInDim, kOutDim, &layer_rng, /*eps=*/0.3f);
        const std::vector<Tensor> params = layer.Parameters();

        // Dense reference: H' = MLP(A H) with A[dst][src] = coeff_e * mask_e,
        // coeff = 1 for base edges and (1 + eps) on the self-loop.
        std::vector<float> weight(s.edges.num_layer_edges(), 1.0f);
        for (int e = s.edges.num_base_edges; e < s.edges.num_layer_edges(); ++e) {
          weight[e] = 1.0f + layer.eps();
        }
        for (int e = 0; e < s.edges.num_layer_edges(); ++e) weight[e] *= s.mask_values[e];
        Tensor a = DenseFromLayerEdges(s.edges, weight);
        PassResult ref = RunPass(
            [&] {
              return layer.mlp_second().Forward(
                  tensor::Relu(layer.mlp_first().Forward(tensor::MatMul(a, s.h))));
            },
            s.h, params, s.weight_seed);

        PassResult real = RunPass(
            [&] { return layer.Forward(s.graph, s.edges, s.h, s.mask); }, s.h, params,
            s.weight_seed);
        return ComparePasses(real, ref);
      },
      util::DefaultPropConfig(60));
  EXPECT_TRUE(result.ok) << result.report;
}

TEST(DenseReferenceTest, GatLayerMatchesDenseAttention) {
  for (const bool concat : {true, false}) {
    const util::CheckResult result = util::ForAll<LayerCase>(
        concat ? "dense-ref:gat-concat" : "dense-ref:gat-mean", LayerCaseDomain(),
        [concat](const LayerCase& c) -> std::string {
          CaseSetup s = BuildSetup(c);
          const int n = s.graph.num_nodes();
          util::Rng layer_rng(c.seed ^ 0x9a79a7ULL);
          gnn::GatLayer layer(kInDim, kOutDim, /*num_heads=*/3, concat, &layer_rng);
          const std::vector<Tensor> params = layer.Parameters();

          // Dense reference per head: the edge-logit computation is shared,
          // but the attention softmax and aggregation run densely.
          // Logits are scattered into an N x N matrix via a constant one-hot
          // source-incidence matrix (differentiable w.r.t. the logits);
          // non-edge entries get a -80 background so they vanish under
          // RowSoftmax, and the dense mask (0 off-edges) removes even that
          // residual. head_out = (RowSoftmax(E) .* M) Wh, exactly the
          // masked-attention message sum.
          const int num_layer_edges = s.edges.num_layer_edges();
          std::vector<float> one_hot_src(static_cast<size_t>(num_layer_edges) * n, 0.0f);
          for (int e = 0; e < num_layer_edges; ++e) {
            one_hot_src[static_cast<size_t>(e) * n + s.edges.src[e]] = 1.0f;
          }
          Tensor src_incidence = Tensor::FromData(num_layer_edges, n, std::move(one_hot_src));
          std::vector<float> background(static_cast<size_t>(n) * n, -80.0f);
          std::vector<float> dense_mask(static_cast<size_t>(n) * n, 0.0f);
          for (int e = 0; e < num_layer_edges; ++e) {
            const size_t at = static_cast<size_t>(s.edges.dst[e]) * n + s.edges.src[e];
            background[at] = 0.0f;
            dense_mask[at] = s.mask_values[e];
          }
          Tensor background_t = Tensor::FromData(n, n, std::move(background));
          Tensor dense_mask_t = Tensor::FromData(n, n, std::move(dense_mask));

          PassResult ref = RunPass(
              [&] {
                Tensor combined;
                for (int k = 0; k < layer.num_heads(); ++k) {
                  Tensor wh = layer.head_projection(k).Forward(s.h);
                  Tensor score_src = tensor::MatMul(wh, layer.attention_src(k));
                  Tensor score_dst = tensor::MatMul(wh, layer.attention_dst(k));
                  Tensor edge_logits =
                      tensor::Add(tensor::GatherRows(score_src, s.edges.src),
                                  tensor::GatherRows(score_dst, s.edges.dst));
                  edge_logits = tensor::LeakyRelu(edge_logits, 0.2f);
                  Tensor dense_logits = tensor::Add(
                      tensor::ScatterAddRows(tensor::RowScale(src_incidence, edge_logits),
                                             s.edges.dst, n),
                      background_t);
                  Tensor attention =
                      tensor::Mul(tensor::RowSoftmax(dense_logits), dense_mask_t);
                  Tensor head_out = tensor::MatMul(attention, wh);
                  if (!combined.defined()) {
                    combined = head_out;
                  } else if (layer.concat()) {
                    combined = tensor::ConcatCols(combined, head_out);
                  } else {
                    combined = tensor::Add(combined, head_out);
                  }
                }
                if (!layer.concat() && layer.num_heads() > 1) {
                  combined =
                      tensor::MulScalar(combined, 1.0f / static_cast<float>(layer.num_heads()));
                }
                return tensor::AddRowBroadcast(combined, layer.bias());
              },
              s.h, params, s.weight_seed);

          PassResult real = RunPass(
              [&] { return layer.Forward(s.graph, s.edges, s.h, s.mask); }, s.h, params,
              s.weight_seed);
          return ComparePasses(real, ref);
        },
        util::DefaultPropConfig(40));
    EXPECT_TRUE(result.ok) << result.report;
  }
}

}  // namespace
}  // namespace revelio
