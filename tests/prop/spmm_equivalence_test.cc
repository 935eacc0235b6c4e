// Differential property suite for the one aggregation kernel: the weighted
// CSR SpMM (tensor::SpmmCsrWeighted over LayerEdgeSet::csr) must reproduce
// the Gather -> RowScale -> ScatterAdd chain — the test oracle — bit for bit,
// forward AND backward, across seeded graphs, thread counts {1, 2, 7, 16},
// and masked/unmasked edge weights. A dedicated group mutates graphs
// (RemoveEdges / AddEdge) and rebuilds the layer edges, so a pattern that
// missed the mutation shows up as a kernel-vs-chain divergence. The layers
// themselves are checked against a dense adjacency in dense_reference_test.

#include <functional>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gnn/layer_edges.h"
#include "prop/prop_util.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "util/parallel.h"
#include "util/proptest.h"

namespace revelio {
namespace {

using proptest::GraphSpec;
using tensor::Tensor;

constexpr int kThreadCounts[] = {1, 2, 7, 16};
constexpr int kFeatDim = 5;

class SpmmEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override { util::SetNumThreads(1); }
};

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

struct EqCase {
  GraphSpec spec;
  uint64_t seed = 0;
  bool masked = false;
};

util::Domain<EqCase> EqCaseDomain(int min_nodes, int max_nodes, bool allow_empty) {
  util::Domain<EqCase> domain;
  domain.generate = [min_nodes, max_nodes, allow_empty](util::Rng& rng) {
    EqCase c;
    c.spec = proptest::GenGraphSpec(rng, min_nodes, max_nodes, allow_empty);
    c.seed = rng.NextUint64();
    c.masked = rng.Bernoulli(0.5);
    return c;
  };
  domain.shrink = [](const EqCase& c) {
    std::vector<EqCase> out;
    for (GraphSpec& spec : proptest::ShrinkGraphSpec(c.spec)) {
      EqCase smaller = c;
      smaller.spec = std::move(spec);
      out.push_back(std::move(smaller));
    }
    return out;
  };
  domain.describe = [](const EqCase& c) {
    return proptest::DescribeGraphSpec(c.spec) + (c.masked ? ", masked" : ", unmasked") +
           ", seed " + util::FormatSeed(c.seed);
  };
  return domain;
}

// Per-layer-edge weights: positive coefficients, with ~30% hard zeros in the
// masked variant (the shape Eq. 6 masks take after thresholding).
std::vector<float> DrawEdgeWeights(util::Rng& rng, int count, bool masked) {
  std::vector<float> w(count);
  for (auto& x : w) {
    x = static_cast<float>(rng.Uniform(0.2, 1.5));
    if (masked && rng.Bernoulli(0.3)) x = 0.0f;
  }
  return w;
}

// Forward values + scalar loss + gradients of every leaf, as one float
// stream for bitwise comparison (mirrors proptest::RunOpCaseBitstream).
std::vector<float> RunToStream(const std::function<Tensor()>& forward,
                               const std::vector<Tensor>& leaves, uint64_t loss_seed) {
  for (Tensor t : leaves) t.ZeroGrad();
  Tensor out = forward();
  util::Rng wrng(loss_seed);
  Tensor weights = Tensor::Uniform(out.rows(), out.cols(), 0.5f, 1.5f, &wrng);
  Tensor loss = tensor::Sum(tensor::Mul(out, weights));
  if (loss.requires_grad()) loss.Backward();
  std::vector<float> stream = out.values();
  stream.push_back(loss.Value());
  for (const Tensor& t : leaves) {
    std::vector<float> grad = t.GradData();
    if (grad.empty()) grad.assign(static_cast<size_t>(t.rows()) * t.cols(), 0.0f);
    stream.insert(stream.end(), grad.begin(), grad.end());
  }
  return stream;
}

// Core differential: SpmmCsrWeighted over `edges.csr` vs the legacy chain
// over the same layer-edge list, forward+backward, at every thread count.
// Both must be bitwise-equal to the single-thread fused stream.
std::string CheckWeightedAggregation(const gnn::LayerEdgeSet& edges, uint64_t seed,
                                     bool masked) {
  const int n = edges.num_nodes;
  const int m = edges.num_layer_edges();
  util::Rng rng(seed);
  const std::vector<float> weight_values = DrawEdgeWeights(rng, m, masked);
  std::vector<float> feature_values(static_cast<size_t>(n) * kFeatDim);
  for (auto& x : feature_values) x = static_cast<float>(rng.Uniform(-2.0, 2.0));
  const uint64_t loss_seed = seed ^ 0x1055eedULL;

  std::vector<float> reference;
  for (const int threads : kThreadCounts) {
    util::SetNumThreads(threads);
    Tensor fused_w =
        Tensor::FromData(m, 1, std::vector<float>(weight_values)).WithRequiresGrad();
    Tensor fused_h =
        Tensor::FromData(n, kFeatDim, std::vector<float>(feature_values)).WithRequiresGrad();
    const std::vector<float> fused = RunToStream(
        [&] { return tensor::SpmmCsrWeighted(edges.csr, fused_w, fused_h); },
        {fused_w, fused_h}, loss_seed);

    Tensor chain_w =
        Tensor::FromData(m, 1, std::vector<float>(weight_values)).WithRequiresGrad();
    Tensor chain_h =
        Tensor::FromData(n, kFeatDim, std::vector<float>(feature_values)).WithRequiresGrad();
    const std::vector<float> chain = RunToStream(
        [&] {
          return tensor::ScatterAddRows(
              tensor::RowScale(tensor::GatherRows(chain_h, edges.src), chain_w), edges.dst,
              edges.num_nodes);
        },
        {chain_w, chain_h}, loss_seed);

    if (!BitwiseEqual(fused, chain)) {
      return "fused vs chain diverges at threads=" + std::to_string(threads);
    }
    if (threads == 1) {
      reference = fused;
    } else if (!BitwiseEqual(fused, reference)) {
      return "fused stream not thread-invariant at threads=" + std::to_string(threads);
    }
  }
  return "";
}

TEST_F(SpmmEquivalenceTest, WeightedFusedMatchesChainBitwise) {
  const util::CheckResult result = util::ForAll<EqCase>(
      "spmm-eq:weighted", EqCaseDomain(1, 12, /*allow_empty=*/true),
      [](const EqCase& c) -> std::string {
        const graph::Graph g = proptest::MakeGraph(c.spec);
        const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(g);
        return CheckWeightedAggregation(edges, c.seed, c.masked);
      },
      util::DefaultPropConfig(160));
  EXPECT_TRUE(result.ok) << result.report;
}

// ---------------------------------------------------------------------------
// Aggregation under graph mutation
// ---------------------------------------------------------------------------

// Mutate the graph (RemoveEdges -> fresh Graph; AddEdge -> in place), rebuild
// the layer edges, and require kernel == chain on the mutated topology. A
// pattern that missed the mutation would keep the old edge set on the kernel
// side only, so the chain acts as the oracle.
TEST_F(SpmmEquivalenceTest, AggregationMatchesChainAfterGraphMutation) {
  const util::CheckResult result = util::ForAll<EqCase>(
      "spmm-eq:graph-mutation", EqCaseDomain(2, 10, /*allow_empty=*/false),
      [](const EqCase& c) -> std::string {
        graph::Graph g = proptest::MakeGraph(c.spec);
        std::string failure =
            CheckWeightedAggregation(gnn::BuildLayerEdges(g), c.seed, c.masked);
        if (!failure.empty()) return "pre-mutation: " + failure;

        util::Rng rng(c.seed ^ 0xca0eULL);
        if (g.num_edges() > 0) {
          std::vector<int> removed;
          for (int e = 0; e < g.num_edges(); ++e) {
            if (rng.Bernoulli(0.4)) removed.push_back(e);
          }
          if (removed.empty()) removed.push_back(rng.UniformInt(g.num_edges()));
          const graph::Graph reduced = g.RemoveEdges(removed);
          failure = CheckWeightedAggregation(gnn::BuildLayerEdges(reduced), c.seed ^ 0x9e9eULL,
                                             c.masked);
          if (!failure.empty()) return "post-RemoveEdges: " + failure;
        }

        const int u = rng.UniformInt(g.num_nodes());
        int v = rng.UniformInt(g.num_nodes());
        if (v == u) v = (v + 1) % g.num_nodes();
        g.AddEdge(u, v);
        const gnn::LayerEdgeSet after = gnn::BuildLayerEdges(g);
        if (after.csr->num_edges != g.num_edges() + g.num_nodes()) {
          return "stale CSR pattern after AddEdge (wrong edge count)";
        }
        failure = CheckWeightedAggregation(after, c.seed ^ 0xadd3ULL, c.masked);
        if (!failure.empty()) return "post-AddEdge: " + failure;
        return "";
      },
      util::DefaultPropConfig(100));
  EXPECT_TRUE(result.ok) << result.report;
}

}  // namespace
}  // namespace revelio
