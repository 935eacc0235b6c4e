#ifndef REVELIO_TESTS_PROP_PROP_UTIL_H_
#define REVELIO_TESTS_PROP_PROP_UTIL_H_

// Shared generators for the property suites (tests/prop/*):
//  - seeded random tensors (incl. kink-avoiding values for Relu-family FD),
//  - random graphs covering the degenerate shapes the paper's instances can
//    produce (empty, self-loop-only/edgeless, disconnected, star, dense),
//  - an op-harness registry with one or more (shape, inputs, forward) cases
//    per registered tensor op, reused by the gradcheck and the
//    parallel-vs-serial differential suites.
//
// Everything is deterministic in the provided seeds; nothing here reads
// wall-clock or global RNG state.

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/proptest.h"
#include "util/rng.h"

namespace revelio::proptest {

using tensor::Tensor;

// ---------------------------------------------------------------------------
// Tensor generators
// ---------------------------------------------------------------------------

// Leaf tensor with uniform entries in [lo, hi), requires_grad set.
inline Tensor RandLeaf(util::Rng& rng, int rows, int cols, float lo = -2.0f, float hi = 2.0f) {
  return Tensor::Uniform(rows, cols, lo, hi, &rng).WithRequiresGrad();
}

// Leaf tensor whose entries have |x| in [min_abs, max_abs) with random sign:
// keeps values away from the Relu/LeakyRelu kink so central differences with
// h < min_abs never cross it.
inline Tensor RandAwayFromZero(util::Rng& rng, int rows, int cols, float min_abs = 0.25f,
                               float max_abs = 2.0f) {
  std::vector<float> v(static_cast<size_t>(rows) * cols);
  for (auto& x : v) {
    const float mag = static_cast<float>(rng.Uniform(min_abs, max_abs));
    x = rng.Bernoulli(0.5) ? mag : -mag;
  }
  return Tensor::FromData(rows, cols, std::move(v)).WithRequiresGrad();
}

// Leaf tensor whose entries are pairwise-distinct with gaps >= `gap`
// (a shuffled grid): keeps SegmentMaxRows argmaxes stable under +/-h
// perturbation as long as 2h < gap.
inline Tensor RandDistinct(util::Rng& rng, int rows, int cols, float gap = 0.4f) {
  const int n = rows * cols;
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(&order);
  std::vector<float> v(n);
  for (int i = 0; i < n; ++i) v[i] = gap * static_cast<float>(order[i] - n / 2);
  return Tensor::FromData(rows, cols, std::move(v)).WithRequiresGrad();
}

// Random segment ids: `count` values in [0, num_segments).
inline std::vector<int> RandSegments(util::Rng& rng, int count, int num_segments) {
  std::vector<int> ids(count);
  for (auto& s : ids) s = rng.UniformInt(num_segments);
  return ids;
}

// ---------------------------------------------------------------------------
// Graph generators
// ---------------------------------------------------------------------------

// A graph description that can be shrunk structurally (unlike graph::Graph,
// which only supports appends).
struct GraphSpec {
  std::string kind = "random";
  int num_nodes = 0;
  std::vector<std::pair<int, int>> edges;  // directed, no self-loops, unique
};

inline graph::Graph MakeGraph(const GraphSpec& spec) {
  graph::Graph g(spec.num_nodes);
  for (const auto& [u, v] : spec.edges) g.AddEdge(u, v);
  return g;
}

inline std::string DescribeGraphSpec(const GraphSpec& spec) {
  std::ostringstream out;
  out << spec.kind << " graph, " << spec.num_nodes << " nodes, edges {";
  for (size_t i = 0; i < spec.edges.size(); ++i) {
    if (i > 0) out << ", ";
    out << spec.edges[i].first << "->" << spec.edges[i].second;
  }
  out << "}";
  return out.str();
}

// Draws one graph of `min_nodes..max_nodes` nodes. Cycles through the
// degenerate families the suites must cover: empty (0 nodes), edgeless
// (self-loop-only layer edges), star, path, dense complete, disconnected
// two-component, and Erdos-Renyi random. When `allow_empty` is false the
// empty and zero-node cases are skipped (for suites that need a target node).
inline GraphSpec GenGraphSpec(util::Rng& rng, int min_nodes, int max_nodes,
                              bool allow_empty = true) {
  GraphSpec spec;
  const int family = rng.UniformInt(allow_empty ? 7 : 6);
  const int n = min_nodes + rng.UniformInt(max_nodes - min_nodes + 1);
  spec.num_nodes = n;
  auto add_undirected = [&spec](int u, int v) {
    spec.edges.emplace_back(u, v);
    spec.edges.emplace_back(v, u);
  };
  switch (family) {
    case 0:  // edgeless: layer edges are self-loops only
      spec.kind = "edgeless";
      break;
    case 1:  // star around a random hub
      spec.kind = "star";
      if (n >= 2) {
        const int hub = rng.UniformInt(n);
        for (int v = 0; v < n; ++v) {
          if (v != hub) add_undirected(hub, v);
        }
      }
      break;
    case 2:  // path
      spec.kind = "path";
      for (int v = 0; v + 1 < n; ++v) add_undirected(v, v + 1);
      break;
    case 3:  // dense: complete directed graph
      spec.kind = "dense";
      for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
          if (u != v) spec.edges.emplace_back(u, v);
        }
      }
      break;
    case 4: {  // disconnected: two dense-ish halves with no cross edges
      spec.kind = "disconnected";
      const int half = n / 2;
      for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
          if (u == v) continue;
          const bool same_side = (u < half) == (v < half);
          if (same_side && rng.Bernoulli(0.6)) spec.edges.emplace_back(u, v);
        }
      }
      break;
    }
    case 5: {  // Erdos-Renyi directed
      spec.kind = "random";
      for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
          if (u != v && rng.Bernoulli(0.25)) spec.edges.emplace_back(u, v);
        }
      }
      break;
    }
    default:  // empty graph: zero nodes, zero edges
      spec.kind = "empty";
      spec.num_nodes = 0;
      break;
  }
  return spec;
}

// Structural shrinks: drop one edge, or drop the highest-numbered node
// (with its incident edges). Ordered so the smallest candidates come first.
inline std::vector<GraphSpec> ShrinkGraphSpec(const GraphSpec& spec) {
  std::vector<GraphSpec> out;
  if (spec.num_nodes > 0) {
    GraphSpec smaller = spec;
    smaller.kind = "shrunk";
    smaller.num_nodes = spec.num_nodes - 1;
    smaller.edges.clear();
    for (const auto& e : spec.edges) {
      if (e.first < smaller.num_nodes && e.second < smaller.num_nodes) smaller.edges.push_back(e);
    }
    out.push_back(std::move(smaller));
  }
  for (size_t i = 0; i < spec.edges.size(); ++i) {
    GraphSpec fewer = spec;
    fewer.kind = "shrunk";
    fewer.edges.erase(fewer.edges.begin() + static_cast<long>(i));
    out.push_back(std::move(fewer));
  }
  return out;
}

inline util::Domain<GraphSpec> GraphDomain(int min_nodes, int max_nodes,
                                           bool allow_empty = true) {
  util::Domain<GraphSpec> domain;
  domain.generate = [min_nodes, max_nodes, allow_empty](util::Rng& rng) {
    return GenGraphSpec(rng, min_nodes, max_nodes, allow_empty);
  };
  domain.shrink = ShrinkGraphSpec;
  domain.describe = DescribeGraphSpec;
  return domain;
}

// ---------------------------------------------------------------------------
// Op harness registry
// ---------------------------------------------------------------------------

// One concrete (op, shape) instance. Shapes and index arguments are fixed at
// construction; `make_inputs` draws only the float values, so the same case
// can be re-run with fresh values per property case or per thread count.
struct OpCase {
  std::string op;       // name in tensor::RegisteredOpNames()
  std::string variant;  // human-readable shape tag, e.g. "5x4" or "0x3"
  bool fd_checkable = true;  // included in the finite-difference suite
  std::function<std::vector<Tensor>(util::Rng&)> make_inputs;
  std::function<Tensor(const std::vector<Tensor>&)> forward;
};

// Builds the full case list. Index arguments (gather/scatter/segment ids,
// NllLoss targets) are drawn from `seed`. When `include_large` is true, adds
// large-shape instances (fd_checkable = false) so the thread-differential
// and NaN-prefill suites also cover long kernel sweeps.
std::vector<OpCase> MakeOpCases(uint64_t seed, bool include_large);

// Runs `c` end to end at deterministic values: builds inputs from
// `value_seed`, runs forward, reduces with OpCaseLoss, backpropagates, and
// returns OpCaseBitstream. Used for bitwise cross-thread comparison.
std::vector<float> RunOpCaseBitstream(const OpCase& c, uint64_t value_seed);

// The loss RunOpCaseBitstream backpropagates: a fixed-weight
// Sum(Mul(output, W)) with W drawn from `value_seed`.
Tensor OpCaseLoss(const Tensor& output, uint64_t value_seed);

// RunOpCaseBitstream's result layout: forward values, the loss, then every
// input gradient.
std::vector<float> OpCaseBitstream(const Tensor& output, const Tensor& loss,
                                   const std::vector<Tensor>& inputs);

// Max relative FD-vs-autograd gradient error for `c` at values drawn from
// `value_seed` (relative to max(1, |analytic|, |numeric|)). Appends a
// description of the worst entry to `detail` when non-null.
double OpCaseMaxGradError(const OpCase& c, uint64_t value_seed, std::string* detail);

}  // namespace revelio::proptest

#endif  // REVELIO_TESTS_PROP_PROP_UTIL_H_
