// google-benchmark microbenchmarks for the hot kernels every experiment sits
// on: matmul, message-passing gather/scatter, flow enumeration, the Eq. 5/7
// mask transformation, and a full masked GNN forward pass.
//
// Before the registered benchmarks run, main() times the fused CSR SpMM
// aggregation against its Gather -> RowScale -> ScatterAdd chain oracle
// across three sizes and writes BENCH_spmm.json (with a bitwise
// fused-vs-chain output check). `--quick` runs only that sweep at reduced
// sizes — the mode the bench-regression ctest uses — and `--spmm-out FILE`
// overrides its output path.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "flow/message_flow.h"
#include "gnn/model.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace revelio;  // NOLINT

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::Randn(n, n, &rng);
  tensor::Tensor b = tensor::Tensor::Randn(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{2} * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_GatherScatter(benchmark::State& state) {
  const int edges = static_cast<int>(state.range(0));
  const int nodes = edges / 4 + 1;
  util::Rng rng(2);
  tensor::Tensor h = tensor::Tensor::Randn(nodes, 32, &rng);
  std::vector<int> src(edges), dst(edges);
  for (int e = 0; e < edges; ++e) {
    src[e] = rng.UniformInt(nodes);
    dst[e] = rng.UniformInt(nodes);
  }
  for (auto _ : state) {
    tensor::Tensor messages = tensor::GatherRows(h, src);
    benchmark::DoNotOptimize(tensor::ScatterAddRows(messages, dst, nodes));
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_GatherScatter)->Arg(1024)->Arg(8192);

void BM_FlowEnumeration(benchmark::State& state) {
  const int branching = static_cast<int>(state.range(0));
  // In-tree of depth 3 toward node 0.
  int nodes = 1 + branching + branching * branching + branching * branching * branching;
  graph::Graph g(nodes);
  int next = 1;
  std::vector<int> frontier{0};
  for (int depth = 0; depth < 3; ++depth) {
    std::vector<int> next_frontier;
    for (int parent : frontier) {
      for (int child = 0; child < branching; ++child) {
        g.AddEdge(next, parent);
        next_frontier.push_back(next++);
      }
    }
    frontier = std::move(next_frontier);
  }
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(g);
  int64_t flows = 0;
  for (auto _ : state) {
    flow::FlowSet set = flow::EnumerateFlowsToTarget(edges, 0, 3);
    flows = set.num_flows();
    benchmark::DoNotOptimize(set);
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowEnumeration)->Arg(3)->Arg(6)->Arg(9);

void BM_MaskTransformation(benchmark::State& state) {
  // Eq. 7: omega[E] = sigmoid(I * omega[F] (.) exp(w)) via scatter-add.
  const int branching = static_cast<int>(state.range(0));
  int nodes = 1 + branching + branching * branching + branching * branching * branching;
  graph::Graph g(nodes);
  int next = 1;
  std::vector<int> frontier{0};
  for (int depth = 0; depth < 3; ++depth) {
    std::vector<int> next_frontier;
    for (int parent : frontier) {
      for (int child = 0; child < branching; ++child) {
        g.AddEdge(next, parent);
        next_frontier.push_back(next++);
      }
    }
    frontier = std::move(next_frontier);
  }
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(g);
  flow::FlowSet flows = flow::EnumerateFlowsToTarget(edges, 0, 3);
  util::Rng rng(3);
  tensor::Tensor mask_params =
      tensor::Tensor::Randn(flows.num_flows(), 1, &rng).WithRequiresGrad();
  tensor::Tensor layer_weights = tensor::Tensor::Zeros(3, 1).WithRequiresGrad();
  for (auto _ : state) {
    tensor::Tensor omega = tensor::Tanh(mask_params);
    tensor::Tensor scale = tensor::Exp(layer_weights);
    for (int l = 0; l < 3; ++l) {
      tensor::Tensor accumulated =
          tensor::ScatterAddRows(omega, flows.EdgesAtLayer(l), flows.num_layer_edges());
      benchmark::DoNotOptimize(tensor::Sigmoid(
          tensor::ScaleByScalarTensor(accumulated, tensor::Select(scale, l, 0))));
    }
  }
  state.SetItemsProcessed(state.iterations() * flows.num_flows() * 3);
}
BENCHMARK(BM_MaskTransformation)->Arg(4)->Arg(8);

void BM_MaskedGnnForward(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  util::Rng rng(5);
  graph::Graph g(nodes);
  for (int v = 1; v < nodes; ++v) g.AddUndirectedEdge(v, rng.UniformInt(v));
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGcn;
  config.input_dim = 16;
  config.hidden_dim = 32;
  config.num_classes = 4;
  gnn::GnnModel model(config);
  tensor::Tensor x = tensor::Tensor::Randn(nodes, 16, &rng);
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(g);
  std::vector<tensor::Tensor> masks(
      3, tensor::Tensor::Full(edges.num_layer_edges(), 1, 0.7f));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Run(g, edges, x, masks).logits);
  }
  state.SetItemsProcessed(state.iterations() * edges.num_layer_edges());
}
BENCHMARK(BM_MaskedGnnForward)->Arg(128)->Arg(1024);

void BM_SpmmCsr(benchmark::State& state) {
  const int edges = static_cast<int>(state.range(0));
  const int nodes = edges / 4 + 1;
  util::Rng rng(6);
  tensor::Tensor x = tensor::Tensor::Randn(nodes, 32, &rng);
  tensor::Tensor w = tensor::Tensor::Uniform(edges, 1, 0.2f, 1.5f, &rng);
  std::vector<int> rows(edges), cols(edges);
  for (int e = 0; e < edges; ++e) {
    rows[e] = rng.UniformInt(nodes);
    cols[e] = rng.UniformInt(nodes);
  }
  const tensor::CsrPatternRef pattern = tensor::BuildCsrPattern(nodes, nodes, rows, cols);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::SpmmCsrWeighted(pattern, w, x));
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_SpmmCsr)->Arg(1024)->Arg(8192);

// --- Fused SpMM vs chain oracle sweep (BENCH_spmm.json) ----------------------

struct SpmmPoint {
  int edges = 0;
  int nodes = 0;
  int dim = 0;
  double chain_seconds = 0.0;
  double fused_seconds = 0.0;
  double fused_speedup = 0.0;
  bool bitwise_equal = false;  // fused output vs chain output
};

// Times the fused SpmmCsrWeighted forward against the
// Gather -> RowScale -> ScatterAdd chain oracle on 1 thread (the paths are
// bitwise-equal, so the comparison is pure kernel cost). Min-of-5 trials
// per path, repetitions sized so each trial is long enough to time.
std::vector<SpmmPoint> RunSpmmSweep(bool quick) {
  util::SetNumThreads(1);
  struct Size {
    int edges, nodes, dim;
  };
  const std::vector<Size> sizes =
      quick ? std::vector<Size>{{1 << 10, 1 << 8, 32}, {1 << 13, 1 << 11, 32},
                                {1 << 15, 1 << 13, 32}}
            : std::vector<Size>{{1 << 12, 1 << 10, 64}, {1 << 15, 1 << 13, 64},
                                {1 << 17, 1 << 15, 64}};
  std::vector<SpmmPoint> points;
  util::Rng rng(21);
  for (const Size& s : sizes) {
    std::vector<int> dst(s.edges), src(s.edges);
    for (int e = 0; e < s.edges; ++e) {
      dst[e] = rng.UniformInt(s.nodes);
      src[e] = rng.UniformInt(s.nodes);
    }
    const tensor::CsrPatternRef pattern = tensor::BuildCsrPattern(s.nodes, s.nodes, dst, src);
    tensor::Tensor x = tensor::Tensor::Randn(s.nodes, s.dim, &rng);
    tensor::Tensor w = tensor::Tensor::Uniform(s.edges, 1, 0.2f, 1.5f, &rng);

    auto chain = [&] {
      return tensor::ScatterAddRows(tensor::RowScale(tensor::GatherRows(x, src), w), dst,
                                    s.nodes);
    };
    auto fused = [&] { return tensor::SpmmCsrWeighted(pattern, w, x); };

    SpmmPoint point;
    point.edges = s.edges;
    point.nodes = s.nodes;
    point.dim = s.dim;
    point.bitwise_equal = chain().values() == fused().values();  // also warms caches

    const int reps = std::max(1, (1 << 23) / (s.edges * s.dim));
    constexpr int kTrials = 5;
    auto time_best = [reps](const std::function<tensor::Tensor()>& run) {
      double best = std::numeric_limits<double>::infinity();
      for (int trial = 0; trial < kTrials; ++trial) {
        util::Timer timer;
        for (int r = 0; r < reps; ++r) {
          tensor::Tensor out = run();
          benchmark::DoNotOptimize(out);
        }
        best = std::min(best, timer.ElapsedSeconds());
      }
      return best / reps;
    };
    point.chain_seconds = time_best(chain);
    point.fused_seconds = time_best(fused);
    point.fused_speedup =
        point.fused_seconds > 0.0 ? point.chain_seconds / point.fused_seconds : 0.0;
    points.push_back(point);
  }
  return points;
}

void WriteSpmmJson(const std::vector<SpmmPoint>& points, const std::string& path) {
  bench::WriteBenchJson(path, "spmm_fused_vs_chain", [&](obs::JsonWriter* w) {
    w->BeginObject();
    w->Key("points");
    w->BeginArray();
    for (const SpmmPoint& p : points) {
      w->BeginObject();
      w->Key("edges");
      w->Int(p.edges);
      w->Key("nodes");
      w->Int(p.nodes);
      w->Key("dim");
      w->Int(p.dim);
      w->Key("chain_seconds");
      w->Double(p.chain_seconds);
      w->Key("fused_seconds");
      w->Double(p.fused_seconds);
      w->Key("fused_speedup");
      w->Double(p.fused_speedup);
      w->Key("bitwise_equal");
      w->Bool(p.bitwise_equal);
      w->EndObject();
    }
    w->EndArray();
    w->EndObject();
  });
}

void RunSpmmSweepAndReport(bool quick, const std::string& out_path) {
  std::printf("== fused SpMM vs chain oracle sweep (writes %s) ==\n", out_path.c_str());
  const std::vector<SpmmPoint> points = RunSpmmSweep(quick);
  for (const SpmmPoint& p : points) {
    std::printf(
        "spmm edges=%-7d nodes=%-6d dim=%-3d  chain %8.5fs  fused %8.5fs  "
        "speedup=%5.2fx  bitwise_equal=%s\n",
        p.edges, p.nodes, p.dim, p.chain_seconds, p.fused_seconds, p.fused_speedup,
        p.bitwise_equal ? "yes" : "NO");
  }
  WriteSpmmJson(points, out_path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  // benchmark::Initialize strips its own flags; what remains is ours.
  util::Flags flags(argc, argv);
  bench::InitTelemetry(flags, nullptr, nullptr);
  if (flags.Has("threads")) util::SetNumThreads(flags.GetInt("threads", 1));
  const bool quick = flags.GetBool("quick", false);
  const std::string spmm_out = flags.GetString("spmm-out", "BENCH_spmm.json");
  if (quick) {
    // Reduced-size SpMM sweep only: the bench-regression ctest path.
    RunSpmmSweepAndReport(/*quick=*/true, spmm_out);
    benchmark::Shutdown();
    return 0;
  }
  RunSpmmSweepAndReport(/*quick=*/false, spmm_out);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
