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
//
// A second sweep (`--simd-sweep`, writes BENCH_simd.json) times the scalar
// loops against the SIMD tier (tensor/simd.h) at 1 thread — interleaved
// min-of-N over elementwise/matmul/SpMM. `--simd-out FILE` overrides its
// output path.

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
#include "tensor/simd.h"
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

// --- SIMD tier sweep (BENCH_simd.json) ---------------------------------------

struct SimdPoint {
  std::string kernel;
  int64_t elements = 0;         // flat work size, used to pick the largest point
  double scalar_seconds = 0.0;  // REVELIO_SIMD=0 path
  double simd_seconds = 0.0;
  double simd_speedup = 0.0;
  bool bitwise_equal = false;  // SIMD output vs scalar output (forward only)
};

// Interleaved min-of-N A/B timing of `run` with the SIMD toggle off vs on,
// at 1 thread: alternating per trial cancels frequency drift on a loaded
// single-core host, min-of-trials cancels scheduler noise.
template <typename Fn>
void TimeScalarVsSimd(Fn run, int reps, SimdPoint* point) {
  constexpr int kTrials = 5;
  auto time_reps = [&run, reps] {
    util::Timer timer;
    for (int r = 0; r < reps; ++r) {
      tensor::Tensor out = run();
      benchmark::DoNotOptimize(out);
    }
    return timer.ElapsedSeconds();
  };
  point->scalar_seconds = std::numeric_limits<double>::infinity();
  point->simd_seconds = std::numeric_limits<double>::infinity();
  tensor::simd::SetEnabled(false);
  const std::vector<float> scalar_out = run().values();
  tensor::simd::SetEnabled(true);
  point->bitwise_equal = run().values() == scalar_out;  // also warms both paths
  for (int trial = 0; trial < kTrials; ++trial) {
    tensor::simd::SetEnabled(false);
    point->scalar_seconds = std::min(point->scalar_seconds, time_reps());
    tensor::simd::SetEnabled(true);
    point->simd_seconds = std::min(point->simd_seconds, time_reps());
  }
  point->scalar_seconds /= reps;
  point->simd_seconds /= reps;
  point->simd_speedup =
      point->simd_seconds > 0.0 ? point->scalar_seconds / point->simd_seconds : 0.0;
}

// Scalar-vs-SIMD on the three kernel families the explanation hot path is
// made of. Sizes are L1/L2-resident on purpose: explanation training and
// fidelity probes work on small-graph tensors (KBs to a few MB); DRAM-bound
// sizes would only measure memory bandwidth.
void RunSimdSweep(bool quick, std::vector<SimdPoint>* points) {
  util::SetNumThreads(1);
  util::Rng rng(41);

  // Elementwise: a plan-replayed elementwise chain (add -> mul -> relu).
  const std::vector<int64_t> ew_sizes =
      quick ? std::vector<int64_t>{1 << 12, 1 << 16} : std::vector<int64_t>{1 << 12, 1 << 18};
  for (const int64_t n : ew_sizes) {
    tensor::Tensor a = tensor::Tensor::Randn(static_cast<int>(n / 64), 64, &rng);
    tensor::Tensor b = tensor::Tensor::Randn(static_cast<int>(n / 64), 64, &rng);
    SimdPoint point;
    point.kernel = "elementwise_" + std::to_string(n);
    point.elements = n;
    const int reps = static_cast<int>(std::max<int64_t>(1, (1 << 22) / n));
    TimeScalarVsSimd([&] { return tensor::Relu(tensor::Mul(tensor::Add(a, b), a)); }, reps,
                     &point);
    points->push_back(point);
  }

  // MatMul forward (n = k = m).
  const std::vector<int> mm_sizes = quick ? std::vector<int>{48, 96} : std::vector<int>{64, 160};
  for (const int n : mm_sizes) {
    tensor::Tensor a = tensor::Tensor::Randn(n, n, &rng);
    tensor::Tensor b = tensor::Tensor::Randn(n, n, &rng);
    SimdPoint point;
    point.kernel = "matmul_" + std::to_string(n);
    point.elements = int64_t{1} * n * n * n;
    const int reps = static_cast<int>(std::max<int64_t>(1, (1 << 24) / point.elements));
    TimeScalarVsSimd([&] { return tensor::MatMul(a, b); }, reps, &point);
    points->push_back(point);
  }

  // SpMM forward (per-edge axpy over the feature row).
  const std::vector<int> spmm_edges =
      quick ? std::vector<int>{1 << 11, 1 << 13} : std::vector<int>{1 << 12, 1 << 15};
  for (const int edges : spmm_edges) {
    const int nodes = edges / 4 + 1;
    const int dim = 32;
    tensor::Tensor x = tensor::Tensor::Randn(nodes, dim, &rng);
    tensor::Tensor w = tensor::Tensor::Uniform(edges, 1, 0.2f, 1.5f, &rng);
    std::vector<int> dst(edges), src(edges);
    for (int e = 0; e < edges; ++e) {
      dst[e] = rng.UniformInt(nodes);
      src[e] = rng.UniformInt(nodes);
    }
    const tensor::CsrPatternRef pattern = tensor::BuildCsrPattern(nodes, nodes, dst, src);
    SimdPoint point;
    point.kernel = "spmm_" + std::to_string(edges) + "x" + std::to_string(dim);
    point.elements = int64_t{1} * edges * dim;
    const int reps = static_cast<int>(std::max<int64_t>(1, (1 << 22) / point.elements));
    TimeScalarVsSimd([&] { return tensor::SpmmCsrWeighted(pattern, w, x); }, reps, &point);
    points->push_back(point);
  }

  tensor::simd::SetEnabled(tensor::simd::Lanes() > 1);
}

void WriteSimdJson(const std::vector<SimdPoint>& points, const std::string& path) {
  bench::WriteBenchJson(path, "simd_sweep", [&](obs::JsonWriter* w) {
    w->BeginObject();
    w->Key("isa");
    w->String(tensor::simd::IsaName());
    w->Key("lanes");
    w->Int(tensor::simd::Lanes());
    w->Key("points");
    w->BeginArray();
    for (const SimdPoint& p : points) {
      w->BeginObject();
      w->Key("kernel");
      w->String(p.kernel);
      w->Key("elements");
      w->Int(p.elements);
      w->Key("scalar_seconds");
      w->Double(p.scalar_seconds);
      w->Key("simd_seconds");
      w->Double(p.simd_seconds);
      w->Key("simd_speedup");
      w->Double(p.simd_speedup);
      w->Key("bitwise_equal");
      w->Bool(p.bitwise_equal);
      w->EndObject();
    }
    w->EndArray();
    w->EndObject();
  });
}

void RunSimdSweepAndReport(bool quick, const std::string& out_path) {
  std::printf("== scalar vs SIMD sweep, 1 thread, %s/%d lanes (writes %s) ==\n",
              tensor::simd::IsaName(), tensor::simd::Lanes(), out_path.c_str());
  std::vector<SimdPoint> points;
  RunSimdSweep(quick, &points);
  for (const SimdPoint& p : points) {
    std::printf("%-22s scalar %9.6fs  simd %9.6fs  speedup=%5.2fx  bitwise_equal=%s\n",
                p.kernel.c_str(), p.scalar_seconds, p.simd_seconds, p.simd_speedup,
                p.bitwise_equal ? "yes" : "NO");
  }
  WriteSimdJson(points, out_path);
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
  const std::string simd_out = flags.GetString("simd-out", "BENCH_simd.json");
  if (flags.GetBool("simd-sweep", false)) {
    // Scalar-vs-SIMD sweep only: the simd-regression ctest
    // path (with `--quick` sizes when combined).
    RunSimdSweepAndReport(quick, simd_out);
    benchmark::Shutdown();
    return 0;
  }
  if (quick) {
    // Reduced-size SpMM sweep only: the bench-regression ctest path.
    RunSpmmSweepAndReport(/*quick=*/true, spmm_out);
    benchmark::Shutdown();
    return 0;
  }
  RunSpmmSweepAndReport(/*quick=*/false, spmm_out);
  RunSimdSweepAndReport(/*quick=*/false, simd_out);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
