// Tests for util::ParallelFor and the determinism contract of the parallel
// tensor kernels: every index covered exactly once under adversarial grain
// sizes, chunks of exactly `grain` items, and bitwise-identical results for
// 1 vs N worker threads.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/revelio.h"
#include "gnn/model.h"
#include "gnn/trainer.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "plan/plan.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace revelio {
namespace {

// Every test leaves the process-wide thread count back at 1 so test order
// does not matter.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { util::SetNumThreads(1); }
};

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce) {
  util::SetNumThreads(4);
  const int64_t kRanges[] = {0, 1, 2, 3, 7, 64, 1000, 1001};
  const int64_t kGrains[] = {-3, 0, 1, 3, 7, 63, 64, 65, 1005};
  for (int64_t n : kRanges) {
    for (int64_t grain : kGrains) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      util::ParallelFor(0, n, grain, [&hits, n](int64_t begin, int64_t end) {
        ASSERT_GE(begin, 0);
        ASSERT_LE(end, n);
        ASSERT_LE(begin, end);
        for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i << " range " << n << " grain " << grain;
      }
    }
  }
}

TEST_F(ParallelTest, NonZeroBeginCoversExactRange) {
  util::SetNumThreads(3);
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h.store(0);
  util::ParallelFor(17, 83, 5, [&hits](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 17 && i < 83) ? 1 : 0) << i;
  }
}

// The chunks fn saw, sorted by begin. Chunks may run concurrently.
template <typename Run>
std::vector<std::pair<int64_t, int64_t>> RecordChunks(Run run) {
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  run([&mu, &chunks](int64_t begin, int64_t end) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(begin, end);
  });
  std::sort(chunks.begin(), chunks.end());
  return chunks;
}

TEST_F(ParallelTest, ChunksHoldExactlyGrainItems) {
  util::SetNumThreads(4);
  // Grain 1 over 64 items: 64 one-item claims, not 4 fixed slices of 16.
  const auto singles = RecordChunks([](const auto& fn) { util::ParallelFor(0, 64, 1, fn); });
  ASSERT_EQ(singles.size(), 64u);
  for (int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(singles[i], std::make_pair(i, i + 1)) << "chunk " << i;
  }

  // 66 items at grain 5: thirteen 5-item chunks and a last chunk of 1.
  const auto fives = RecordChunks([](const auto& fn) { util::ParallelFor(17, 83, 5, fn); });
  ASSERT_EQ(fives.size(), 14u);
  for (size_t c = 0; c < fives.size(); ++c) {
    const int64_t begin = 17 + 5 * static_cast<int64_t>(c);
    EXPECT_EQ(fives[c], std::make_pair(begin, std::min<int64_t>(begin + 5, 83))) << "chunk " << c;
  }
  EXPECT_EQ(fives.back(), std::make_pair(int64_t{82}, int64_t{83}));
}

TEST_F(ParallelTest, EmptyAndReversedRangesAreNoOps) {
  util::SetNumThreads(4);
  int calls = 0;
  util::ParallelFor(5, 5, 1, [&calls](int64_t, int64_t) { ++calls; });
  util::ParallelFor(9, 2, 1, [&calls](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST_F(ParallelTest, NestedCallsRunSerially) {
  util::SetNumThreads(4);
  std::atomic<int> inner_total{0};
  util::ParallelFor(0, 8, 1, [&inner_total](int64_t begin, int64_t end) {
    EXPECT_TRUE(util::InParallelRegion());
    for (int64_t i = begin; i < end; ++i) {
      // Must not deadlock and must still cover its range (serially).
      util::ParallelFor(0, 10, 1,
                        [&inner_total](int64_t b, int64_t e) {
                          inner_total.fetch_add(static_cast<int>(e - b));
                        });
    }
  });
  EXPECT_EQ(inner_total.load(), 80);
  EXPECT_FALSE(util::InParallelRegion());
}

TEST_F(ParallelTest, ConcurrentParallelForFromManyThreads) {
  util::SetNumThreads(4);
  constexpr int kCallers = 6;
  std::vector<int64_t> sums(kCallers, 0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([t, &sums] {
      std::vector<std::atomic<int64_t>> partial(1);
      partial[0].store(0);
      util::ParallelFor(0, 5000, 64, [&partial](int64_t begin, int64_t end) {
        int64_t local = 0;
        for (int64_t i = begin; i < end; ++i) local += i;
        partial[0].fetch_add(local);
      });
      sums[t] = partial[0].load();
    });
  }
  for (auto& caller : callers) caller.join();
  for (int t = 0; t < kCallers; ++t) EXPECT_EQ(sums[t], 5000LL * 4999 / 2);
}

TEST_F(ParallelTest, SetNumThreadsIsRespected) {
  util::SetNumThreads(2);
  EXPECT_EQ(util::NumThreads(), 2);
  util::SetNumThreads(7);
  EXPECT_EQ(util::NumThreads(), 7);
}

// --- Bitwise 1-vs-N determinism of the tensor kernels -----------------------

// Runs `compute` under `threads` workers and returns the flat values of its
// result tensors.
template <typename Fn>
auto RunWithThreads(int threads, Fn compute) {
  util::SetNumThreads(threads);
  return compute();
}

TEST_F(ParallelTest, MatMulForwardBackwardBitwiseIdentical) {
  // Non-divisible sizes, above the parallel grain thresholds.
  auto compute = [] {
    util::Rng rng(5);
    tensor::Tensor a = tensor::Tensor::Randn(64, 129, &rng).WithRequiresGrad();
    tensor::Tensor b = tensor::Tensor::Randn(129, 97, &rng).WithRequiresGrad();
    tensor::Tensor c = tensor::MatMul(a, b);
    tensor::Sum(c).Backward();
    std::vector<float> flat = c.values();
    const std::vector<float> ga = a.GradData();
    const std::vector<float> gb = b.GradData();
    flat.insert(flat.end(), ga.begin(), ga.end());
    flat.insert(flat.end(), gb.begin(), gb.end());
    return flat;
  };
  const std::vector<float> serial = RunWithThreads(1, compute);
  for (int threads : {2, 4, 5}) {
    EXPECT_EQ(RunWithThreads(threads, compute), serial) << threads << " threads";
  }
}

TEST_F(ParallelTest, GatherScatterGradientsBitwiseIdentical) {
  auto compute = [] {
    util::Rng rng(6);
    const int nodes = 700;
    const int edges = 4000;
    tensor::Tensor h = tensor::Tensor::Randn(nodes, 24, &rng).WithRequiresGrad();
    std::vector<int> src(edges), dst(edges);
    for (int e = 0; e < edges; ++e) {
      src[e] = rng.UniformInt(nodes);
      dst[e] = rng.UniformInt(nodes);
    }
    tensor::Tensor messages = tensor::GatherRows(h, src);
    tensor::Tensor aggregated = tensor::ScatterAddRows(messages, dst, nodes);
    tensor::Sum(tensor::Mul(aggregated, aggregated)).Backward();
    std::vector<float> flat = aggregated.values();
    const std::vector<float> gh = h.GradData();
    flat.insert(flat.end(), gh.begin(), gh.end());
    return flat;
  };
  const std::vector<float> serial = RunWithThreads(1, compute);
  for (int threads : {2, 4}) {
    EXPECT_EQ(RunWithThreads(threads, compute), serial) << threads << " threads";
  }
}

TEST_F(ParallelTest, SegmentSoftmaxBitwiseIdentical) {
  auto compute = [] {
    util::Rng rng(7);
    const int entries = 5000;
    const int segments = 40;
    tensor::Tensor values = tensor::Tensor::Randn(entries, 1, &rng).WithRequiresGrad();
    std::vector<int> seg(entries);
    for (int i = 0; i < entries; ++i) seg[i] = rng.UniformInt(segments);
    tensor::Tensor soft = tensor::SegmentSoftmax(values, seg, segments);
    tensor::Sum(tensor::Mul(soft, soft)).Backward();
    std::vector<float> flat = soft.values();
    const std::vector<float> gv = values.GradData();
    flat.insert(flat.end(), gv.begin(), gv.end());
    return flat;
  };
  const std::vector<float> serial = RunWithThreads(1, compute);
  for (int threads : {2, 4}) {
    EXPECT_EQ(RunWithThreads(threads, compute), serial) << threads << " threads";
  }
}

TEST_F(ParallelTest, OddShapesStayBitwiseAcrossThreadsWithSimd) {
  // Regression for the SIMD tier (tensor/simd.h): owner-computes chunk
  // boundaries land mid-vector on shapes that are not multiples of the lane
  // width, shifting iterations between one chunk's vector body and another's
  // scalar tail. Those must compute identical bits at every thread count.
  tensor::simd::SetEnabled(true);
  struct Shape {
    int rows, cols;
  };
  // 7, 13, 61: coprime to every supported lane width (1/4/8).
  for (const Shape s : {Shape{601, 61}, Shape{7, 13}, Shape{1, 7}}) {
    auto compute = [s] {
      util::Rng rng(11);
      tensor::Tensor a = tensor::Tensor::Randn(s.rows, s.cols, &rng).WithRequiresGrad();
      tensor::Tensor b = tensor::Tensor::Randn(s.rows, s.cols, &rng).WithRequiresGrad();
      tensor::Tensor y = tensor::Relu(tensor::Mul(tensor::Add(a, b), a));
      tensor::Sum(y).Backward();
      std::vector<float> flat = y.values();
      const std::vector<float> ga = a.GradData();
      const std::vector<float> gb = b.GradData();
      flat.insert(flat.end(), ga.begin(), ga.end());
      flat.insert(flat.end(), gb.begin(), gb.end());
      return flat;
    };
    const std::vector<float> serial = RunWithThreads(1, compute);
    for (int threads : {2, 7, 16}) {
      EXPECT_EQ(RunWithThreads(threads, compute), serial)
          << s.rows << "x" << s.cols << " at " << threads << " threads";
    }
  }
  tensor::simd::SetEnabled(tensor::simd::Lanes() > 1);
}

TEST_F(ParallelTest, MatMulGradAWorkloadShapesBitwiseAcrossSimdAndThreads) {
  // MatMul's dA at the shapes the explanation workloads run: (n, k, m) for
  // A = n x k, a frozen weight B = k x m, and an upstream gradient G = n x m
  // with about half its entries exactly 0, like a ReLU-masked gradient. The
  // SIMD path (row-axpy against B^T, zero entries of G skipped) must match
  // the scalar dot loop bit for bit, at every thread count.
  struct Shape {
    int n, k, m;
  };
  for (const Shape s : {Shape{37, 32, 4}, Shape{37, 4, 1}, Shape{601, 32, 32}, Shape{5, 13, 7},
                        Shape{1, 7, 1}}) {
    auto compute = [s] {
      util::Rng rng(13);
      tensor::Tensor a = tensor::Tensor::Randn(s.n, s.k, &rng).WithRequiresGrad();
      const tensor::Tensor b = tensor::Tensor::Randn(s.k, s.m, &rng);
      tensor::Tensor g = tensor::Tensor::Randn(s.n, s.m, &rng);
      for (float& v : *g.mutable_values()) {
        if (rng.Uniform() < 0.5) v = 0.0f;
      }
      // d/dC sum(C * G) = 1 * G: the MatMul receives G exactly.
      tensor::Sum(tensor::Mul(tensor::MatMul(a, b), g)).Backward();
      const std::vector<float> ga = a.GradData();
      std::vector<uint32_t> bits(ga.size());
      std::memcpy(bits.data(), ga.data(), ga.size() * sizeof(float));
      return bits;
    };
    tensor::simd::SetEnabled(false);
    util::SetNumThreads(1);
    const std::vector<uint32_t> reference = compute();
    for (const bool simd_on : {false, true}) {
      tensor::simd::SetEnabled(simd_on);
      for (int threads : {1, 2, 7}) {
        EXPECT_EQ(RunWithThreads(threads, compute), reference)
            << "(" << s.n << "," << s.k << "," << s.m << ") simd=" << simd_on << " at "
            << threads << " threads";
      }
    }
  }
  tensor::simd::SetEnabled(tensor::simd::Lanes() > 1);
}

TEST_F(ParallelTest, GcnTrainingStepBitwiseIdentical) {
  // A full training run: forward, loss, backward, SGD updates. Any ordering
  // difference in any kernel would compound across epochs and show up here.
  auto compute = [] {
    util::Rng rng(8);
    const int nodes = 400;
    graph::Graph g(nodes);
    for (int v = 1; v < nodes; ++v) g.AddUndirectedEdge(v, rng.UniformInt(v));
    tensor::Tensor features = tensor::Tensor::Randn(nodes, 16, &rng);
    std::vector<int> labels(nodes);
    for (int v = 0; v < nodes; ++v) labels[v] = rng.UniformInt(3);

    gnn::GnnConfig config;
    config.arch = gnn::GnnArch::kGcn;
    config.input_dim = 16;
    config.hidden_dim = 64;
    config.num_classes = 3;
    config.seed = 99;
    gnn::GnnModel model(config);

    gnn::TrainConfig train_config;
    train_config.epochs = 2;
    util::Rng split_rng(9);
    const gnn::Split split = gnn::MakeSplit(nodes, 0.8, 0.1, &split_rng);
    gnn::TrainNodeModel(&model, g, features, labels, split, train_config);

    std::vector<float> flat;
    for (const auto& p : model.Parameters()) {
      flat.insert(flat.end(), p.values().begin(), p.values().end());
    }
    return flat;
  };
  const std::vector<float> serial = RunWithThreads(1, compute);
  for (int threads : {2, 4}) {
    EXPECT_EQ(RunWithThreads(threads, compute), serial) << threads << " threads";
  }
}

// --- One parallel axis: instances, never kernels ---------------------------

// Counts pool dispatches (ParallelFor calls that forked) made while `run`
// executes. Counters only count with telemetry on.
template <typename Fn>
uint64_t DispatchesDuring(Fn run) {
  obs::Counter* dispatches = obs::MetricsRegistry::Global().GetCounter("parallel.dispatches");
  const uint64_t before = dispatches->Total();
  run();
  return dispatches->Total() - before;
}

TEST_F(ParallelTest, OnlyInstanceParallelBatchesDispatchToThePool) {
  // Explanation-sized tensors: a 40-node graph with 32-wide hidden layers.
  util::Rng rng(21);
  const int nodes = 40;
  graph::Graph g(nodes);
  for (int v = 1; v < nodes; ++v) g.AddUndirectedEdge(v, rng.UniformInt(v));
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGcn;
  config.input_dim = 16;
  config.hidden_dim = 32;
  config.num_classes = 3;
  gnn::GnnModel model(config);
  model.Freeze();
  const tensor::Tensor features = tensor::Tensor::Randn(nodes, config.input_dim, &rng);
  std::vector<explain::ExplanationTask> tasks(4);
  for (int i = 0; i < 4; ++i) {
    tasks[i].model = &model;
    tasks[i].graph = &g;
    tasks[i].features = features;
    tasks[i].target_node = i;
  }
  core::RevelioOptions options;
  options.epochs = 3;  // epoch 0 records the plan, epochs 1-2 replay it
  core::RevelioExplainer revelio(options);

  obs::SetEnabled(true);
  const bool plans_were_on = plan::ExecPlanEnabled();
  plan::SetExecPlanEnabled(true);
  util::SetNumThreads(4);
  obs::Counter* replays = obs::MetricsRegistry::Global().GetCounter("plan.replays");
  const uint64_t replays_before = replays->Total();

  explain::Explanation lone;
  EXPECT_EQ(DispatchesDuring(
                [&] { lone = revelio.Explain(tasks[0], explain::Objective::kFactual); }),
            0u)
      << "a lone Explain forks inside its kernels or plan replay";
  ASSERT_TRUE(lone.status.ok()) << lone.status.ToString();
  EXPECT_GE(replays->Total() - replays_before, 2u) << "the plan was never replayed";

  std::vector<explain::Explanation> single;
  EXPECT_EQ(DispatchesDuring([&] {
              single = revelio.ExplainBatch({&tasks[0]}, explain::Objective::kFactual);
            }),
            0u)
      << "a one-task batch forks";
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].edge_scores, lone.edge_scores);

  std::vector<explain::Explanation> batch;
  EXPECT_GE(DispatchesDuring([&] {
              batch = revelio.ExplainBatch({&tasks[0], &tasks[1], &tasks[2], &tasks[3]},
                                           explain::Objective::kFactual);
            }),
            1u)
      << "a 4-task batch at 4 threads must run its instances side by side";
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].edge_scores, lone.edge_scores);

  plan::SetExecPlanEnabled(plans_were_on);
  obs::SetEnabled(false);
}

}  // namespace
}  // namespace revelio
