// SIMD tier equivalence (src/tensor/simd.h, DESIGN.md §13): every registered
// tensor op must produce the same forward values, loss, and input gradients
// with SIMD dispatch on as the scalar loops produce with it off, under the
// op's DECLARED tolerance class:
//
//   bitwise       everything except the two DotF32 reductions below — the
//                 vector kernels preserve the serial fold order exactly
//                 (separate mul+add, no FMA, owner-computes partitioning),
//                 MatMul included: its dA runs the row-axpy body against
//                 the transposed weight, folding in the scalar loop's order;
//   ulp-bounded   SpmmCsrWeighted backward dW and RowScale backward dscale,
//                 whose shared lane-partial DotF32 reduces in a different
//                 order than the serial loop.
//
// The grid runs threads {1, 2, 7, 16}; a separate test pins
// the SIMD path itself bitwise across thread counts (chunk boundaries only
// shift the vector-body/tail split, never the bits), and a plan-session test
// proves replayed tapes honor the runtime toggle because dispatch lives
// inside the recorded chunk closures, not at record time.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "plan/plan.h"
#include "prop/prop_util.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/parallel.h"
#include "util/proptest.h"
#include "util/rng.h"

namespace revelio::proptest {
namespace {

using tensor::Tensor;

constexpr uint64_t kSeed = 20260808;

// The declared tolerance class for comparing an op's SIMD stream against its
// scalar stream. The ulp bound is generous for the reordered reductions; the
// absolute floor absorbs entries where the dot cancels to near zero.
util::Tolerance ToleranceFor(const std::string& op) {
  if (op == "SpmmCsrWeighted" || op == "RowScale") {
    return util::Tolerance::Ulps(256, /*abs_floor=*/1e-3);
  }
  return util::Tolerance::Bitwise();
}

class SimdEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::SetNumThreads(1);
    tensor::simd::SetEnabled(tensor::simd::Lanes() > 1);
    plan::SetExecPlanEnabled(true);
  }
};

TEST_F(SimdEquivalenceTest, AllOpsMatchScalarUnderDeclaredTolerance) {
  const std::vector<OpCase> cases = MakeOpCases(kSeed, /*include_large=*/true);
  ASSERT_FALSE(cases.empty());
  for (const OpCase& c : cases) {
    // Scalar reference: SIMD off, one thread.
    util::SetNumThreads(1);
    tensor::simd::SetEnabled(false);
    const std::vector<float> reference = RunOpCaseBitstream(c, kSeed ^ 0xabcdULL);

    tensor::simd::SetEnabled(true);
    const util::Tolerance tolerance = ToleranceFor(c.op);
    for (const int threads : {1, 2, 7, 16}) {
      util::SetNumThreads(threads);
      const std::vector<float> simd = RunOpCaseBitstream(c, kSeed ^ 0xabcdULL);
      ASSERT_EQ(simd.size(), reference.size()) << c.op << " " << c.variant;
      const std::string failure = util::CompareFloatStreams(
          simd.data(), reference.data(), static_cast<int64_t>(simd.size()), tolerance,
          c.op + "/" + c.variant + " threads=" + std::to_string(threads));
      EXPECT_TRUE(failure.empty()) << failure;
    }
  }
}

// The SIMD path must itself be bitwise deterministic across thread counts —
// including the ulp-bounded reductions, whose lane partials are fixed by
// element index, not by chunk assignment. Owner-computes partitioning means a
// chunk boundary landing mid-vector only moves iterations between the vector
// body of one chunk and the tail of another, computing identical bits.
TEST_F(SimdEquivalenceTest, SimdPathIsBitwiseDeterministicAcrossThreads) {
  if (tensor::simd::Lanes() == 1) GTEST_SKIP() << "scalar build: nothing to pin";
  tensor::simd::SetEnabled(true);
  const std::vector<OpCase> cases = MakeOpCases(kSeed + 1, /*include_large=*/true);
  for (const OpCase& c : cases) {
    util::SetNumThreads(1);
    const std::vector<float> serial = RunOpCaseBitstream(c, kSeed ^ 0x5117ULL);
    for (const int threads : {2, 7, 16}) {
      util::SetNumThreads(threads);
      EXPECT_EQ(RunOpCaseBitstream(c, kSeed ^ 0x5117ULL), serial)
          << c.op << "/" << c.variant << " diverged at " << threads << " threads";
    }
  }
}

// Vectors shorter than one lane width never fill a lane, so DotF32 must be
// exactly the serial fold from +0 there (the GAT head_dim = 4 SDDMM in
// SpmmCsrWeighted's dW hits this on 8-lane builds).
TEST_F(SimdEquivalenceTest, DotF32ShortVectorsAreTheSerialFold) {
  util::Rng rng(kSeed + 11);
  for (int n = 0; n < tensor::simd::Lanes(); ++n) {
    for (int trial = 0; trial < 16; ++trial) {
      std::vector<float> a(n), b(n);
      for (int i = 0; i < n; ++i) {
        a[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
        // Exact zeros and a signed zero exercise the +0 start of the fold.
        const float signed_zero = i % 2 == 0 ? -0.0f : 0.0f;
        b[i] = trial % 4 == 0 ? signed_zero : static_cast<float>(rng.Uniform(-1.0, 1.0));
      }
      float serial = 0.0f;
      for (int i = 0; i < n; ++i) serial += a[i] * b[i];
      const float dot = tensor::simd::DotF32(a.data(), b.data(), n);
      uint32_t dot_bits = 0;
      uint32_t serial_bits = 0;
      std::memcpy(&dot_bits, &dot, sizeof(dot));
      std::memcpy(&serial_bits, &serial, sizeof(serial));
      EXPECT_EQ(dot_bits, serial_bits) << "n=" << n << " trial=" << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// Recorded plans honor the runtime toggle
// ---------------------------------------------------------------------------

// A small program with elementwise runs (fusable), a MatMul, and a reduction;
// odd shapes so every kernel has a scalar tail.
Tensor BuildProgram(const Tensor& param, const Tensor& mixer) {
  Tensor h = tensor::AddScalar(param, 0.3f);
  h = tensor::Mul(h, h);
  h = tensor::Relu(h);
  return tensor::Sum(tensor::MatMul(h, mixer));
}

std::vector<float> LossAndGrad(const Tensor& loss, const Tensor& param) {
  std::vector<float> stream = {loss.Value()};
  const std::vector<float> grad = param.GradData();
  stream.insert(stream.end(), grad.begin(), grad.end());
  return stream;
}

// Dispatch checks live inside the recorded chunk lambdas, so a tape recorded
// with SIMD on replays scalar after SetEnabled(false) — bitwise equal to a
// fresh eager run at the same toggle setting, for both settings.
TEST_F(SimdEquivalenceTest, PlanReplayHonorsRuntimeSimdToggle) {
  util::SetNumThreads(1);
  for (const bool replay_simd : {true, false}) {
    // Record with the OPPOSITE setting to prove nothing is baked in.
    tensor::simd::SetEnabled(!replay_simd);
    util::Rng rng(kSeed + 7);
    Tensor planned_param = Tensor::Uniform(5, 7, -1.0f, 1.0f, &rng).WithRequiresGrad();
    const Tensor mixer = Tensor::Uniform(7, 3, -1.0f, 1.0f, &rng);
    plan::PlanSession session;
    Tensor planned_loss;
    {
      plan::PlanSession::RecordScope record(&session);
      planned_loss = BuildProgram(planned_param, mixer);
    }
    planned_loss.Backward();
    session.Seal(planned_loss);
    planned_param.ZeroGrad();

    // Flip the toggle and replay; eager reference at the replay-time setting.
    tensor::simd::SetEnabled(replay_simd);
    ASSERT_TRUE(session.Replay());
    util::Rng eager_rng(kSeed + 7);
    Tensor eager_param = Tensor::Uniform(5, 7, -1.0f, 1.0f, &eager_rng).WithRequiresGrad();
    const Tensor eager_mixer = Tensor::Uniform(7, 3, -1.0f, 1.0f, &eager_rng);
    Tensor eager_loss = BuildProgram(eager_param, eager_mixer);
    eager_loss.Backward();
    EXPECT_EQ(LossAndGrad(planned_loss, planned_param), LossAndGrad(eager_loss, eager_param))
        << "replay with simd=" << (replay_simd ? "on" : "off")
        << " diverged from eager at the same setting";
  }
}

// ---------------------------------------------------------------------------
// Observability: the dispatch counters must track actual dispatch
// ---------------------------------------------------------------------------

TEST_F(SimdEquivalenceTest, VectorOpsCounterTracksDispatch) {
  obs::SetEnabled(true);
  obs::Counter* vector_ops =
      obs::MetricsRegistry::Global().GetCounter("tensor.simd.vector_ops");
  obs::Counter* scalar_tail =
      obs::MetricsRegistry::Global().GetCounter("tensor.simd.scalar_tail");
  util::Rng rng(kSeed + 9);
  // 100x7: 700 elements, never a multiple of any vector width > 1.
  const Tensor a = Tensor::Uniform(100, 7, -1.0f, 1.0f, &rng);
  const Tensor b = Tensor::Uniform(100, 7, -1.0f, 1.0f, &rng);

  tensor::simd::SetEnabled(false);
  const uint64_t ops_before = vector_ops->Total();
  tensor::Add(a, b);
  EXPECT_EQ(vector_ops->Total(), ops_before) << "scalar path swept the SIMD counters";

  tensor::simd::SetEnabled(true);
  const uint64_t tail_before = scalar_tail->Total();
  tensor::Add(a, b);
  if (tensor::simd::Lanes() > 1) {
    EXPECT_GT(vector_ops->Total(), ops_before);
    EXPECT_GT(scalar_tail->Total(), tail_before) << "700 % lanes != 0 must leave a tail";
  }
  obs::SetEnabled(false);
}

}  // namespace
}  // namespace revelio::proptest
