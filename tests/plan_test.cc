// Unit tests for the recorded-execution-plan subsystem (src/plan): tape
// recording, plan compilation (fusion, levels), PlanSession replay
// semantics (global version bump, stable buffers), and the
// plan.* observability counters. The whole-loop differential proof lives in
// tests/prop/plan_equivalence_test.cc; these tests pin the mechanism.

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "plan/plan.h"
#include "tensor/ops.h"
#include "tensor/record.h"
#include "tensor/tensor.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace revelio {
namespace {

using tensor::Tensor;

uint64_t CounterTotal(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Total();
}

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    util::SetNumThreads(1);
  }
  void TearDown() override {
    obs::SetEnabled(false);
    util::SetNumThreads(1);
    plan::SetExecPlanEnabled(true);
  }
};

// x -> AddScalar -> Tanh -> MulScalar -> Sum: three same-extent elementwise
// ops (fusable run) feeding a reduction.
Tensor BuildChain(const Tensor& x) {
  return tensor::Sum(tensor::MulScalar(tensor::Tanh(tensor::AddScalar(x, 0.5f)), 2.0f));
}

TEST_F(PlanTest, RecordScopeCapturesOpsAndSealCompiles) {
  util::Rng rng(1);
  Tensor x = Tensor::Uniform(4, 3, -1.0f, 1.0f, &rng).WithRequiresGrad();
  plan::PlanSession session;
  Tensor loss;
  {
    plan::PlanSession::RecordScope record(&session);
    EXPECT_TRUE(tensor::rec::Recording());
    loss = BuildChain(x);
  }
  EXPECT_FALSE(tensor::rec::Recording());
  ASSERT_EQ(session.tape().ops.size(), 4u);  // AddScalar, Tanh, MulScalar, Sum
  loss.Backward();

  const uint64_t records_before = CounterTotal("plan.records");
  session.Seal(loss);
  ASSERT_TRUE(session.sealed());
  EXPECT_EQ(CounterTotal("plan.records"), records_before + 1);

  const plan::Plan* plan = session.plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->num_ops(), 4);
  // The three elementwise ops fuse into one step; Sum stays on its own.
  ASSERT_EQ(plan->steps().size(), 2u);
  EXPECT_TRUE(plan->steps()[0].fused);
  EXPECT_EQ(plan->steps()[0].op_indices.size(), 3u);
  EXPECT_EQ(plan->fused_ops(), 3);
}

TEST_F(PlanTest, ReplayRecomputesValuesAndGradsInPlace) {
  util::Rng rng(3);
  Tensor x = Tensor::Uniform(5, 2, -1.0f, 1.0f, &rng).WithRequiresGrad();
  plan::PlanSession session;
  Tensor loss;
  {
    plan::PlanSession::RecordScope record(&session);
    loss = BuildChain(x);
  }
  loss.Backward();
  session.Seal(loss);

  // Mutate the leaf, replay, and compare against a fresh eager rebuild.
  for (float& v : *x.mutable_values()) v *= 0.75f;
  x.ZeroGrad();
  const uint64_t replays_before = CounterTotal("plan.replays");
  ASSERT_TRUE(session.Replay());
  EXPECT_EQ(CounterTotal("plan.replays"), replays_before + 1);

  Tensor ref = Tensor::FromData(x.rows(), x.cols(), x.values()).WithRequiresGrad();
  Tensor ref_loss = BuildChain(ref);
  ref_loss.Backward();
  EXPECT_EQ(loss.values(), ref_loss.values());
  for (int r = 0; r < x.rows(); ++r) {
    for (int c = 0; c < x.cols(); ++c) EXPECT_EQ(x.GradAt(r, c), ref.GradAt(r, c));
  }
  ref_loss.ReleaseTape();
}

// Replay writes in place: every tape op's output keeps the values and grad
// buffers it had at seal, replay after replay.
TEST_F(PlanTest, ReplayKeepsEveryOpOutputBuffer) {
  util::Rng rng(4);
  Tensor x = Tensor::Uniform(8, 4, -1.0f, 1.0f, &rng).WithRequiresGrad();
  plan::PlanSession session;
  Tensor loss;
  {
    plan::PlanSession::RecordScope record(&session);
    loss = BuildChain(x);
  }
  loss.Backward();
  session.Seal(loss);

  auto buffers = [&session] {
    std::vector<std::pair<const float*, const float*>> addresses;
    for (const auto& op : session.tape().ops) {
      addresses.emplace_back(op.out->values.data(), op.out->grad.data());
    }
    return addresses;
  };
  const auto sealed = buffers();
  for (int i = 0; i < 5; ++i) {
    x.ZeroGrad();
    ASSERT_TRUE(session.Replay());
    EXPECT_EQ(buffers(), sealed) << "replay " << i << " moved an op output's values or grad";
  }
}

TEST_F(PlanTest, GlobalVersionBumpInvalidatesSealedPlans) {
  util::Rng rng(6);
  Tensor x = Tensor::Uniform(3, 3, -1.0f, 1.0f, &rng).WithRequiresGrad();
  plan::PlanSession session;
  Tensor loss;
  {
    plan::PlanSession::RecordScope record(&session);
    loss = BuildChain(x);
  }
  loss.Backward();
  session.Seal(loss);
  ASSERT_TRUE(session.Replay());

  plan::BumpGlobalPlanVersion();
  EXPECT_FALSE(session.Replay());
  EXPECT_FALSE(session.sealed());
}

TEST_F(PlanTest, ReplayOnUnsealedSessionReturnsFalse) {
  plan::PlanSession session;
  EXPECT_FALSE(session.Replay());
  EXPECT_FALSE(session.sealed());
}

TEST_F(PlanTest, NullRecordScopeIsANoOp) {
  {
    plan::PlanSession::RecordScope record(nullptr);
    EXPECT_FALSE(tensor::rec::Recording());
    Tensor x = Tensor::Zeros(2, 2).WithRequiresGrad();
    Tensor loss = BuildChain(x);
    loss.ReleaseTape();
  }
  EXPECT_FALSE(tensor::rec::Recording());
}

TEST_F(PlanTest, EnvTogglesRoundTrip) {
  plan::SetExecPlanEnabled(false);
  EXPECT_FALSE(plan::ExecPlanEnabled());
  plan::SetExecPlanEnabled(true);
  EXPECT_TRUE(plan::ExecPlanEnabled());
}

}  // namespace
}  // namespace revelio
