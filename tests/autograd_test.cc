// Property tests: every differentiable op is validated against central
// finite differences over randomized inputs (TEST_P sweeps over seeds).

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "test_util.h"

namespace revelio::tensor {
namespace {

using revelio::testing::CheckGradient;

class GradientSweep : public ::testing::TestWithParam<uint64_t> {
 protected:
  util::Rng rng_{GetParam()};

  Tensor RandomInput(int rows, int cols, float scale = 1.0f) {
    Tensor t = Tensor::Randn(rows, cols, &rng_);
    for (auto& v : *t.mutable_values()) v *= scale;
    return t.WithRequiresGrad();
  }
};

TEST_P(GradientSweep, Add) {
  Tensor a = RandomInput(3, 4);
  Tensor b = Tensor::Randn(3, 4, &rng_);
  CheckGradient(a, [&](const Tensor& x) { return Sum(Add(x, b)); });
}

TEST_P(GradientSweep, SubBothSides) {
  Tensor a = RandomInput(2, 3);
  Tensor b = Tensor::Randn(2, 3, &rng_);
  CheckGradient(a, [&](const Tensor& x) { return Sum(Sub(x, b)); });
  Tensor c = RandomInput(2, 3);
  CheckGradient(c, [&](const Tensor& x) { return Sum(Sub(b, x)); });
}

TEST_P(GradientSweep, Mul) {
  Tensor a = RandomInput(3, 3);
  Tensor b = Tensor::Randn(3, 3, &rng_);
  CheckGradient(a, [&](const Tensor& x) { return Sum(Mul(x, b)); });
}

TEST_P(GradientSweep, MulSharedOperand) {
  // x * x exercises gradient accumulation through both parent slots.
  Tensor a = RandomInput(2, 2);
  CheckGradient(a, [&](const Tensor& x) { return Sum(Mul(x, x)); });
}

TEST_P(GradientSweep, AddRowBroadcast) {
  Tensor row = RandomInput(1, 4);
  Tensor m = Tensor::Randn(3, 4, &rng_);
  CheckGradient(row, [&](const Tensor& x) { return Sum(AddRowBroadcast(m, x)); });
}

TEST_P(GradientSweep, ScalarOps) {
  Tensor a = RandomInput(2, 3);
  CheckGradient(a, [&](const Tensor& x) { return Sum(AddScalar(MulScalar(x, 2.5f), -1.0f)); });
}

TEST_P(GradientSweep, ScaleByScalarTensorBothInputs) {
  Tensor a = RandomInput(2, 3);
  Tensor s = Tensor::Full(1, 1, 0.7f);
  CheckGradient(a, [&](const Tensor& x) { return Sum(ScaleByScalarTensor(x, s)); });
  Tensor s2 = RandomInput(1, 1);
  Tensor m = Tensor::Randn(2, 3, &rng_);
  CheckGradient(s2, [&](const Tensor& x) { return Sum(ScaleByScalarTensor(m, x)); });
}

TEST_P(GradientSweep, Activations) {
  // Shift away from ReLU/LeakyReLU kinks to keep finite differences valid.
  Tensor a = RandomInput(2, 4);
  for (auto& v : *a.mutable_values()) {
    if (std::fabs(v) < 0.1f) v = v < 0 ? v - 0.2f : v + 0.2f;
  }
  CheckGradient(a, [&](const Tensor& x) { return Sum(Relu(x)); });
  CheckGradient(a, [&](const Tensor& x) { return Sum(LeakyRelu(x, 0.2f)); });
  CheckGradient(a, [&](const Tensor& x) { return Sum(Tanh(x)); });
  CheckGradient(a, [&](const Tensor& x) { return Sum(Sigmoid(x)); });
  CheckGradient(a, [&](const Tensor& x) { return Sum(Softplus(x)); });
}

TEST_P(GradientSweep, ExpAndLog) {
  Tensor a = RandomInput(2, 3, 0.5f);
  CheckGradient(a, [&](const Tensor& x) { return Sum(Exp(x)); });
  Tensor positive = RandomInput(2, 3, 0.3f);
  for (auto& v : *positive.mutable_values()) v = std::fabs(v) + 0.5f;
  CheckGradient(positive, [&](const Tensor& x) { return Sum(Log(x)); });
}

TEST_P(GradientSweep, MatMulBothSides) {
  Tensor a = RandomInput(3, 4, 0.5f);
  Tensor b = Tensor::Randn(4, 2, &rng_);
  CheckGradient(a, [&](const Tensor& x) { return Sum(MatMul(x, b)); });
  Tensor c = RandomInput(4, 2, 0.5f);
  Tensor m = Tensor::Randn(3, 4, &rng_);
  CheckGradient(c, [&](const Tensor& x) { return Sum(MatMul(m, x)); });
}

TEST_P(GradientSweep, MeanChain) {
  Tensor a = RandomInput(3, 3);
  CheckGradient(a, [&](const Tensor& x) { return Mean(Mul(x, x)); });
}

TEST_P(GradientSweep, RowSoftmax) {
  Tensor a = RandomInput(2, 4, 0.8f);
  // Weighted sum keeps per-entry gradients informative.
  Tensor weights = Tensor::Randn(2, 4, &rng_);
  CheckGradient(a, [&](const Tensor& x) { return Sum(Mul(RowSoftmax(x), weights)); });
}

TEST_P(GradientSweep, RowLogSoftmax) {
  Tensor a = RandomInput(2, 4, 0.8f);
  Tensor weights = Tensor::Randn(2, 4, &rng_);
  CheckGradient(a, [&](const Tensor& x) { return Sum(Mul(RowLogSoftmax(x), weights)); });
}

TEST_P(GradientSweep, GatherRowsWithRepeats) {
  Tensor a = RandomInput(4, 3);
  const std::vector<int> indices = {1, 3, 1, 0, 1};
  Tensor weights = Tensor::Randn(5, 3, &rng_);
  CheckGradient(a, [&](const Tensor& x) { return Sum(Mul(GatherRows(x, indices), weights)); });
}

TEST_P(GradientSweep, ScatterAddRows) {
  Tensor a = RandomInput(5, 2);
  const std::vector<int> indices = {0, 2, 2, 1, 0};
  Tensor weights = Tensor::Randn(3, 2, &rng_);
  CheckGradient(
      a, [&](const Tensor& x) { return Sum(Mul(ScatterAddRows(x, indices, 3), weights)); });
}

TEST_P(GradientSweep, RowScaleBothInputs) {
  Tensor a = RandomInput(3, 4);
  Tensor s = Tensor::Randn(3, 1, &rng_);
  CheckGradient(a, [&](const Tensor& x) { return Sum(RowScale(x, s)); });
  Tensor s2 = RandomInput(3, 1);
  Tensor m = Tensor::Randn(3, 4, &rng_);
  CheckGradient(s2, [&](const Tensor& x) { return Sum(RowScale(m, x)); });
}

TEST_P(GradientSweep, ConcatColsBothInputs) {
  Tensor a = RandomInput(2, 3);
  Tensor b = Tensor::Randn(2, 2, &rng_);
  Tensor weights = Tensor::Randn(2, 5, &rng_);
  CheckGradient(a, [&](const Tensor& x) { return Sum(Mul(ConcatCols(x, b), weights)); });
  Tensor c = RandomInput(2, 3);
  CheckGradient(c, [&](const Tensor& x) { return Sum(Mul(ConcatCols(b, x), weights)); });
}

TEST_P(GradientSweep, SegmentSoftmax) {
  Tensor a = RandomInput(6, 1, 0.8f);
  const std::vector<int> segments = {0, 0, 1, 1, 1, 2};
  Tensor weights = Tensor::Randn(6, 1, &rng_);
  CheckGradient(a, [&](const Tensor& x) {
    return Sum(Mul(SegmentSoftmax(x, segments, 3), weights));
  });
}

TEST_P(GradientSweep, SegmentMaxRows) {
  Tensor a = RandomInput(5, 2);
  // Separate entries so the argmax is stable under finite-difference steps.
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 2; ++c) a.SetAt(r, c, a.At(r, c) + 0.5f * r);
  }
  const std::vector<int> segments = {0, 1, 1, 0, 2};
  Tensor weights = Tensor::Randn(3, 2, &rng_);
  CheckGradient(a, [&](const Tensor& x) {
    return Sum(Mul(SegmentMaxRows(x, segments, 3), weights));
  });
}

TEST_P(GradientSweep, SelectAndNllLoss) {
  Tensor a = RandomInput(3, 3);
  CheckGradient(a, [&](const Tensor& x) { return Select(x, 1, 2); });
  Tensor logits = RandomInput(3, 4, 0.8f);
  const std::vector<int> targets = {1, 0, 3};
  CheckGradient(logits,
                [&](const Tensor& x) { return NllLoss(RowLogSoftmax(x), targets); });
}

TEST_P(GradientSweep, DeepCompositeGraph) {
  // A miniature GNN-shaped computation: gather -> scale -> scatter -> matmul
  // -> softmax -> select. Exercises the full backward pipeline at once.
  Tensor x = RandomInput(4, 3, 0.6f);
  Tensor w = Tensor::Randn(3, 2, &rng_);
  const std::vector<int> src = {0, 1, 2, 3, 1};
  const std::vector<int> dst = {1, 2, 3, 0, 0};
  Tensor scale = Tensor::FromVector({0.5f, 1.0f, 0.8f, 0.2f, 0.9f});
  CheckGradient(x, [&](const Tensor& input) {
    Tensor messages = RowScale(GatherRows(input, src), scale);
    Tensor aggregated = ScatterAddRows(messages, dst, 4);
    Tensor logits = MatMul(Tanh(aggregated), w);
    return Select(RowSoftmax(logits), 0, 1);
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradientSweep, ::testing::Values(1u, 2u, 3u, 5u, 8u));

TEST(AutogradTest, BackwardAccumulatesAcrossCalls) {
  Tensor a = Tensor::Full(1, 1, 2.0f).WithRequiresGrad();
  Tensor loss = Mul(a, a);
  loss.Backward();
  EXPECT_NEAR(a.GradAt(0, 0), 4.0f, 1e-5);
  Tensor loss2 = Mul(a, a);
  loss2.Backward();
  EXPECT_NEAR(a.GradAt(0, 0), 8.0f, 1e-5) << "gradients accumulate until ZeroGrad";
  a.ZeroGrad();
  EXPECT_EQ(a.GradAt(0, 0), 0.0f);
}

TEST(AutogradTest, NoGradThroughDetach) {
  Tensor a = Tensor::Full(2, 2, 1.5f).WithRequiresGrad();
  Tensor b = Tensor::FromNode(a.node()).Detach();
  EXPECT_FALSE(b.requires_grad());
  Tensor c = Tensor::Full(2, 2, 1.0f).WithRequiresGrad();
  Tensor loss = Sum(Mul(b, c));
  loss.Backward();
  EXPECT_EQ(a.GradAt(0, 0), 0.0f);
  EXPECT_NEAR(c.GradAt(0, 0), 1.5f, 1e-6);
}

TEST(AutogradTest, DiamondGraphGradient) {
  // loss = sum(x*x + x) — x reached via two paths.
  Tensor x = Tensor::Full(1, 1, 3.0f).WithRequiresGrad();
  Tensor loss = Add(Mul(x, x), x);
  loss.Backward();
  EXPECT_NEAR(x.GradAt(0, 0), 7.0f, 1e-5);
}

}  // namespace
}  // namespace revelio::tensor
