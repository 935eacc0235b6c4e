// Unit tests for the Tensor container and forward values of every op.

#include "tensor/tensor.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/init.h"
#include "tensor/ops.h"

namespace revelio::tensor {
namespace {

TEST(TensorTest, FactoriesProduceExpectedShapesAndValues) {
  Tensor zeros = Tensor::Zeros(2, 3);
  EXPECT_EQ(zeros.rows(), 2);
  EXPECT_EQ(zeros.cols(), 3);
  EXPECT_EQ(zeros.numel(), 6);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_EQ(zeros.At(r, c), 0.0f);
  }

  Tensor full = Tensor::Full(2, 2, 3.5f);
  EXPECT_EQ(full.At(1, 1), 3.5f);

  Tensor ones = Tensor::Ones(1, 4);
  EXPECT_EQ(ones.At(0, 3), 1.0f);

  Tensor data = Tensor::FromData(2, 2, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_EQ(data.At(0, 0), 1.0f);
  EXPECT_EQ(data.At(0, 1), 2.0f);
  EXPECT_EQ(data.At(1, 0), 3.0f);
  EXPECT_EQ(data.At(1, 1), 4.0f);

  Tensor vector = Tensor::FromVector({5.0f, 6.0f});
  EXPECT_EQ(vector.rows(), 2);
  EXPECT_EQ(vector.cols(), 1);
}

TEST(TensorTest, DefaultConstructedIsUndefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_EQ(t.rows(), 0);
  EXPECT_EQ(t.numel(), 0);
}

TEST(TensorTest, SetAtMutatesLeafValues) {
  Tensor t = Tensor::Zeros(2, 2);
  t.SetAt(0, 1, 7.0f);
  EXPECT_EQ(t.At(0, 1), 7.0f);
}

TEST(TensorTest, ValueRequiresScalar) {
  Tensor s = Tensor::Full(1, 1, 2.0f);
  EXPECT_EQ(s.Value(), 2.0f);
}

TEST(TensorTest, DetachCopiesValuesWithoutGraph) {
  Tensor t = Tensor::Full(2, 2, 1.0f).WithRequiresGrad();
  Tensor d = Tensor::FromNode(t.node());
  Tensor detached = d.Detach();
  EXPECT_FALSE(detached.requires_grad());
  EXPECT_EQ(detached.At(0, 0), 1.0f);
  detached.SetAt(0, 0, 9.0f);
  EXPECT_EQ(t.At(0, 0), 1.0f) << "detached copy must not alias the source";
}

TEST(TensorTest, RandnIsDeterministicPerSeed) {
  util::Rng rng_a(42);
  util::Rng rng_b(42);
  Tensor a = Tensor::Randn(3, 3, &rng_a);
  Tensor b = Tensor::Randn(3, 3, &rng_b);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_EQ(a.At(r, c), b.At(r, c));
  }
}

TEST(OpsForwardTest, AddSubMul) {
  Tensor a = Tensor::FromData(1, 3, {1.0f, 2.0f, 3.0f});
  Tensor b = Tensor::FromData(1, 3, {4.0f, 5.0f, 6.0f});
  Tensor sum = Add(a, b);
  Tensor diff = Sub(a, b);
  Tensor prod = Mul(a, b);
  EXPECT_EQ(sum.At(0, 2), 9.0f);
  EXPECT_EQ(diff.At(0, 0), -3.0f);
  EXPECT_EQ(prod.At(0, 1), 10.0f);
}

TEST(OpsForwardTest, AddRowBroadcast) {
  Tensor m = Tensor::FromData(2, 2, {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor row = Tensor::FromData(1, 2, {10.0f, 20.0f});
  Tensor out = AddRowBroadcast(m, row);
  EXPECT_EQ(out.At(0, 0), 11.0f);
  EXPECT_EQ(out.At(1, 1), 24.0f);
}

TEST(OpsForwardTest, ScalarOps) {
  Tensor a = Tensor::FromData(1, 2, {1.0f, -2.0f});
  EXPECT_EQ(AddScalar(a, 1.5f).At(0, 0), 2.5f);
  EXPECT_EQ(MulScalar(a, -2.0f).At(0, 1), 4.0f);
  EXPECT_EQ(Neg(a).At(0, 0), -1.0f);
  Tensor s = Tensor::Full(1, 1, 3.0f);
  EXPECT_EQ(ScaleByScalarTensor(a, s).At(0, 1), -6.0f);
}

TEST(OpsForwardTest, Activations) {
  Tensor a = Tensor::FromData(1, 4, {-2.0f, -0.5f, 0.5f, 2.0f});
  Tensor relu = Relu(a);
  EXPECT_EQ(relu.At(0, 0), 0.0f);
  EXPECT_EQ(relu.At(0, 3), 2.0f);
  Tensor leaky = LeakyRelu(a, 0.1f);
  EXPECT_FLOAT_EQ(leaky.At(0, 0), -0.2f);
  Tensor tanh_out = Tanh(a);
  EXPECT_NEAR(tanh_out.At(0, 3), std::tanh(2.0f), 1e-6);
  Tensor sigmoid_out = Sigmoid(a);
  EXPECT_NEAR(sigmoid_out.At(0, 1), 1.0f / (1.0f + std::exp(0.5f)), 1e-6);
  Tensor exp_out = Exp(a);
  EXPECT_NEAR(exp_out.At(0, 0), std::exp(-2.0f), 1e-6);
  Tensor softplus_out = Softplus(a);
  EXPECT_NEAR(softplus_out.At(0, 3), std::log1p(std::exp(2.0f)), 1e-5);
}

TEST(OpsForwardTest, LogClampsAtEps) {
  Tensor a = Tensor::FromData(1, 2, {0.0f, 1.0f});
  Tensor out = Log(a, 1e-6f);
  EXPECT_NEAR(out.At(0, 0), std::log(1e-6f), 1e-3);
  EXPECT_NEAR(out.At(0, 1), 0.0f, 1e-6);
}

TEST(OpsForwardTest, MatMul) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor out = MatMul(a, b);
  EXPECT_EQ(out.rows(), 2);
  EXPECT_EQ(out.cols(), 2);
  EXPECT_EQ(out.At(0, 0), 58.0f);
  EXPECT_EQ(out.At(0, 1), 64.0f);
  EXPECT_EQ(out.At(1, 0), 139.0f);
  EXPECT_EQ(out.At(1, 1), 154.0f);
}

TEST(OpsForwardTest, SumAndMean) {
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(Sum(a).Value(), 10.0f);
  EXPECT_EQ(Mean(a).Value(), 2.5f);
}

TEST(OpsForwardTest, RowSoftmaxNormalizes) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 100, 100, 100});
  Tensor out = RowSoftmax(a);
  for (int r = 0; r < 2; ++r) {
    float total = 0.0f;
    for (int c = 0; c < 3; ++c) total += out.At(r, c);
    EXPECT_NEAR(total, 1.0f, 1e-5);
  }
  EXPECT_NEAR(out.At(1, 0), 1.0f / 3.0f, 1e-5);
  EXPECT_GT(out.At(0, 2), out.At(0, 1));
}

TEST(OpsForwardTest, RowLogSoftmaxMatchesLogOfSoftmax) {
  Tensor a = Tensor::FromData(1, 3, {0.5f, -1.0f, 2.0f});
  Tensor log_soft = RowLogSoftmax(a);
  Tensor soft = RowSoftmax(a);
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(log_soft.At(0, c), std::log(soft.At(0, c)), 1e-5);
  }
}

TEST(OpsForwardTest, GatherAndScatter) {
  Tensor a = Tensor::FromData(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor gathered = GatherRows(a, {2, 0, 2});
  EXPECT_EQ(gathered.rows(), 3);
  EXPECT_EQ(gathered.At(0, 0), 5.0f);
  EXPECT_EQ(gathered.At(1, 1), 2.0f);
  EXPECT_EQ(gathered.At(2, 0), 5.0f);

  Tensor scattered = ScatterAddRows(gathered, {0, 0, 1}, 2);
  EXPECT_EQ(scattered.rows(), 2);
  EXPECT_EQ(scattered.At(0, 0), 6.0f);  // rows 0 and 1 of gathered
  EXPECT_EQ(scattered.At(1, 0), 5.0f);
}

TEST(OpsForwardTest, RowScale) {
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor s = Tensor::FromVector({2.0f, -1.0f});
  Tensor out = RowScale(a, s);
  EXPECT_EQ(out.At(0, 1), 4.0f);
  EXPECT_EQ(out.At(1, 0), -3.0f);
}

TEST(OpsForwardTest, ConcatCols) {
  Tensor a = Tensor::FromData(2, 1, {1, 2});
  Tensor b = Tensor::FromData(2, 2, {3, 4, 5, 6});
  Tensor out = ConcatCols(a, b);
  EXPECT_EQ(out.cols(), 3);
  EXPECT_EQ(out.At(0, 0), 1.0f);
  EXPECT_EQ(out.At(0, 2), 4.0f);
  EXPECT_EQ(out.At(1, 1), 5.0f);
}

TEST(OpsForwardTest, SegmentSoftmaxNormalizesPerSegment) {
  Tensor values = Tensor::FromVector({1.0f, 2.0f, 3.0f, 0.0f});
  Tensor out = SegmentSoftmax(values, {0, 0, 1, 1}, 2);
  EXPECT_NEAR(out.At(0, 0) + out.At(1, 0), 1.0f, 1e-5);
  EXPECT_NEAR(out.At(2, 0) + out.At(3, 0), 1.0f, 1e-5);
  EXPECT_GT(out.At(1, 0), out.At(0, 0));
}

TEST(OpsForwardTest, SegmentMaxRows) {
  Tensor a = Tensor::FromData(4, 2, {1, 9, 5, 2, 3, 7, -1, -2});
  Tensor out = SegmentMaxRows(a, {0, 0, 1, 1}, 3);
  EXPECT_EQ(out.At(0, 0), 5.0f);
  EXPECT_EQ(out.At(0, 1), 9.0f);
  EXPECT_EQ(out.At(1, 0), 3.0f);
  EXPECT_EQ(out.At(1, 1), 7.0f);
  EXPECT_EQ(out.At(2, 0), 0.0f) << "empty segments stay zero";
}

TEST(OpsForwardTest, SelectAndNll) {
  Tensor a = Tensor::FromData(2, 2, {0.1f, 0.9f, 0.8f, 0.2f});
  EXPECT_FLOAT_EQ(Select(a, 1, 0).Value(), 0.8f);
  Tensor log_probs = RowLogSoftmax(Tensor::FromData(2, 2, {0, 0, 0, 0}));
  Tensor loss = NllLoss(log_probs, {0, 1});
  EXPECT_NEAR(loss.Value(), std::log(2.0f), 1e-5);
}

TEST(InitTest, XavierBoundsAndHeScale) {
  util::Rng rng(1);
  Tensor xavier = XavierUniform(100, 50, &rng);
  const float bound = std::sqrt(6.0f / 150.0f);
  for (float v : xavier.values()) {
    EXPECT_LE(std::fabs(v), bound + 1e-6);
  }
  Tensor he = HeNormal(1000, 10, &rng);
  double variance = 0.0;
  for (float v : he.values()) variance += v * v;
  variance /= he.numel();
  EXPECT_NEAR(variance, 2.0 / 1000.0, 5e-4);
}

}  // namespace
}  // namespace revelio::tensor
