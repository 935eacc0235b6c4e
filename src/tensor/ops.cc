#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/op_helpers.h"
#include "tensor/record.h"
#include "tensor/simd.h"

// Kernels run serially on the calling thread (DESIGN.md "Parallel
// execution"): an explanation's tensors are tens to hundreds of rows, so the
// one parallel axis is across explanation instances, and results never depend
// on the thread count.
//
// Recording (DESIGN.md §12): when a plan tape is active, each op appends the
// very same kernel lambda it just ran, bound to the same node buffers, so
// replay recomputes identical bits. Kernels therefore read every varying
// input through node-backed pointers (not by-value snapshots), and any
// scratch state is reset inside the lambda. obs spans/counters stay outside
// the recorded closure: replay is on the hot path and must not re-count.
//
// SIMD (DESIGN.md §13): every float loop below has one body, a tensor/simd.h
// kernel, called unconditionally; the lane width is a build-time choice. The
// kernels are bitwise-equal to the scalar reference loops of
// tests/prop/simd_equivalence_test.cc (mul-then-add per element in the same
// order), MatMul's dA included; the ulp-bounded DotF32 reductions live in
// ops_spmm.cc and ops_index.cc.
// Transcendental forwards (Tanh/Sigmoid/Exp/Log/Softplus) stay scalar: libm
// is not lane-invariant, and they are compute- not bandwidth-bound.

namespace revelio::tensor {

using internal::TensorNode;

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Add");
  auto out = NewNodeLike(a);
  const float* av = a.values().data();
  const float* bv = b.values().data();
  float* ov = out->values.data();
  const int64_t n = out->numel();
  auto run = [av, bv, ov, n]() { simd::AddF32(av, bv, ov, n); };
  run();
  simd::CountSweep(n);
  if (rec::Recording()) {
    rec::Record("Add", out, {a.node(), b.node()}, run);
  }
  AttachBackward(out, {a, b}, [](TensorNode* o) {
    AccumulateInto(o->parents[0].get(), o->grad, 1.0f);
    AccumulateInto(o->parents[1].get(), o->grad, 1.0f);
  });
  return Tensor::FromNode(out);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Sub");
  auto out = NewNodeLike(a);
  const float* av = a.values().data();
  const float* bv = b.values().data();
  float* ov = out->values.data();
  const int64_t n = out->numel();
  auto run = [av, bv, ov, n]() { simd::SubF32(av, bv, ov, n); };
  run();
  simd::CountSweep(n);
  if (rec::Recording()) {
    rec::Record("Sub", out, {a.node(), b.node()}, run);
  }
  AttachBackward(out, {a, b}, [](TensorNode* o) {
    AccumulateInto(o->parents[0].get(), o->grad, 1.0f);
    AccumulateInto(o->parents[1].get(), o->grad, -1.0f);
  });
  return Tensor::FromNode(out);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Mul");
  auto out = NewNodeLike(a);
  const float* av = a.values().data();
  const float* bv = b.values().data();
  float* ov = out->values.data();
  const int64_t n = out->numel();
  auto run = [av, bv, ov, n]() { simd::MulF32(av, bv, ov, n); };
  run();
  simd::CountSweep(n);
  if (rec::Recording()) {
    rec::Record("Mul", out, {a.node(), b.node()}, run);
  }
  AttachBackward(out, {a, b}, [](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    TensorNode* bn = o->parents[1].get();
    const int64_t n = static_cast<int64_t>(o->grad.size());
    const float* g = o->grad.data();
    if (an->requires_grad) {
      an->EnsureGrad();
      float* ga = an->grad.data();
      const float* bv = bn->values.data();
      simd::MulPairAccF32(g, bv, ga, n);
    }
    if (bn->requires_grad) {
      bn->EnsureGrad();
      float* gb = bn->grad.data();
      const float* av = an->values.data();
      simd::MulPairAccF32(g, av, gb, n);
    }
  });
  return Tensor::FromNode(out);
}

Tensor AddRowBroadcast(const Tensor& matrix, const Tensor& row) {
  CHECK_EQ(row.rows(), 1);
  CHECK_EQ(row.cols(), matrix.cols());
  auto out = NewNodeLike(matrix);
  const float* mv = matrix.values().data();
  const float* rv = row.values().data();
  float* ov = out->values.data();
  const int cols = matrix.cols();
  const int rows = matrix.rows();
  auto run = [mv, rv, ov, cols, rows]() {
    for (int r = 0; r < rows; ++r) {
      const size_t base = static_cast<size_t>(r) * cols;
      simd::AddF32(mv + base, rv, ov + base, cols);
    }
  };
  run();
  simd::CountSweep(out->numel());
  if (rec::Recording()) {
    rec::Record("AddRowBroadcast", out, {matrix.node(), row.node()}, run);
  }
  AttachBackward(out, {matrix, row}, [](TensorNode* o) {
    TensorNode* mn = o->parents[0].get();
    TensorNode* rn = o->parents[1].get();
    AccumulateInto(mn, o->grad, 1.0f);
    if (rn->requires_grad) {
      rn->EnsureGrad();
      const int cols = o->cols;
      const int rows = o->rows;
      const float* g = o->grad.data();
      float* gr = rn->grad.data();
      // Per-column sum in row order, folded into the grad once.
      for (int c = 0; c < cols; ++c) {
        float acc = 0.0f;
        for (int r = 0; r < rows; ++r) acc += g[static_cast<size_t>(r) * cols + c];
        gr[c] += acc;
      }
    }
  });
  return Tensor::FromNode(out);
}

Tensor AddScalar(const Tensor& a, float s) {
  auto out = NewNodeLike(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  const int64_t n = out->numel();
  auto run = [av, ov, s, n]() { simd::AddScalarF32(av, s, ov, n); };
  run();
  simd::CountSweep(n);
  if (rec::Recording()) {
    rec::Record("AddScalar", out, {a.node()}, run);
  }
  AttachBackward(out, {a},
                 [](TensorNode* o) { AccumulateInto(o->parents[0].get(), o->grad, 1.0f); });
  return Tensor::FromNode(out);
}

Tensor MulScalar(const Tensor& a, float s) {
  auto out = NewNodeLike(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  const int64_t n = out->numel();
  auto run = [av, ov, s, n]() { simd::MulScalarF32(av, s, ov, n); };
  run();
  simd::CountSweep(n);
  if (rec::Recording()) {
    rec::Record("MulScalar", out, {a.node()}, run);
  }
  AttachBackward(out, {a},
                 [s](TensorNode* o) { AccumulateInto(o->parents[0].get(), o->grad, s); });
  return Tensor::FromNode(out);
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor ScaleByScalarTensor(const Tensor& a, const Tensor& scalar) {
  CHECK(scalar.is_scalar());
  auto out = NewNodeLike(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  // The scalar is read through its node buffer inside the kernel (not hoisted
  // by value): on plan replay the scale has been re-trained since recording.
  const float* sv = scalar.values().data();
  const int64_t n = out->numel();
  auto run = [av, ov, sv, n]() { simd::MulScalarF32(av, sv[0], ov, n); };
  run();
  simd::CountSweep(n);
  if (rec::Recording()) {
    rec::Record("ScaleByScalarTensor", out, {a.node(), scalar.node()}, run);
  }
  AttachBackward(out, {a, scalar}, [](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    TensorNode* sn = o->parents[1].get();
    const float s = sn->values[0];
    const int64_t n = static_cast<int64_t>(o->grad.size());
    const float* g = o->grad.data();
    if (an->requires_grad) {
      an->EnsureGrad();
      float* ga = an->grad.data();
      simd::MulAccF32(g, s, ga, n);
    }
    if (sn->requires_grad) {
      sn->EnsureGrad();
      // Scalar reduction in index order.
      const float* av = an->values.data();
      float acc = 0.0f;
      for (int64_t i = 0; i < n; ++i) acc += g[i] * av[i];
      sn->grad[0] += acc;
    }
  });
  return Tensor::FromNode(out);
}

Tensor Relu(const Tensor& a) {
  auto out = NewNodeLike(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  const int64_t n = out->numel();
  auto run = [av, ov, n]() { simd::ReluF32(av, ov, n); };
  run();
  simd::CountSweep(n);
  if (rec::Recording()) {
    rec::Record("Relu", out, {a.node()}, run);
  }
  AttachBackward(out, {a}, [](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    const float* av = an->values.data();
    float* ga = an->grad.data();
    const int64_t n = static_cast<int64_t>(o->grad.size());
    simd::ReluGradAccF32(g, av, ga, n);
  });
  return Tensor::FromNode(out);
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  auto out = NewNodeLike(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  const int64_t n = out->numel();
  auto run = [av, ov, negative_slope, n]() { simd::LeakyReluF32(av, negative_slope, ov, n); };
  run();
  simd::CountSweep(n);
  if (rec::Recording()) {
    rec::Record("LeakyRelu", out, {a.node()}, run);
  }
  AttachBackward(out, {a}, [negative_slope](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    const float* av = an->values.data();
    float* ga = an->grad.data();
    const int64_t n = static_cast<int64_t>(o->grad.size());
    simd::LeakyReluGradAccF32(g, av, negative_slope, ga, n);
  });
  return Tensor::FromNode(out);
}

Tensor Tanh(const Tensor& a) {
  auto out = NewNodeLike(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  const int64_t n = out->numel();
  auto run = [av, ov, n]() {
    for (int64_t i = 0; i < n; ++i) ov[i] = std::tanh(av[i]);
  };
  run();
  if (rec::Recording()) {
    rec::Record("Tanh", out, {a.node()}, run);
  }
  AttachBackward(out, {a}, [](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    const float* ov = o->values.data();
    float* ga = an->grad.data();
    const int64_t n = static_cast<int64_t>(o->grad.size());
    simd::TanhGradAccF32(g, ov, ga, n);
  });
  return Tensor::FromNode(out);
}

Tensor Sigmoid(const Tensor& a) {
  auto out = NewNodeLike(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  const int64_t n = out->numel();
  auto run = [av, ov, n]() {
    for (int64_t i = 0; i < n; ++i) ov[i] = 1.0f / (1.0f + std::exp(-av[i]));
  };
  run();
  if (rec::Recording()) {
    rec::Record("Sigmoid", out, {a.node()}, run);
  }
  AttachBackward(out, {a}, [](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    const float* ov = o->values.data();
    float* ga = an->grad.data();
    const int64_t n = static_cast<int64_t>(o->grad.size());
    simd::SigmoidGradAccF32(g, ov, ga, n);
  });
  return Tensor::FromNode(out);
}

Tensor Exp(const Tensor& a) {
  auto out = NewNodeLike(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  const int64_t n = out->numel();
  auto run = [av, ov, n]() {
    for (int64_t i = 0; i < n; ++i) ov[i] = std::exp(av[i]);
  };
  run();
  if (rec::Recording()) {
    rec::Record("Exp", out, {a.node()}, run);
  }
  AttachBackward(out, {a}, [](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    const float* ov = o->values.data();
    float* ga = an->grad.data();
    const int64_t n = static_cast<int64_t>(o->grad.size());
    simd::MulPairAccF32(g, ov, ga, n);
  });
  return Tensor::FromNode(out);
}

Tensor Log(const Tensor& a, float eps) {
  auto out = NewNodeLike(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  const int64_t n = out->numel();
  auto run = [av, ov, eps, n]() {
    for (int64_t i = 0; i < n; ++i) ov[i] = std::log(std::max(av[i], eps));
  };
  run();
  if (rec::Recording()) {
    rec::Record("Log", out, {a.node()}, run);
  }
  AttachBackward(out, {a}, [eps](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    const float* av = an->values.data();
    float* ga = an->grad.data();
    const int64_t n = static_cast<int64_t>(o->grad.size());
    for (int64_t i = 0; i < n; ++i) ga[i] += g[i] / std::max(av[i], eps);
  });
  return Tensor::FromNode(out);
}

Tensor Softplus(const Tensor& a) {
  auto out = NewNodeLike(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  const int64_t n = out->numel();
  auto run = [av, ov, n]() {
    for (int64_t i = 0; i < n; ++i) {
      // Numerically stable softplus: log(1 + exp(x)) = max(x, 0) + log1p(exp(-|x|)).
      const float x = av[i];
      ov[i] = std::max(x, 0.0f) + std::log1p(std::exp(-std::fabs(x)));
    }
  };
  run();
  if (rec::Recording()) {
    rec::Record("Softplus", out, {a.node()}, run);
  }
  AttachBackward(out, {a}, [](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    const float* av = an->values.data();
    float* ga = an->grad.data();
    const int64_t n = static_cast<int64_t>(o->grad.size());
    for (int64_t i = 0; i < n; ++i) {
      const float s = 1.0f / (1.0f + std::exp(-av[i]));
      ga[i] += g[i] * s;
    }
  });
  return Tensor::FromNode(out);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CHECK_EQ(a.cols(), b.rows()) << "MatMul shape mismatch: " << a.rows() << "x" << a.cols()
                               << " times " << b.rows() << "x" << b.cols();
  const int n = a.rows();
  const int k = a.cols();
  const int m = b.cols();
  obs::ScopedSpan span("tensor.MatMul", obs::FlightPolicy::kSkip);
  static obs::Counter* calls = obs::MetricsRegistry::Global().GetCounter("tensor.matmul.calls");
  static obs::Counter* flops = obs::MetricsRegistry::Global().GetCounter("tensor.matmul.flops");
  static obs::Counter* bytes = obs::MetricsRegistry::Global().GetCounter("tensor.matmul.bytes");
  calls->Increment();
  flops->Add(uint64_t{2} * n * k * m);
  bytes->Add(sizeof(float) * (uint64_t{1} * n * k + uint64_t{1} * k * m + uint64_t{1} * n * m));
  auto out = NewNode(n, m);
  // Row-blocked ikj kernel: every output row is overwritten, never
  // accumulated into (a replayed kernel finds the previous epoch's values).
  const float* av = a.values().data();
  const float* bv = b.values().data();
  float* ov = out->values.data();
  auto run = [av, bv, ov, n, k, m]() { simd::MatMulRowsF32(av, bv, ov, 0, n, k, m); };
  run();
  simd::CountSweep(static_cast<int64_t>(n) * m);
  if (rec::Recording()) {
    rec::Record("MatMul", out, {a.node(), b.node()}, run);
  }
  AttachBackward(out, {a, b}, [n, k, m](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    TensorNode* bn = o->parents[1].get();
    const float* g = o->grad.data();
    if (an->requires_grad) {
      // dA = G * B^T: B is transposed once and the forward's row-axpy body
      // runs against B^T (ga[i,:] += sum_j g[i,j] * B^T[j,:]). Each element
      // folds from +0 over j ascending, the order of the serial dot loop
      // against rows of B, so the result is bitwise-equal to it for finite
      // B. The transpose lives in per-thread scratch that only grows, so
      // plan replay stays allocation-free.
      an->EnsureGrad();
      float* ga = an->grad.data();
      const float* bv = bn->values.data();
      thread_local std::vector<float> bt_scratch;
      if (bt_scratch.size() < static_cast<size_t>(k) * m) {
        bt_scratch.resize(static_cast<size_t>(k) * m);
      }
      for (int kk = 0; kk < k; ++kk) {
        for (int j = 0; j < m; ++j) {
          bt_scratch[static_cast<size_t>(j) * k + kk] = bv[static_cast<size_t>(kk) * m + j];
        }
      }
      simd::MatMulAccRowsF32(g, bt_scratch.data(), ga, 0, n, /*k=*/m, /*m=*/k);
    }
    if (bn->requires_grad) {
      // dB = A^T * G, with the i loop outermost so each dB element
      // accumulates in row order.
      bn->EnsureGrad();
      float* gb = bn->grad.data();
      const float* av = an->values.data();
      simd::MatMulGradBRowsF32(g, av, gb, 0, k, n, k, m);
    }
  });
  return Tensor::FromNode(out);
}

Tensor Sum(const Tensor& a) {
  auto out = NewNode(1, 1);
  // One double accumulator in index order.
  const float* av = a.values().data();
  const int64_t n = a.numel();
  float* ov = out->values.data();
  auto run = [av, n, ov]() {
    double acc = 0.0;
    for (int64_t i = 0; i < n; ++i) acc += av[i];
    ov[0] = static_cast<float>(acc);
  };
  run();
  if (rec::Recording()) {
    rec::Record("Sum", out, {a.node()}, run);
  }
  AttachBackward(out, {a}, [](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float g = o->grad[0];
    float* ga = an->grad.data();
    const int64_t n = static_cast<int64_t>(an->grad.size());
    simd::AddScalarAccF32(g, ga, n);
  });
  return Tensor::FromNode(out);
}

Tensor Mean(const Tensor& a) {
  CHECK_GT(a.numel(), 0);
  return MulScalar(Sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor RowSoftmax(const Tensor& a) {
  auto out = NewNodeLike(a);
  const int cols = a.cols();
  const float* av = a.values().data();
  float* ov = out->values.data();
  const int rows = a.rows();
  auto run = [av, ov, cols, rows]() {
    for (int r = 0; r < rows; ++r) {
      const size_t base = static_cast<size_t>(r) * cols;
      float max_v = av[base];
      for (int c = 1; c < cols; ++c) max_v = std::max(max_v, av[base + c]);
      double denom = 0.0;
      for (int c = 0; c < cols; ++c) {
        ov[base + c] = std::exp(av[base + c] - max_v);
        denom += ov[base + c];
      }
      for (int c = 0; c < cols; ++c) ov[base + c] /= static_cast<float>(denom);
    }
  };
  run();
  if (rec::Recording()) {
    rec::Record("RowSoftmax", out, {a.node()}, run);
  }
  AttachBackward(out, {a}, [cols](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    const float* ov = o->values.data();
    float* ga = an->grad.data();
    for (int r = 0; r < o->rows; ++r) {
      const size_t base = static_cast<size_t>(r) * cols;
      double dot = 0.0;
      for (int c = 0; c < cols; ++c) dot += g[base + c] * ov[base + c];
      for (int c = 0; c < cols; ++c) {
        ga[base + c] += ov[base + c] * (g[base + c] - static_cast<float>(dot));
      }
    }
  });
  return Tensor::FromNode(out);
}

Tensor RowLogSoftmax(const Tensor& a) {
  auto out = NewNodeLike(a);
  const int cols = a.cols();
  const float* av = a.values().data();
  float* ov = out->values.data();
  const int rows = a.rows();
  auto run = [av, ov, cols, rows]() {
    for (int r = 0; r < rows; ++r) {
      const size_t base = static_cast<size_t>(r) * cols;
      float max_v = av[base];
      for (int c = 1; c < cols; ++c) max_v = std::max(max_v, av[base + c]);
      double denom = 0.0;
      for (int c = 0; c < cols; ++c) denom += std::exp(av[base + c] - max_v);
      const float log_denom = max_v + static_cast<float>(std::log(denom));
      for (int c = 0; c < cols; ++c) ov[base + c] = av[base + c] - log_denom;
    }
  };
  run();
  if (rec::Recording()) {
    rec::Record("RowLogSoftmax", out, {a.node()}, run);
  }
  AttachBackward(out, {a}, [cols](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    const float* ov = o->values.data();
    float* ga = an->grad.data();
    for (int r = 0; r < o->rows; ++r) {
      const size_t base = static_cast<size_t>(r) * cols;
      double grad_sum = 0.0;
      for (int c = 0; c < cols; ++c) grad_sum += g[base + c];
      for (int c = 0; c < cols; ++c) {
        ga[base + c] += g[base + c] - std::exp(ov[base + c]) * static_cast<float>(grad_sum);
      }
    }
  });
  return Tensor::FromNode(out);
}

}  // namespace revelio::tensor
