#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/op_helpers.h"
#include "tensor/record.h"
#include "tensor/simd.h"
#include "util/parallel.h"

// Parallelization strategy (see DESIGN.md "Parallel execution"): every
// kernel partitions its OUTPUT range — rows for matmul/row-wise ops, the
// flat index space for elementwise ops — so each output element is written
// by exactly one chunk and the accumulation order within an element matches
// the serial loop. Results are bitwise-identical for any thread count.
//
// Recording (DESIGN.md §12): when a plan tape is active, each op appends the
// very same kernel lambda it just ran, bound to the same node buffers, so
// replay recomputes identical bits. Kernels therefore read every varying
// input through node-backed pointers (not by-value snapshots), and any
// scratch state is reset inside the lambda. obs spans/counters stay outside
// the recorded closure: replay is on the hot path and must not re-count.
//
// SIMD (DESIGN.md §13): chunk bodies dispatch to the tensor/simd.h kernels
// when simd::Enabled(), falling back to the scalar loops below otherwise.
// The dispatch lives INSIDE the chunk lambdas, so recorded tapes honor the
// runtime toggle on replay and fused elementwise chains vectorize through
// the same kernels. Vectorized bodies are bitwise-equal to the scalar loops
// (mul-then-add per element in the same order) except the dot-product
// reductions in MatMul's dA, flagged below, which are ulp-bounded.
// Transcendental forwards (Tanh/Sigmoid/Exp/Log/Softplus) stay scalar: libm
// is not lane-invariant, and they are compute- not bandwidth-bound.

namespace revelio::tensor {

using internal::TensorNode;

namespace {

// Elementwise loops share one shape: hoist the raw pointers once, then
// split the flat range.
template <typename Fn>
void ElementwiseFor(int64_t n, const Fn& fn) {
  util::ParallelFor(0, n, kElementwiseGrain, fn);
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Add");
  auto out = NewNodeLikeUninit(a);
  const float* av = a.values().data();
  const float* bv = b.values().data();
  float* ov = out->values.data();
  auto chunk = [av, bv, ov](int64_t begin, int64_t end) {
    if (simd::Enabled()) {
      simd::AddF32(av + begin, bv + begin, ov + begin, end - begin);
      return;
    }
    for (int64_t i = begin; i < end; ++i) ov[i] = av[i] + bv[i];
  };
  ElementwiseFor(out->numel(), chunk);
  if (simd::Enabled()) simd::CountSweep(out->numel());
  if (rec::Recording()) {
    rec::RecordElementwise("Add", out, {a.node(), b.node()}, out->numel(), chunk);
  }
  AttachBackward(out, {a, b}, [](TensorNode* o) {
    AccumulateInto(o->parents[0].get(), o->grad, 1.0f);
    AccumulateInto(o->parents[1].get(), o->grad, 1.0f);
  });
  return Tensor::FromNode(out);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Sub");
  auto out = NewNodeLikeUninit(a);
  const float* av = a.values().data();
  const float* bv = b.values().data();
  float* ov = out->values.data();
  auto chunk = [av, bv, ov](int64_t begin, int64_t end) {
    if (simd::Enabled()) {
      simd::SubF32(av + begin, bv + begin, ov + begin, end - begin);
      return;
    }
    for (int64_t i = begin; i < end; ++i) ov[i] = av[i] - bv[i];
  };
  ElementwiseFor(out->numel(), chunk);
  if (simd::Enabled()) simd::CountSweep(out->numel());
  if (rec::Recording()) {
    rec::RecordElementwise("Sub", out, {a.node(), b.node()}, out->numel(), chunk);
  }
  AttachBackward(out, {a, b}, [](TensorNode* o) {
    AccumulateInto(o->parents[0].get(), o->grad, 1.0f);
    AccumulateInto(o->parents[1].get(), o->grad, -1.0f);
  });
  return Tensor::FromNode(out);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Mul");
  auto out = NewNodeLikeUninit(a);
  const float* av = a.values().data();
  const float* bv = b.values().data();
  float* ov = out->values.data();
  auto chunk = [av, bv, ov](int64_t begin, int64_t end) {
    if (simd::Enabled()) {
      simd::MulF32(av + begin, bv + begin, ov + begin, end - begin);
      return;
    }
    for (int64_t i = begin; i < end; ++i) ov[i] = av[i] * bv[i];
  };
  ElementwiseFor(out->numel(), chunk);
  if (simd::Enabled()) simd::CountSweep(out->numel());
  if (rec::Recording()) {
    rec::RecordElementwise("Mul", out, {a.node(), b.node()}, out->numel(), chunk);
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
      ElementwiseFor(n, [g, ga, bv](int64_t begin, int64_t end) {
        if (simd::Enabled()) {
          simd::MulPairAccF32(g + begin, bv + begin, ga + begin, end - begin);
          return;
        }
        for (int64_t i = begin; i < end; ++i) ga[i] += g[i] * bv[i];
      });
    }
    if (bn->requires_grad) {
      bn->EnsureGrad();
      float* gb = bn->grad.data();
      const float* av = an->values.data();
      ElementwiseFor(n, [g, gb, av](int64_t begin, int64_t end) {
        if (simd::Enabled()) {
          simd::MulPairAccF32(g + begin, av + begin, gb + begin, end - begin);
          return;
        }
        for (int64_t i = begin; i < end; ++i) gb[i] += g[i] * av[i];
      });
    }
  });
  return Tensor::FromNode(out);
}

Tensor AddRowBroadcast(const Tensor& matrix, const Tensor& row) {
  CHECK_EQ(row.rows(), 1);
  CHECK_EQ(row.cols(), matrix.cols());
  auto out = NewNodeLikeUninit(matrix);
  const float* mv = matrix.values().data();
  const float* rv = row.values().data();
  float* ov = out->values.data();
  const int cols = matrix.cols();
  const int rows = matrix.rows();
  auto run = [mv, rv, ov, cols, rows]() {
    util::ParallelFor(0, rows, RowGrain(cols), [mv, rv, ov, cols](int64_t rb, int64_t re) {
      for (int64_t r = rb; r < re; ++r) {
        const size_t base = static_cast<size_t>(r) * cols;
        if (simd::Enabled()) {
          simd::AddF32(mv + base, rv, ov + base, cols);
          continue;
        }
        for (int c = 0; c < cols; ++c) ov[base + c] = mv[base + c] + rv[c];
      }
    });
  };
  run();
  if (simd::Enabled()) simd::CountSweep(out->numel());
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
      // Column-partitioned so each grad entry has one owner; the per-column
      // sum keeps the serial row order.
      util::ParallelFor(0, cols, RowGrain(rows), [g, gr, cols, rows](int64_t cb, int64_t ce) {
        for (int64_t c = cb; c < ce; ++c) {
          float acc = 0.0f;
          for (int r = 0; r < rows; ++r) acc += g[static_cast<size_t>(r) * cols + c];
          gr[c] += acc;
        }
      });
    }
  });
  return Tensor::FromNode(out);
}

Tensor AddScalar(const Tensor& a, float s) {
  auto out = NewNodeLikeUninit(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  auto chunk = [av, ov, s](int64_t begin, int64_t end) {
    if (simd::Enabled()) {
      simd::AddScalarF32(av + begin, s, ov + begin, end - begin);
      return;
    }
    for (int64_t i = begin; i < end; ++i) ov[i] = av[i] + s;
  };
  ElementwiseFor(out->numel(), chunk);
  if (simd::Enabled()) simd::CountSweep(out->numel());
  if (rec::Recording()) {
    rec::RecordElementwise("AddScalar", out, {a.node()}, out->numel(), chunk);
  }
  AttachBackward(out, {a},
                 [](TensorNode* o) { AccumulateInto(o->parents[0].get(), o->grad, 1.0f); });
  return Tensor::FromNode(out);
}

Tensor MulScalar(const Tensor& a, float s) {
  auto out = NewNodeLikeUninit(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  auto chunk = [av, ov, s](int64_t begin, int64_t end) {
    if (simd::Enabled()) {
      simd::MulScalarF32(av + begin, s, ov + begin, end - begin);
      return;
    }
    for (int64_t i = begin; i < end; ++i) ov[i] = av[i] * s;
  };
  ElementwiseFor(out->numel(), chunk);
  if (simd::Enabled()) simd::CountSweep(out->numel());
  if (rec::Recording()) {
    rec::RecordElementwise("MulScalar", out, {a.node()}, out->numel(), chunk);
  }
  AttachBackward(out, {a},
                 [s](TensorNode* o) { AccumulateInto(o->parents[0].get(), o->grad, s); });
  return Tensor::FromNode(out);
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor ScaleByScalarTensor(const Tensor& a, const Tensor& scalar) {
  CHECK(scalar.is_scalar());
  auto out = NewNodeLikeUninit(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  // The scalar is read through its node buffer inside the chunk (not hoisted
  // by value): on plan replay the scale has been re-trained since recording.
  const float* sv = scalar.values().data();
  auto chunk = [av, ov, sv](int64_t begin, int64_t end) {
    const float s = sv[0];
    if (simd::Enabled()) {
      simd::MulScalarF32(av + begin, s, ov + begin, end - begin);
      return;
    }
    for (int64_t i = begin; i < end; ++i) ov[i] = av[i] * s;
  };
  ElementwiseFor(out->numel(), chunk);
  if (simd::Enabled()) simd::CountSweep(out->numel());
  if (rec::Recording()) {
    rec::RecordElementwise("ScaleByScalarTensor", out, {a.node(), scalar.node()}, out->numel(),
                           chunk);
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
      ElementwiseFor(n, [g, ga, s](int64_t begin, int64_t end) {
        if (simd::Enabled()) {
          simd::MulAccF32(g + begin, s, ga + begin, end - begin);
          return;
        }
        for (int64_t i = begin; i < end; ++i) ga[i] += g[i] * s;
      });
    }
    if (sn->requires_grad) {
      sn->EnsureGrad();
      // Scalar reduction: serial, in index order, for determinism.
      const float* av = an->values.data();
      float acc = 0.0f;
      for (int64_t i = 0; i < n; ++i) acc += g[i] * av[i];
      sn->grad[0] += acc;
    }
  });
  return Tensor::FromNode(out);
}

Tensor Relu(const Tensor& a) {
  auto out = NewNodeLikeUninit(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  auto chunk = [av, ov](int64_t begin, int64_t end) {
    if (simd::Enabled()) {
      simd::ReluF32(av + begin, ov + begin, end - begin);
      return;
    }
    for (int64_t i = begin; i < end; ++i) ov[i] = av[i] > 0.0f ? av[i] : 0.0f;
  };
  ElementwiseFor(out->numel(), chunk);
  if (simd::Enabled()) simd::CountSweep(out->numel());
  if (rec::Recording()) {
    rec::RecordElementwise("Relu", out, {a.node()}, out->numel(), chunk);
  }
  AttachBackward(out, {a}, [](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    const float* av = an->values.data();
    float* ga = an->grad.data();
    ElementwiseFor(static_cast<int64_t>(o->grad.size()),
                   [g, av, ga](int64_t begin, int64_t end) {
                     if (simd::Enabled()) {
                       simd::ReluGradAccF32(g + begin, av + begin, ga + begin, end - begin);
                       return;
                     }
                     for (int64_t i = begin; i < end; ++i) {
                       if (av[i] > 0.0f) ga[i] += g[i];
                     }
                   });
  });
  return Tensor::FromNode(out);
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  auto out = NewNodeLikeUninit(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  auto chunk = [av, ov, negative_slope](int64_t begin, int64_t end) {
    if (simd::Enabled()) {
      simd::LeakyReluF32(av + begin, negative_slope, ov + begin, end - begin);
      return;
    }
    for (int64_t i = begin; i < end; ++i) {
      ov[i] = av[i] > 0.0f ? av[i] : negative_slope * av[i];
    }
  };
  ElementwiseFor(out->numel(), chunk);
  if (simd::Enabled()) simd::CountSweep(out->numel());
  if (rec::Recording()) {
    rec::RecordElementwise("LeakyRelu", out, {a.node()}, out->numel(), chunk);
  }
  AttachBackward(out, {a}, [negative_slope](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    const float* av = an->values.data();
    float* ga = an->grad.data();
    ElementwiseFor(static_cast<int64_t>(o->grad.size()),
                   [g, av, ga, negative_slope](int64_t begin, int64_t end) {
                     if (simd::Enabled()) {
                       simd::LeakyReluGradAccF32(g + begin, av + begin, negative_slope,
                                                 ga + begin, end - begin);
                       return;
                     }
                     for (int64_t i = begin; i < end; ++i) {
                       ga[i] += g[i] * (av[i] > 0.0f ? 1.0f : negative_slope);
                     }
                   });
  });
  return Tensor::FromNode(out);
}

Tensor Tanh(const Tensor& a) {
  auto out = NewNodeLikeUninit(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  auto chunk = [av, ov](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) ov[i] = std::tanh(av[i]);
  };
  ElementwiseFor(out->numel(), chunk);
  if (rec::Recording()) {
    rec::RecordElementwise("Tanh", out, {a.node()}, out->numel(), chunk);
  }
  AttachBackward(out, {a}, [](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    const float* ov = o->values.data();
    float* ga = an->grad.data();
    ElementwiseFor(static_cast<int64_t>(o->grad.size()),
                   [g, ov, ga](int64_t begin, int64_t end) {
                     if (simd::Enabled()) {
                       simd::TanhGradAccF32(g + begin, ov + begin, ga + begin, end - begin);
                       return;
                     }
                     for (int64_t i = begin; i < end; ++i) {
                       ga[i] += g[i] * (1.0f - ov[i] * ov[i]);
                     }
                   });
  });
  return Tensor::FromNode(out);
}

Tensor Sigmoid(const Tensor& a) {
  auto out = NewNodeLikeUninit(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  auto chunk = [av, ov](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) ov[i] = 1.0f / (1.0f + std::exp(-av[i]));
  };
  ElementwiseFor(out->numel(), chunk);
  if (rec::Recording()) {
    rec::RecordElementwise("Sigmoid", out, {a.node()}, out->numel(), chunk);
  }
  AttachBackward(out, {a}, [](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    const float* ov = o->values.data();
    float* ga = an->grad.data();
    ElementwiseFor(static_cast<int64_t>(o->grad.size()),
                   [g, ov, ga](int64_t begin, int64_t end) {
                     if (simd::Enabled()) {
                       simd::SigmoidGradAccF32(g + begin, ov + begin, ga + begin, end - begin);
                       return;
                     }
                     for (int64_t i = begin; i < end; ++i) {
                       ga[i] += g[i] * ov[i] * (1.0f - ov[i]);
                     }
                   });
  });
  return Tensor::FromNode(out);
}

Tensor Exp(const Tensor& a) {
  auto out = NewNodeLikeUninit(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  auto chunk = [av, ov](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) ov[i] = std::exp(av[i]);
  };
  ElementwiseFor(out->numel(), chunk);
  if (rec::Recording()) {
    rec::RecordElementwise("Exp", out, {a.node()}, out->numel(), chunk);
  }
  AttachBackward(out, {a}, [](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    const float* ov = o->values.data();
    float* ga = an->grad.data();
    ElementwiseFor(static_cast<int64_t>(o->grad.size()),
                   [g, ov, ga](int64_t begin, int64_t end) {
                     if (simd::Enabled()) {
                       simd::MulPairAccF32(g + begin, ov + begin, ga + begin, end - begin);
                       return;
                     }
                     for (int64_t i = begin; i < end; ++i) ga[i] += g[i] * ov[i];
                   });
  });
  return Tensor::FromNode(out);
}

Tensor Log(const Tensor& a, float eps) {
  auto out = NewNodeLikeUninit(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  auto chunk = [av, ov, eps](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) ov[i] = std::log(std::max(av[i], eps));
  };
  ElementwiseFor(out->numel(), chunk);
  if (rec::Recording()) {
    rec::RecordElementwise("Log", out, {a.node()}, out->numel(), chunk);
  }
  AttachBackward(out, {a}, [eps](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    const float* av = an->values.data();
    float* ga = an->grad.data();
    ElementwiseFor(static_cast<int64_t>(o->grad.size()),
                   [g, av, ga, eps](int64_t begin, int64_t end) {
                     for (int64_t i = begin; i < end; ++i) {
                       ga[i] += g[i] / std::max(av[i], eps);
                     }
                   });
  });
  return Tensor::FromNode(out);
}

Tensor Softplus(const Tensor& a) {
  auto out = NewNodeLikeUninit(a);
  const float* av = a.values().data();
  float* ov = out->values.data();
  auto chunk = [av, ov](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      // Numerically stable softplus: log(1 + exp(x)) = max(x, 0) + log1p(exp(-|x|)).
      const float x = av[i];
      ov[i] = std::max(x, 0.0f) + std::log1p(std::exp(-std::fabs(x)));
    }
  };
  ElementwiseFor(out->numel(), chunk);
  if (rec::Recording()) {
    rec::RecordElementwise("Softplus", out, {a.node()}, out->numel(), chunk);
  }
  AttachBackward(out, {a}, [](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    const float* av = an->values.data();
    float* ga = an->grad.data();
    ElementwiseFor(static_cast<int64_t>(o->grad.size()),
                   [g, av, ga](int64_t begin, int64_t end) {
                     for (int64_t i = begin; i < end; ++i) {
                       const float s = 1.0f / (1.0f + std::exp(-av[i]));
                       ga[i] += g[i] * s;
                     }
                   });
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
  auto out = NewNodeUninit(n, m);
  // ikj loop order: unit-stride inner loop. Rows of the output are
  // independent, so the i loop is partitioned across threads. Each chunk
  // zeroes its own rows before accumulating (first-touch, and the pooled
  // buffer arrives dirty), matching the zero-initialized serial path.
  const float* av = a.values().data();
  const float* bv = b.values().data();
  float* ov = out->values.data();
  const int64_t row_flops = int64_t{2} * k * m;
  auto run = [av, bv, ov, n, k, m, row_flops]() {
    util::ParallelFor(0, n, RowGrain(row_flops), [av, bv, ov, k, m](int64_t ib, int64_t ie) {
      if (simd::Enabled()) {
        simd::MatMulRowsF32(av, bv, ov, ib, ie, k, m);
        return;
      }
      for (int64_t i = ib; i < ie; ++i) {
        float* orow = ov + static_cast<size_t>(i) * m;
        std::fill(orow, orow + m, 0.0f);
        for (int kk = 0; kk < k; ++kk) {
          const float aik = av[static_cast<size_t>(i) * k + kk];
          if (aik == 0.0f) continue;
          const float* brow = bv + static_cast<size_t>(kk) * m;
          for (int j = 0; j < m; ++j) orow[j] += aik * brow[j];
        }
      }
    });
  };
  run();
  if (simd::Enabled()) simd::CountSweep(static_cast<int64_t>(n) * m);
  if (rec::Recording()) {
    rec::Record("MatMul", out, {a.node(), b.node()}, run);
  }
  AttachBackward(out, {a, b}, [n, k, m](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    TensorNode* bn = o->parents[1].get();
    const float* g = o->grad.data();
    const int64_t row_flops = int64_t{2} * k * m;
    if (an->requires_grad) {
      // dA = G * B^T, computed as dot products against rows of B (the
      // transposed-B fast path: both factors are read with unit stride).
      // dA rows are independent -> partition over i. The SIMD path reduces
      // each dot with fixed lane partials: ulp-bounded, not bitwise (the
      // one such kernel on the MatMul path — see simd.h).
      an->EnsureGrad();
      float* ga = an->grad.data();
      const float* bv = bn->values.data();
      util::ParallelFor(0, n, RowGrain(row_flops), [g, ga, bv, k, m](int64_t ib, int64_t ie) {
        if (simd::Enabled()) {
          simd::MatMulGradARowsF32(g, bv, ga, ib, ie, k, m);
          return;
        }
        for (int64_t i = ib; i < ie; ++i) {
          const float* grow = g + static_cast<size_t>(i) * m;
          float* garow = ga + static_cast<size_t>(i) * k;
          for (int kk = 0; kk < k; ++kk) {
            const float* brow = bv + static_cast<size_t>(kk) * m;
            float acc = 0.0f;
            for (int j = 0; j < m; ++j) acc += grow[j] * brow[j];
            garow[kk] += acc;
          }
        }
      });
    }
    if (bn->requires_grad) {
      // dB = A^T * G. Partitioned over dB rows (kk); the i loop stays
      // innermost-outer so each dB element accumulates in serial order.
      bn->EnsureGrad();
      float* gb = bn->grad.data();
      const float* av = an->values.data();
      const int64_t col_flops = int64_t{2} * n * m;
      util::ParallelFor(0, k, RowGrain(col_flops), [g, gb, av, n, k, m](int64_t kb, int64_t ke) {
        if (simd::Enabled()) {
          simd::MatMulGradBRowsF32(g, av, gb, kb, ke, n, k, m);
          return;
        }
        for (int i = 0; i < n; ++i) {
          const float* grow = g + static_cast<size_t>(i) * m;
          const float* arow = av + static_cast<size_t>(i) * k;
          for (int64_t kk = kb; kk < ke; ++kk) {
            const float aik = arow[kk];
            if (aik == 0.0f) continue;
            float* gbrow = gb + static_cast<size_t>(kk) * m;
            for (int j = 0; j < m; ++j) gbrow[j] += aik * grow[j];
          }
        }
      });
    }
  });
  return Tensor::FromNode(out);
}

Tensor Sum(const Tensor& a) {
  auto out = NewNodeUninit(1, 1);
  // Scalar reduction stays serial: a single double accumulator in index
  // order keeps the result independent of the thread count.
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
    ElementwiseFor(static_cast<int64_t>(an->grad.size()),
                   [ga, g](int64_t begin, int64_t end) {
                     if (simd::Enabled()) {
                       simd::AddScalarAccF32(g, ga + begin, end - begin);
                       return;
                     }
                     for (int64_t i = begin; i < end; ++i) ga[i] += g;
                   });
  });
  return Tensor::FromNode(out);
}

Tensor Mean(const Tensor& a) {
  CHECK_GT(a.numel(), 0);
  return MulScalar(Sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor RowSoftmax(const Tensor& a) {
  auto out = NewNodeLikeUninit(a);
  const int cols = a.cols();
  const float* av = a.values().data();
  float* ov = out->values.data();
  const int rows = a.rows();
  auto run = [av, ov, cols, rows]() {
    util::ParallelFor(0, rows, RowGrain(3 * cols), [av, ov, cols](int64_t rb, int64_t re) {
      for (int64_t r = rb; r < re; ++r) {
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
    });
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
    util::ParallelFor(0, o->rows, RowGrain(3 * cols), [g, ov, ga, cols](int64_t rb, int64_t re) {
      for (int64_t r = rb; r < re; ++r) {
        const size_t base = static_cast<size_t>(r) * cols;
        double dot = 0.0;
        for (int c = 0; c < cols; ++c) dot += g[base + c] * ov[base + c];
        for (int c = 0; c < cols; ++c) {
          ga[base + c] += ov[base + c] * (g[base + c] - static_cast<float>(dot));
        }
      }
    });
  });
  return Tensor::FromNode(out);
}

Tensor RowLogSoftmax(const Tensor& a) {
  auto out = NewNodeLikeUninit(a);
  const int cols = a.cols();
  const float* av = a.values().data();
  float* ov = out->values.data();
  const int rows = a.rows();
  auto run = [av, ov, cols, rows]() {
    util::ParallelFor(0, rows, RowGrain(3 * cols), [av, ov, cols](int64_t rb, int64_t re) {
      for (int64_t r = rb; r < re; ++r) {
        const size_t base = static_cast<size_t>(r) * cols;
        float max_v = av[base];
        for (int c = 1; c < cols; ++c) max_v = std::max(max_v, av[base + c]);
        double denom = 0.0;
        for (int c = 0; c < cols; ++c) denom += std::exp(av[base + c] - max_v);
        const float log_denom = max_v + static_cast<float>(std::log(denom));
        for (int c = 0; c < cols; ++c) ov[base + c] = av[base + c] - log_denom;
      }
    });
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
    util::ParallelFor(0, o->rows, RowGrain(3 * cols), [g, ov, ga, cols](int64_t rb, int64_t re) {
      for (int64_t r = rb; r < re; ++r) {
        const size_t base = static_cast<size_t>(r) * cols;
        double grad_sum = 0.0;
        for (int c = 0; c < cols; ++c) grad_sum += g[base + c];
        for (int c = 0; c < cols; ++c) {
          ga[base + c] += g[base + c] - std::exp(ov[base + c]) * static_cast<float>(grad_sum);
        }
      }
    });
  });
  return Tensor::FromNode(out);
}

}  // namespace revelio::tensor
