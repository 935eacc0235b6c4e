#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/op_helpers.h"
#include "tensor/ops.h"
#include "tensor/record.h"
#include "tensor/simd.h"

// Irregular (index-driven) kernels. Like every kernel they run serially on
// the calling thread: a scatter makes one pass over the index list and
// accumulates each destination row in scan order.

namespace revelio::tensor {

using internal::TensorNode;

Tensor GatherRows(const Tensor& a, const std::vector<int>& indices) {
  const int cols = a.cols();
  obs::ScopedSpan span("tensor.GatherRows", obs::FlightPolicy::kSkip);
  static obs::Counter* calls = obs::MetricsRegistry::Global().GetCounter("tensor.gather.calls");
  static obs::Counter* bytes = obs::MetricsRegistry::Global().GetCounter("tensor.gather.bytes");
  calls->Increment();
  bytes->Add(uint64_t{2} * sizeof(float) * indices.size() * cols);
  auto out = NewNode(static_cast<int>(indices.size()), cols);
  const float* av = a.values().data();
  float* ov = out->values.data();
  const int num_src_rows = a.rows();
  const int64_t n = static_cast<int64_t>(indices.size());
  // The index list is caller-owned, so the kernel takes it as a parameter:
  // the eager call borrows it, the recorded closure owns a copy.
  auto kernel = [av, ov, cols, num_src_rows, n](const int* idx) {
    (void)num_src_rows;
    for (int64_t i = 0; i < n; ++i) {
      const int src = idx[i];
      DCHECK(src >= 0 && src < num_src_rows) << "GatherRows index " << src << " out of range";
      std::copy(av + static_cast<size_t>(src) * cols, av + static_cast<size_t>(src + 1) * cols,
                ov + static_cast<size_t>(i) * cols);
    }
  };
  kernel(indices.data());
  if (rec::Recording()) {
    rec::Record("GatherRows", out, {a.node()},
                [kernel, indices]() { kernel(indices.data()); });
  }
  AttachBackward(out, {a}, [indices, cols](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    float* ga = an->grad.data();
    const int* idx = indices.data();
    const int64_t n = static_cast<int64_t>(indices.size());
    // Scatter into the source grad.
    const bool use_simd = simd::Enabled();
    for (int64_t i = 0; i < n; ++i) {
      const size_t dst_base = static_cast<size_t>(idx[i]) * cols;
      const size_t src_base = static_cast<size_t>(i) * cols;
      if (use_simd) {
        simd::AddAccF32(g + src_base, ga + dst_base, cols);
        continue;
      }
      for (int c = 0; c < cols; ++c) ga[dst_base + c] += g[src_base + c];
    }
  });
  return Tensor::FromNode(out);
}

Tensor ScatterAddRows(const Tensor& src, const std::vector<int>& indices, int num_rows) {
  CHECK_EQ(src.rows(), static_cast<int>(indices.size()));
  const int cols = src.cols();
  obs::ScopedSpan span("tensor.ScatterAdd", obs::FlightPolicy::kSkip);
  static obs::Counter* calls =
      obs::MetricsRegistry::Global().GetCounter("tensor.scatter_add.calls");
  static obs::Counter* bytes =
      obs::MetricsRegistry::Global().GetCounter("tensor.scatter_add.bytes");
  calls->Increment();
  bytes->Add(uint64_t{2} * sizeof(float) * indices.size() * cols);
  auto out = NewNode(num_rows, cols);
  const float* sv = src.values().data();
  float* ov = out->values.data();
  const int64_t n = static_cast<int64_t>(indices.size());
  // Zero the output (a replay finds the previous epoch's sums), then add
  // every source row into its destination in scan order.
  auto kernel = [sv, ov, cols, n, num_rows](const int* idx) {
    std::fill(ov, ov + static_cast<size_t>(num_rows) * cols, 0.0f);
    const bool use_simd = simd::Enabled();
    for (int64_t i = 0; i < n; ++i) {
      const int dst = idx[i];
      DCHECK(dst >= 0 && dst < num_rows) << "ScatterAddRows index " << dst << " out of range";
      const size_t dst_base = static_cast<size_t>(dst) * cols;
      const size_t src_base = static_cast<size_t>(i) * cols;
      if (use_simd) {
        simd::AddAccF32(sv + src_base, ov + dst_base, cols);
        continue;
      }
      for (int c = 0; c < cols; ++c) ov[dst_base + c] += sv[src_base + c];
    }
  };
  kernel(indices.data());
  if (rec::Recording()) {
    rec::Record("ScatterAddRows", out, {src.node()},
                [kernel, indices]() { kernel(indices.data()); });
  }
  AttachBackward(out, {src}, [indices, cols](TensorNode* o) {
    TensorNode* sn = o->parents[0].get();
    if (!sn->requires_grad) return;
    sn->EnsureGrad();
    const float* g = o->grad.data();
    float* gs = sn->grad.data();
    const int* idx = indices.data();
    // The backward of a scatter is a gather: row i reads exactly one source
    // row.
    const bool use_simd = simd::Enabled();
    for (size_t i = 0; i < indices.size(); ++i) {
      const size_t src_base = static_cast<size_t>(idx[i]) * cols;
      const size_t dst_base = i * cols;
      if (use_simd) {
        simd::AddAccF32(g + src_base, gs + dst_base, cols);
        continue;
      }
      for (int c = 0; c < cols; ++c) gs[dst_base + c] += g[src_base + c];
    }
  });
  return Tensor::FromNode(out);
}

Tensor RowScale(const Tensor& a, const Tensor& scale) {
  CHECK_EQ(scale.rows(), a.rows());
  CHECK_EQ(scale.cols(), 1);
  const int cols = a.cols();
  // Every entry is assigned in the scaling pass below.
  auto out = NewNodeLike(a);
  const float* av = a.values().data();
  const float* sv = scale.values().data();
  float* ov = out->values.data();
  const int rows = a.rows();
  auto run = [av, sv, ov, cols, rows]() {
    const bool use_simd = simd::Enabled();
    for (int r = 0; r < rows; ++r) {
      const size_t base = static_cast<size_t>(r) * cols;
      if (use_simd) {
        simd::MulScalarF32(av + base, sv[r], ov + base, cols);
        continue;
      }
      for (int c = 0; c < cols; ++c) ov[base + c] = av[base + c] * sv[r];
    }
  };
  run();
  if (rec::Recording()) {
    rec::Record("RowScale", out, {a.node(), scale.node()}, run);
  }
  AttachBackward(out, {a, scale}, [cols](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    TensorNode* sn = o->parents[1].get();
    const float* g = o->grad.data();
    if (an->requires_grad) {
      an->EnsureGrad();
      float* ga = an->grad.data();
      const float* sv = sn->values.data();
      const bool use_simd = simd::Enabled();
      for (int r = 0; r < o->rows; ++r) {
        const size_t base = static_cast<size_t>(r) * cols;
        const float s = sv[r];
        if (use_simd) {
          simd::MulAccF32(g + base, s, ga + base, cols);
          continue;
        }
        for (int c = 0; c < cols; ++c) ga[base + c] += g[base + c] * s;
      }
    }
    if (sn->requires_grad) {
      sn->EnsureGrad();
      float* gs = sn->grad.data();
      const float* av = an->values.data();
      // The SIMD path uses the shared DotF32 reduction — the same kernel
      // SpmmBackwardW uses, keeping the SpMM kernel bitwise-equal to the
      // chain oracle in backward too (ulp-bounded vs serial).
      const bool use_simd = simd::Enabled();
      for (int r = 0; r < o->rows; ++r) {
        const size_t base = static_cast<size_t>(r) * cols;
        if (use_simd) {
          gs[r] += simd::DotF32(g + base, av + base, cols);
          continue;
        }
        float acc = 0.0f;
        for (int c = 0; c < cols; ++c) acc += g[base + c] * av[base + c];
        gs[r] += acc;
      }
    }
  });
  return Tensor::FromNode(out);
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  CHECK_EQ(a.rows(), b.rows());
  const int ac = a.cols();
  const int bc = b.cols();
  auto out = NewNode(a.rows(), ac + bc);
  const float* av = a.values().data();
  const float* bv = b.values().data();
  float* ov = out->values.data();
  const int rows = a.rows();
  auto run = [av, bv, ov, ac, bc, rows]() {
    for (int r = 0; r < rows; ++r) {
      std::copy(av + static_cast<size_t>(r) * ac, av + static_cast<size_t>(r + 1) * ac,
                ov + static_cast<size_t>(r) * (ac + bc));
      std::copy(bv + static_cast<size_t>(r) * bc, bv + static_cast<size_t>(r + 1) * bc,
                ov + static_cast<size_t>(r) * (ac + bc) + ac);
    }
  };
  run();
  if (rec::Recording()) {
    rec::Record("ConcatCols", out, {a.node(), b.node()}, run);
  }
  AttachBackward(out, {a, b}, [ac, bc](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    TensorNode* bn = o->parents[1].get();
    const float* g = o->grad.data();
    if (an->requires_grad) {
      an->EnsureGrad();
      float* ga = an->grad.data();
      for (int r = 0; r < o->rows; ++r) {
        const size_t out_base = static_cast<size_t>(r) * (ac + bc);
        for (int c = 0; c < ac; ++c) ga[static_cast<size_t>(r) * ac + c] += g[out_base + c];
      }
    }
    if (bn->requires_grad) {
      bn->EnsureGrad();
      float* gb = bn->grad.data();
      for (int r = 0; r < o->rows; ++r) {
        const size_t out_base = static_cast<size_t>(r) * (ac + bc);
        for (int c = 0; c < bc; ++c) gb[static_cast<size_t>(r) * bc + c] += g[out_base + ac + c];
      }
    }
  });
  return Tensor::FromNode(out);
}

Tensor SegmentSoftmax(const Tensor& values, const std::vector<int>& segment_ids,
                      int num_segments) {
  CHECK_EQ(values.cols(), 1);
  CHECK_EQ(values.rows(), static_cast<int>(segment_ids.size()));
  const int n = values.rows();
  // Every entry is written in the normalization pass (each belongs to
  // exactly one segment), so the kernel needs no zeroing pass.
  auto out = NewNode(n, 1);
  const float* v = values.values().data();
  float* ov = out->values.data();
  // Per-segment max for numerical stability, then normalize. The reduction
  // scratch lives inside the kernel: every invocation (eager or replayed)
  // starts from fresh accumulators.
  auto kernel = [v, ov, n, num_segments](const int* seg) {
    std::vector<float> seg_max(num_segments, -std::numeric_limits<float>::infinity());
    std::vector<double> seg_sum(num_segments, 0.0);
    for (int i = 0; i < n; ++i) {
      DCHECK(seg[i] >= 0 && seg[i] < num_segments);
      seg_max[seg[i]] = std::max(seg_max[seg[i]], v[i]);
    }
    for (int i = 0; i < n; ++i) {
      ov[i] = std::exp(v[i] - seg_max[seg[i]]);
      seg_sum[seg[i]] += ov[i];
    }
    for (int i = 0; i < n; ++i) ov[i] /= static_cast<float>(seg_sum[seg[i]]);
  };
  kernel(segment_ids.data());
  if (rec::Recording()) {
    rec::Record("SegmentSoftmax", out, {values.node()},
                [kernel, segment_ids]() { kernel(segment_ids.data()); });
  }
  AttachBackward(out, {values}, [segment_ids, num_segments, n](TensorNode* o) {
    TensorNode* vn = o->parents[0].get();
    if (!vn->requires_grad) return;
    vn->EnsureGrad();
    const float* g = o->grad.data();
    const float* ov = o->values.data();
    float* gv = vn->grad.data();
    const int* seg = segment_ids.data();
    // d v_i = y_i * (g_i - sum_{j in seg(i)} g_j y_j).
    std::vector<double> seg_dot(num_segments, 0.0);
    for (int i = 0; i < n; ++i) seg_dot[seg[i]] += g[i] * ov[i];
    for (int i = 0; i < n; ++i) gv[i] += ov[i] * (g[i] - static_cast<float>(seg_dot[seg[i]]));
  });
  return Tensor::FromNode(out);
}

Tensor SegmentMaxRows(const Tensor& a, const std::vector<int>& segment_ids, int num_segments) {
  CHECK_EQ(a.rows(), static_cast<int>(segment_ids.size()));
  const int cols = a.cols();
  auto out = NewNode(num_segments, cols);
  // argmax[(s, c)] = row index feeding the max (-1 for empty segments).
  // Shared between the forward kernel and the backward closure so a replayed
  // forward refreshes the routing the backward reads; the kernel re-arms it
  // to -1 on every invocation and zeroes the output first so empty segments
  // read 0 on replay too.
  auto argmax = std::make_shared<std::vector<int>>(static_cast<size_t>(num_segments) * cols, -1);
  const float* av = a.values().data();
  float* ov = out->values.data();
  int* arg = argmax->data();
  const int64_t rows = a.rows();
  const int64_t flats = static_cast<int64_t>(argmax->size());
  auto kernel = [av, ov, arg, cols, rows, num_segments, flats](const int* seg) {
    (void)num_segments;
    std::fill(arg, arg + flats, -1);
    std::fill(ov, ov + flats, 0.0f);
    for (int64_t r = 0; r < rows; ++r) {
      const int s = seg[r];
      DCHECK(s >= 0 && s < num_segments);
      for (int c = 0; c < cols; ++c) {
        const size_t flat = static_cast<size_t>(s) * cols + c;
        const float value = av[static_cast<size_t>(r) * cols + c];
        if (arg[flat] < 0 || value > ov[flat]) {
          ov[flat] = value;
          arg[flat] = static_cast<int>(r);
        }
      }
    }
  };
  kernel(segment_ids.data());
  if (rec::Recording()) {
    rec::Record("SegmentMaxRows", out, {a.node()},
                [kernel, segment_ids]() { kernel(segment_ids.data()); });
  }
  AttachBackward(out, {a}, [argmax, cols](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    float* ga = an->grad.data();
    const int* arg = argmax->data();
    const int64_t flats = static_cast<int64_t>(argmax->size());
    for (int64_t flat = 0; flat < flats; ++flat) {
      if (arg[flat] < 0) continue;
      ga[static_cast<size_t>(arg[flat]) * cols + flat % cols] += g[flat];
    }
  });
  return Tensor::FromNode(out);
}

Tensor Select(const Tensor& a, int row, int col) {
  CHECK(row >= 0 && row < a.rows() && col >= 0 && col < a.cols())
      << "Select(" << row << "," << col << ") out of range " << a.rows() << "x" << a.cols();
  auto out = NewNode(1, 1);
  const size_t flat = static_cast<size_t>(row) * a.cols() + col;
  const float* av = a.values().data();
  float* ov = out->values.data();
  auto run = [av, ov, flat]() { ov[0] = av[flat]; };
  run();
  if (rec::Recording()) {
    rec::Record("Select", out, {a.node()}, run);
  }
  AttachBackward(out, {a}, [flat](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    an->grad[flat] += o->grad[0];
  });
  return Tensor::FromNode(out);
}

Tensor NllLoss(const Tensor& log_probs, const std::vector<int>& targets) {
  CHECK_EQ(log_probs.rows(), static_cast<int>(targets.size()));
  CHECK_GT(targets.size(), 0u);
  const int cols = log_probs.cols();
  auto out = NewNode(1, 1);
  const float* lp = log_probs.values().data();
  float* ov = out->values.data();
  const int64_t n = static_cast<int64_t>(targets.size());
  auto kernel = [lp, ov, cols, n](const int* tgt) {
    double acc = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      DCHECK(tgt[i] >= 0 && tgt[i] < cols);
      acc -= lp[static_cast<size_t>(i) * cols + tgt[i]];
    }
    ov[0] = static_cast<float>(acc / static_cast<double>(n));
  };
  kernel(targets.data());
  if (rec::Recording()) {
    rec::Record("NllLoss", out, {log_probs.node()},
                [kernel, targets]() { kernel(targets.data()); });
  }
  AttachBackward(out, {log_probs}, [targets, cols](TensorNode* o) {
    TensorNode* ln = o->parents[0].get();
    if (!ln->requires_grad) return;
    ln->EnsureGrad();
    const float g = -o->grad[0] / static_cast<float>(targets.size());
    for (size_t i = 0; i < targets.size(); ++i) {
      ln->grad[i * cols + targets[i]] += g;
    }
  });
  return Tensor::FromNode(out);
}

}  // namespace revelio::tensor
