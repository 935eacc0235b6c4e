#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/op_helpers.h"
#include "tensor/ops.h"
#include "tensor/record.h"
#include "tensor/simd.h"
#include "util/parallel.h"

// Irregular (index-driven) kernels. Parallel variants partition the OUTPUT
// rows: chunks that scatter scan the whole index list and keep only the
// entries landing in their row range, so every output row has exactly one
// writer and accumulates in the serial scan order (bitwise-identical results
// for any thread count). The scan is redundant across chunks, which is the
// standard trade for deterministic lock-free scatter on CPUs; the grain
// thresholds keep small tensors on the single-scan serial path.

namespace revelio::tensor {

using internal::TensorNode;

namespace {

// Rows per chunk for a scatter partitioned over `num_rows` output rows when
// the full index scan costs `indices` lookups and the useful work per
// landing row is `cols` floats. Forces the serial path when the total work
// is too small to amortize a per-chunk scan.
int64_t ScatterGrain(int64_t num_rows, int64_t indices, int64_t cols) {
  constexpr int64_t kMinScatterWork = int64_t{1} << 14;
  if (indices * cols < kMinScatterWork) return std::max<int64_t>(1, num_rows);
  return 1;  // ParallelFor caps the chunk count at the thread count
}

}  // namespace

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
    // Output rows are independent -> partition over i.
    util::ParallelFor(0, n, RowGrain(cols),
                      [av, ov, idx, cols, num_src_rows](int64_t ib, int64_t ie) {
                        (void)num_src_rows;
                        for (int64_t i = ib; i < ie; ++i) {
                          const int src = idx[i];
                          DCHECK(src >= 0 && src < num_src_rows)
                              << "GatherRows index " << src << " out of range";
                          std::copy(av + static_cast<size_t>(src) * cols,
                                    av + static_cast<size_t>(src + 1) * cols,
                                    ov + static_cast<size_t>(i) * cols);
                        }
                      });
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
    // Scatter into the source grad: partition over destination rows.
    util::ParallelFor(0, an->rows, ScatterGrain(an->rows, n, cols),
                      [g, ga, idx, cols, n](int64_t rb, int64_t re) {
                        const bool use_simd = simd::Enabled();
                        for (int64_t i = 0; i < n; ++i) {
                          const int dst = idx[i];
                          if (dst < rb || dst >= re) continue;
                          const size_t dst_base = static_cast<size_t>(dst) * cols;
                          const size_t src_base = static_cast<size_t>(i) * cols;
                          if (use_simd) {
                            simd::AddAccF32(g + src_base, ga + dst_base, cols);
                            continue;
                          }
                          for (int c = 0; c < cols; ++c) ga[dst_base + c] += g[src_base + c];
                        }
                      });
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
  // Partition over destination rows; each chunk zeroes its own row range
  // (a replay finds the previous epoch's sums), then scans all indices and
  // adds the rows landing in its range, in the serial scan order.
  auto kernel = [sv, ov, cols, n, num_rows](const int* idx) {
    util::ParallelFor(0, num_rows, ScatterGrain(num_rows, n, cols),
                      [sv, ov, idx, cols, n, num_rows](int64_t rb, int64_t re) {
                        (void)num_rows;
                        std::fill(ov + rb * cols, ov + re * cols, 0.0f);
                        const bool use_simd = simd::Enabled();
                        for (int64_t i = 0; i < n; ++i) {
                          const int dst = idx[i];
                          DCHECK(dst >= 0 && dst < num_rows)
                              << "ScatterAddRows index " << dst << " out of range";
                          if (dst < rb || dst >= re) continue;
                          const size_t dst_base = static_cast<size_t>(dst) * cols;
                          const size_t src_base = static_cast<size_t>(i) * cols;
                          if (use_simd) {
                            simd::AddAccF32(sv + src_base, ov + dst_base, cols);
                            continue;
                          }
                          for (int c = 0; c < cols; ++c) ov[dst_base + c] += sv[src_base + c];
                        }
                      });
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
    // row, so the i loop partitions directly.
    util::ParallelFor(0, static_cast<int64_t>(indices.size()), RowGrain(cols),
                      [g, gs, idx, cols](int64_t ib, int64_t ie) {
                        const bool use_simd = simd::Enabled();
                        for (int64_t i = ib; i < ie; ++i) {
                          const size_t src_base = static_cast<size_t>(idx[i]) * cols;
                          const size_t dst_base = static_cast<size_t>(i) * cols;
                          if (use_simd) {
                            simd::AddAccF32(g + src_base, gs + dst_base, cols);
                            continue;
                          }
                          for (int c = 0; c < cols; ++c) gs[dst_base + c] += g[src_base + c];
                        }
                      });
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
    util::ParallelFor(0, rows, RowGrain(cols), [av, sv, ov, cols](int64_t rb, int64_t re) {
      const bool use_simd = simd::Enabled();
      for (int64_t r = rb; r < re; ++r) {
        const size_t base = static_cast<size_t>(r) * cols;
        if (use_simd) {
          simd::MulScalarF32(av + base, sv[r], ov + base, cols);
          continue;
        }
        for (int c = 0; c < cols; ++c) ov[base + c] = av[base + c] * sv[r];
      }
    });
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
      util::ParallelFor(0, o->rows, RowGrain(cols), [g, ga, sv, cols](int64_t rb, int64_t re) {
        const bool use_simd = simd::Enabled();
        for (int64_t r = rb; r < re; ++r) {
          const size_t base = static_cast<size_t>(r) * cols;
          const float s = sv[r];
          if (use_simd) {
            simd::MulAccF32(g + base, s, ga + base, cols);
            continue;
          }
          for (int c = 0; c < cols; ++c) ga[base + c] += g[base + c] * s;
        }
      });
    }
    if (sn->requires_grad) {
      sn->EnsureGrad();
      float* gs = sn->grad.data();
      const float* av = an->values.data();
      // The SIMD path uses the shared DotF32 reduction — the same kernel
      // SpmmBackwardW uses, keeping the fused-vs-chain backward identity
      // bitwise between the two aggregation paths (ulp-bounded vs serial).
      util::ParallelFor(0, o->rows, RowGrain(cols), [g, gs, av, cols](int64_t rb, int64_t re) {
        const bool use_simd = simd::Enabled();
        for (int64_t r = rb; r < re; ++r) {
          const size_t base = static_cast<size_t>(r) * cols;
          if (use_simd) {
            gs[r] += simd::DotF32(g + base, av + base, cols);
            continue;
          }
          float acc = 0.0f;
          for (int c = 0; c < cols; ++c) acc += g[base + c] * av[base + c];
          gs[r] += acc;
        }
      });
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
    util::ParallelFor(0, rows, RowGrain(ac + bc), [av, bv, ov, ac, bc](int64_t rb, int64_t re) {
      for (int64_t r = rb; r < re; ++r) {
        std::copy(av + static_cast<size_t>(r) * ac, av + static_cast<size_t>(r + 1) * ac,
                  ov + static_cast<size_t>(r) * (ac + bc));
        std::copy(bv + static_cast<size_t>(r) * bc, bv + static_cast<size_t>(r + 1) * bc,
                  ov + static_cast<size_t>(r) * (ac + bc) + ac);
      }
    });
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
      util::ParallelFor(0, o->rows, RowGrain(ac), [g, ga, ac, bc](int64_t rb, int64_t re) {
        for (int64_t r = rb; r < re; ++r) {
          const size_t out_base = static_cast<size_t>(r) * (ac + bc);
          for (int c = 0; c < ac; ++c) {
            ga[static_cast<size_t>(r) * ac + c] += g[out_base + c];
          }
        }
      });
    }
    if (bn->requires_grad) {
      bn->EnsureGrad();
      float* gb = bn->grad.data();
      util::ParallelFor(0, o->rows, RowGrain(bc), [g, gb, ac, bc](int64_t rb, int64_t re) {
        for (int64_t r = rb; r < re; ++r) {
          const size_t out_base = static_cast<size_t>(r) * (ac + bc);
          for (int c = 0; c < bc; ++c) {
            gb[static_cast<size_t>(r) * bc + c] += g[out_base + ac + c];
          }
        }
      });
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
  // exactly one segment chunk), so the kernel needs no zeroing pass.
  auto out = NewNode(n, 1);
  const float* v = values.values().data();
  float* ov = out->values.data();
  // Per-segment max for numerical stability, then normalize. Partitioned
  // over segments (each chunk owns a segment range and scans all entries),
  // so both the reductions and the normalized outputs have one writer each.
  // The reduction scratch lives inside the kernel: every invocation
  // (eager or replayed) starts from fresh accumulators.
  auto kernel = [v, ov, n, num_segments](const int* seg) {
    std::vector<float> seg_max(num_segments, -std::numeric_limits<float>::infinity());
    std::vector<double> seg_sum(num_segments, 0.0);
    float* max_data = seg_max.data();
    double* sum_data = seg_sum.data();
    const int64_t seg_grain = ScatterGrain(num_segments, n, 2);
    util::ParallelFor(0, num_segments, seg_grain,
                      [v, ov, seg, max_data, sum_data, n, num_segments](int64_t sb, int64_t se) {
                        (void)num_segments;
                        for (int64_t i = 0; i < n; ++i) {
                          const int s = seg[i];
                          DCHECK(s >= 0 && s < num_segments);
                          if (s < sb || s >= se) continue;
                          max_data[s] = std::max(max_data[s], v[i]);
                        }
                        for (int64_t i = 0; i < n; ++i) {
                          const int s = seg[i];
                          if (s < sb || s >= se) continue;
                          ov[i] = std::exp(v[i] - max_data[s]);
                          sum_data[s] += ov[i];
                        }
                        for (int64_t i = 0; i < n; ++i) {
                          const int s = seg[i];
                          if (s < sb || s >= se) continue;
                          ov[i] /= static_cast<float>(sum_data[s]);
                        }
                      });
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
    double* dot_data = seg_dot.data();
    util::ParallelFor(0, num_segments, ScatterGrain(num_segments, n, 2),
                      [g, ov, gv, seg, dot_data, n](int64_t sb, int64_t se) {
                        for (int64_t i = 0; i < n; ++i) {
                          const int s = seg[i];
                          if (s < sb || s >= se) continue;
                          dot_data[s] += g[i] * ov[i];
                        }
                        for (int64_t i = 0; i < n; ++i) {
                          const int s = seg[i];
                          if (s < sb || s >= se) continue;
                          gv[i] += ov[i] * (g[i] - static_cast<float>(dot_data[s]));
                        }
                      });
  });
  return Tensor::FromNode(out);
}

Tensor SegmentMeanRows(const Tensor& a, const std::vector<int>& segment_ids, int num_segments) {
  CHECK_EQ(a.rows(), static_cast<int>(segment_ids.size()));
  const int cols = a.cols();
  auto out = NewNode(num_segments, cols);
  std::vector<int> counts(num_segments, 0);
  for (int s : segment_ids) {
    DCHECK(s >= 0 && s < num_segments);
    ++counts[s];
  }
  const float* av = a.values().data();
  float* ov = out->values.data();
  const int64_t rows = a.rows();
  // Partition over destination segments (owner computes); each chunk zeroes
  // its own segment range before accumulating, so re-running the kernel on
  // a retained output buffer starts clean.
  auto kernel = [av, ov, cols, rows, num_segments](const int* seg, const int* cnt) {
    util::ParallelFor(0, num_segments, ScatterGrain(num_segments, rows, cols),
                      [av, ov, seg, cnt, cols, rows](int64_t sb, int64_t se) {
                        std::fill(ov + sb * cols, ov + se * cols, 0.0f);
                        for (int64_t r = 0; r < rows; ++r) {
                          const int s = seg[r];
                          if (s < sb || s >= se) continue;
                          const float inv = 1.0f / static_cast<float>(cnt[s]);
                          const size_t src = static_cast<size_t>(r) * cols;
                          const size_t dst = static_cast<size_t>(s) * cols;
                          for (int c = 0; c < cols; ++c) ov[dst + c] += av[src + c] * inv;
                        }
                      });
  };
  kernel(segment_ids.data(), counts.data());
  if (rec::Recording()) {
    rec::Record("SegmentMeanRows", out, {a.node()},
                [kernel, segment_ids, counts]() { kernel(segment_ids.data(), counts.data()); });
  }
  AttachBackward(out, {a}, [segment_ids, counts, cols](TensorNode* o) {
    TensorNode* an = o->parents[0].get();
    if (!an->requires_grad) return;
    an->EnsureGrad();
    const float* g = o->grad.data();
    float* ga = an->grad.data();
    const int* seg = segment_ids.data();
    const int* cnt = counts.data();
    // Gather shape: each source row reads one segment row -> partition over r.
    util::ParallelFor(0, an->rows, RowGrain(cols), [g, ga, seg, cnt, cols](int64_t rb, int64_t re) {
      for (int64_t r = rb; r < re; ++r) {
        const int s = seg[r];
        const float inv = 1.0f / static_cast<float>(cnt[s]);
        const size_t src = static_cast<size_t>(s) * cols;
        const size_t dst = static_cast<size_t>(r) * cols;
        for (int c = 0; c < cols; ++c) ga[dst + c] += g[src + c] * inv;
      }
    });
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
  // to -1 on every invocation, and each chunk zeroes its segments first so
  // empty segments read 0 on replay too.
  auto argmax = std::make_shared<std::vector<int>>(static_cast<size_t>(num_segments) * cols, -1);
  const float* av = a.values().data();
  float* ov = out->values.data();
  int* arg = argmax->data();
  const int64_t rows = a.rows();
  const int64_t flats = static_cast<int64_t>(argmax->size());
  // Partition over destination segments (owner computes).
  auto kernel = [av, ov, arg, cols, rows, num_segments, flats](const int* seg) {
    std::fill(arg, arg + flats, -1);
    util::ParallelFor(0, num_segments, ScatterGrain(num_segments, rows, cols),
                      [av, ov, seg, arg, cols, rows, num_segments](int64_t sb, int64_t se) {
                        (void)num_segments;
                        std::fill(ov + sb * cols, ov + se * cols, 0.0f);
                        for (int64_t r = 0; r < rows; ++r) {
                          const int s = seg[r];
                          DCHECK(s >= 0 && s < num_segments);
                          if (s < sb || s >= se) continue;
                          for (int c = 0; c < cols; ++c) {
                            const size_t flat = static_cast<size_t>(s) * cols + c;
                            const float value = av[static_cast<size_t>(r) * cols + c];
                            if (arg[flat] < 0 || value > ov[flat]) {
                              ov[flat] = value;
                              arg[flat] = static_cast<int>(r);
                            }
                          }
                        }
                      });
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
    // Two (segment, c) slots can share an argmax row but never a column, so
    // partitioning over columns gives every grad element a single writer.
    util::ParallelFor(0, cols, ScatterGrain(cols, flats, 1),
                      [g, ga, arg, cols, flats](int64_t cb, int64_t ce) {
                        for (int64_t flat = 0; flat < flats; ++flat) {
                          const int64_t c = flat % cols;
                          if (c < cb || c >= ce) continue;
                          if (arg[flat] < 0) continue;
                          ga[static_cast<size_t>(arg[flat]) * cols + c] += g[flat];
                        }
                      });
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
