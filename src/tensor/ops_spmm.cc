#include <algorithm>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/op_helpers.h"
#include "tensor/ops.h"
#include "tensor/record.h"
#include "tensor/simd.h"
#include "tensor/sparse.h"
#include "util/parallel.h"

// Fused CSR SpMM aggregation kernels. One pass replaces the legacy
// Gather -> RowScale -> ScatterAdd chain without materializing the per-edge
// feature matrix. All loops follow the owner-computes contract: the forward
// pass and d-weights partition over output rows via the CSR view, dX
// partitions over input rows via the precomputed transpose, so every float
// has exactly one writer and results are bitwise-identical for any thread
// count. Within a row, nonzeros are visited in increasing edge order and
// accumulated as multiply-then-add into a zero-initialized accumulator —
// exactly the operation sequence of the legacy chain, which keeps the fused
// path bitwise-equal to it (no FMA contraction on the baseline target).

namespace revelio::tensor {

using internal::TensorNode;

namespace {

// Rows per chunk for an SpMM partitioned over `num_rows` rows with `nnz`
// total nonzeros and `cols` features: per-row cost is the feature width times
// the average degree (plus the pointer walk).
int64_t SpmmGrain(int64_t num_rows, int64_t nnz, int64_t cols) {
  const int64_t avg_degree = nnz / std::max<int64_t>(1, num_rows);
  return RowGrain(cols * (1 + avg_degree));
}

void RecordSpmmMetrics(const CsrPattern& p, int cols) {
  static obs::Counter* calls = obs::MetricsRegistry::Global().GetCounter("tensor.spmm.calls");
  static obs::Counter* flops = obs::MetricsRegistry::Global().GetCounter("tensor.spmm.flops");
  static obs::Counter* bytes = obs::MetricsRegistry::Global().GetCounter("tensor.spmm.bytes");
  calls->Increment();
  flops->Add(uint64_t{2} * p.nnz() * cols);
  // Feature rows gathered per nonzero, plus the output rows written.
  bytes->Add(sizeof(float) * (static_cast<uint64_t>(p.nnz()) + p.num_rows) * cols);
}

// out[j, :] = sum_k w[edge_idx[k]] * x[col_idx[k], :] over row j's nonzeros.
// `wv == nullptr` means all-ones weights (the unweighted sum variant).
void SpmmForward(const CsrPattern& p, const float* wv, const float* xv, float* ov, int cols) {
  const int* row_ptr = p.row_ptr.data();
  const int* col_idx = p.col_idx.data();
  const int* edge_idx = p.edge_idx.data();
  util::ParallelFor(0, p.num_rows, SpmmGrain(p.num_rows, p.nnz(), cols),
                    [=](int64_t rb, int64_t re) {
                      const bool use_simd = simd::Enabled();
                      for (int64_t j = rb; j < re; ++j) {
                        float* out_row = ov + static_cast<size_t>(j) * cols;
                        // A replay finds the previous epoch's sums; zeroing the
                        // row here (inside its owning chunk) preserves the
                        // accumulator semantics and first-touch locality.
                        std::fill(out_row, out_row + cols, 0.0f);
                        for (int k = row_ptr[j]; k < row_ptr[j + 1]; ++k) {
                          const size_t xbase = static_cast<size_t>(col_idx[k]) * cols;
                          const float w = wv ? wv[edge_idx[k]] : 1.0f;
                          if (use_simd) {
                            simd::AxpyF32(w, xv + xbase, out_row, cols);
                          } else {
                            const float* x_row = xv + xbase;
                            for (int c = 0; c < cols; ++c) out_row[c] += w * x_row[c];
                          }
                        }
                      }
                    });
}

// dX[i, :] += sum over transpose-column i of w[tedge_idx[k]] * g[trow_idx[k], :].
void SpmmBackwardX(const CsrPattern& p, const float* wv, const float* g, float* gx, int cols) {
  const int* tcol_ptr = p.tcol_ptr.data();
  const int* trow_idx = p.trow_idx.data();
  const int* tedge_idx = p.tedge_idx.data();
  util::ParallelFor(0, p.num_cols, SpmmGrain(p.num_cols, p.nnz(), cols),
                    [=](int64_t ib, int64_t ie) {
                      const bool use_simd = simd::Enabled();
                      for (int64_t i = ib; i < ie; ++i) {
                        float* gx_row = gx + static_cast<size_t>(i) * cols;
                        for (int k = tcol_ptr[i]; k < tcol_ptr[i + 1]; ++k) {
                          const float* g_row = g + static_cast<size_t>(trow_idx[k]) * cols;
                          const float w = wv ? wv[tedge_idx[k]] : 1.0f;
                          if (use_simd) {
                            simd::AxpyF32(w, g_row, gx_row, cols);
                            continue;
                          }
                          for (int c = 0; c < cols; ++c) gx_row[c] += w * g_row[c];
                        }
                      }
                    });
}

// dW[edge_idx[k]] += <g[row of k, :], x[col_idx[k], :]>. Partitioned over
// output rows; every edge id appears exactly once in the pattern, so each
// grad slot has a single writer.
void SpmmBackwardW(const CsrPattern& p, const float* g, const float* xv, float* gw, int cols) {
  const int* row_ptr = p.row_ptr.data();
  const int* col_idx = p.col_idx.data();
  const int* edge_idx = p.edge_idx.data();
  util::ParallelFor(0, p.num_rows, SpmmGrain(p.num_rows, p.nnz(), cols),
                    [=](int64_t rb, int64_t re) {
                      // The SIMD dot is the shared DotF32 reduction (ulp-
                      // bounded class) — the same kernel RowScale's dscale
                      // uses, so the fused-vs-chain backward identity stays
                      // bitwise between the two paths.
                      const bool use_simd = simd::Enabled();
                      for (int64_t j = rb; j < re; ++j) {
                        const float* g_row = g + static_cast<size_t>(j) * cols;
                        for (int k = row_ptr[j]; k < row_ptr[j + 1]; ++k) {
                          const float* x_row = xv + static_cast<size_t>(col_idx[k]) * cols;
                          if (use_simd) {
                            gw[edge_idx[k]] += simd::DotF32(g_row, x_row, cols);
                            continue;
                          }
                          float acc = 0.0f;
                          for (int c = 0; c < cols; ++c) acc += g_row[c] * x_row[c];
                          gw[edge_idx[k]] += acc;
                        }
                      }
                    });
}

void CheckPattern(const CsrPatternRef& pattern, const Tensor& x, const char* op) {
  CHECK(pattern != nullptr) << op << ": null CSR pattern";
  CHECK_EQ(pattern->num_cols, x.rows()) << op << ": pattern/input row mismatch";
}

}  // namespace

Tensor SpmmCsr(const CsrPatternRef& pattern, const Tensor& x) {
  CheckPattern(pattern, x, "SpmmCsr");
  const int cols = x.cols();
  obs::ScopedSpan span("tensor.SpmmCsr", obs::FlightPolicy::kSkip);
  RecordSpmmMetrics(*pattern, cols);
  auto out = NewNode(pattern->num_rows, cols);
  const float* xv = x.values().data();
  float* ov = out->values.data();
  SpmmForward(*pattern, nullptr, xv, ov, cols);
  if (simd::Enabled()) {
    simd::CountSweep(static_cast<int64_t>(pattern->nnz()) * cols);
  }
  if (rec::Recording()) {
    rec::Record("SpmmCsr", out, {x.node()}, [pattern, xv, ov, cols]() {
      SpmmForward(*pattern, nullptr, xv, ov, cols);
    });
  }
  AttachBackward(out, {x}, [pattern, cols](TensorNode* o) {
    TensorNode* xn = o->parents[0].get();
    if (!xn->requires_grad) return;
    xn->EnsureGrad();
    SpmmBackwardX(*pattern, nullptr, o->grad.data(), xn->grad.data(), cols);
  });
  return Tensor::FromNode(out);
}

Tensor SpmmCsrWeighted(const CsrPatternRef& pattern, const Tensor& weights, const Tensor& x) {
  CheckPattern(pattern, x, "SpmmCsrWeighted");
  CHECK_EQ(weights.rows(), pattern->num_edges) << "SpmmCsrWeighted: weight vector length";
  CHECK_EQ(weights.cols(), 1);
  const int cols = x.cols();
  obs::ScopedSpan span("tensor.SpmmCsr", obs::FlightPolicy::kSkip);
  RecordSpmmMetrics(*pattern, cols);
  auto out = NewNode(pattern->num_rows, cols);
  const float* wv = weights.values().data();
  const float* xv = x.values().data();
  float* ov = out->values.data();
  SpmmForward(*pattern, wv, xv, ov, cols);
  if (simd::Enabled()) {
    simd::CountSweep(static_cast<int64_t>(pattern->nnz()) * cols);
  }
  if (rec::Recording()) {
    rec::Record("SpmmCsrWeighted", out, {weights.node(), x.node()},
                [pattern, wv, xv, ov, cols]() {
                  SpmmForward(*pattern, wv, xv, ov, cols);
                });
  }
  AttachBackward(out, {weights, x}, [pattern, cols](TensorNode* o) {
    TensorNode* wn = o->parents[0].get();
    TensorNode* xn = o->parents[1].get();
    if (xn->requires_grad) {
      xn->EnsureGrad();
      SpmmBackwardX(*pattern, wn->values.data(), o->grad.data(), xn->grad.data(), cols);
    }
    if (wn->requires_grad) {
      wn->EnsureGrad();
      SpmmBackwardW(*pattern, o->grad.data(), xn->values.data(), wn->grad.data(), cols);
    }
  });
  return Tensor::FromNode(out);
}

Tensor SpmmCsrMean(const CsrPatternRef& pattern, const Tensor& x) {
  CheckPattern(pattern, x, "SpmmCsrMean");
  const int cols = x.cols();
  obs::ScopedSpan span("tensor.SpmmCsr", obs::FlightPolicy::kSkip);
  RecordSpmmMetrics(*pattern, cols);
  // Mean = sum with per-nonzero weight 1/degree(row); rows with no nonzeros
  // keep their zero initialization. The weight vector is indexed by edge id
  // so the same kernels apply unchanged.
  auto degree_weights = std::make_shared<std::vector<float>>(
      static_cast<size_t>(pattern->num_edges), 0.0f);
  for (int j = 0; j < pattern->num_rows; ++j) {
    const int begin = pattern->row_ptr[static_cast<size_t>(j)];
    const int end = pattern->row_ptr[static_cast<size_t>(j) + 1];
    if (begin == end) continue;
    const float inv = 1.0f / static_cast<float>(end - begin);
    for (int k = begin; k < end; ++k) {
      (*degree_weights)[static_cast<size_t>(pattern->edge_idx[static_cast<size_t>(k)])] = inv;
    }
  }
  auto out = NewNode(pattern->num_rows, cols);
  const float* xv = x.values().data();
  float* ov = out->values.data();
  SpmmForward(*pattern, degree_weights->data(), xv, ov, cols);
  if (simd::Enabled()) {
    simd::CountSweep(static_cast<int64_t>(pattern->nnz()) * cols);
  }
  if (rec::Recording()) {
    rec::Record("SpmmCsrMean", out, {x.node()}, [pattern, degree_weights, xv, ov, cols]() {
      SpmmForward(*pattern, degree_weights->data(), xv, ov, cols);
    });
  }
  AttachBackward(out, {x}, [pattern, degree_weights, cols](TensorNode* o) {
    TensorNode* xn = o->parents[0].get();
    if (!xn->requires_grad) return;
    xn->EnsureGrad();
    SpmmBackwardX(*pattern, degree_weights->data(), o->grad.data(), xn->grad.data(), cols);
  });
  return Tensor::FromNode(out);
}

}  // namespace revelio::tensor
