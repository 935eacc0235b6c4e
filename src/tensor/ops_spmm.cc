#include <algorithm>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/op_helpers.h"
#include "tensor/ops.h"
#include "tensor/record.h"
#include "tensor/simd.h"
#include "tensor/sparse.h"

// The weighted CSR SpMM, the one aggregation kernel of every GNN layer. One
// pass computes what the Gather -> RowScale -> ScatterAdd chain computes
// without materializing the per-edge feature matrix. The forward pass and
// d-weights walk output rows through the CSR view, dX walks input rows
// through the precomputed transpose. Within a row, nonzeros are visited in
// increasing edge order and accumulated as multiply-then-add into a
// zero-initialized accumulator — exactly the operation sequence of the
// chain, which keeps the kernel bitwise-equal to that test oracle (no FMA
// contraction on the baseline target; tests/prop/spmm_equivalence_test.cc).

namespace revelio::tensor {

using internal::TensorNode;

namespace {

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
void SpmmForward(const CsrPattern& p, const float* wv, const float* xv, float* ov, int cols) {
  const int* row_ptr = p.row_ptr.data();
  const int* col_idx = p.col_idx.data();
  const int* edge_idx = p.edge_idx.data();
  const bool use_simd = simd::Enabled();
  for (int j = 0; j < p.num_rows; ++j) {
    float* out_row = ov + static_cast<size_t>(j) * cols;
    // A replay finds the previous epoch's sums; zeroing the row first
    // preserves the accumulator semantics.
    std::fill(out_row, out_row + cols, 0.0f);
    for (int k = row_ptr[j]; k < row_ptr[j + 1]; ++k) {
      const size_t xbase = static_cast<size_t>(col_idx[k]) * cols;
      const float w = wv[edge_idx[k]];
      if (use_simd) {
        simd::AxpyF32(w, xv + xbase, out_row, cols);
      } else {
        const float* x_row = xv + xbase;
        for (int c = 0; c < cols; ++c) out_row[c] += w * x_row[c];
      }
    }
  }
}

// dX[i, :] += sum over transpose-column i of w[tedge_idx[k]] * g[trow_idx[k], :].
void SpmmBackwardX(const CsrPattern& p, const float* wv, const float* g, float* gx, int cols) {
  const int* tcol_ptr = p.tcol_ptr.data();
  const int* trow_idx = p.trow_idx.data();
  const int* tedge_idx = p.tedge_idx.data();
  const bool use_simd = simd::Enabled();
  for (int i = 0; i < p.num_cols; ++i) {
    float* gx_row = gx + static_cast<size_t>(i) * cols;
    for (int k = tcol_ptr[i]; k < tcol_ptr[i + 1]; ++k) {
      const float* g_row = g + static_cast<size_t>(trow_idx[k]) * cols;
      const float w = wv[tedge_idx[k]];
      if (use_simd) {
        simd::AxpyF32(w, g_row, gx_row, cols);
        continue;
      }
      for (int c = 0; c < cols; ++c) gx_row[c] += w * g_row[c];
    }
  }
}

// dW[edge_idx[k]] += <g[row of k, :], x[col_idx[k], :]>. Every edge id
// appears exactly once in the pattern, so each grad slot is written once.
void SpmmBackwardW(const CsrPattern& p, const float* g, const float* xv, float* gw, int cols) {
  const int* row_ptr = p.row_ptr.data();
  const int* col_idx = p.col_idx.data();
  const int* edge_idx = p.edge_idx.data();
  // The SIMD dot is the shared DotF32 reduction (ulp-bounded class) — the
  // same kernel RowScale's dscale uses, so the kernel-vs-chain backward
  // identity stays bitwise.
  const bool use_simd = simd::Enabled();
  for (int j = 0; j < p.num_rows; ++j) {
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
}

}  // namespace

Tensor SpmmCsrWeighted(const CsrPatternRef& pattern, const Tensor& weights, const Tensor& x) {
  CHECK(pattern != nullptr) << "SpmmCsrWeighted: null CSR pattern";
  CHECK_EQ(pattern->num_cols, x.rows()) << "SpmmCsrWeighted: pattern/input row mismatch";
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

}  // namespace revelio::tensor
