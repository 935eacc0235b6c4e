#ifndef REVELIO_TENSOR_OPS_H_
#define REVELIO_TENSOR_OPS_H_

// Differentiable operations over Tensor. Every op returns a fresh tensor
// whose backward function accumulates gradients into its inputs.
//
// Every GNN layer aggregates its messages with one kernel, SpmmCsrWeighted:
//   H' = SpmmCsrWeighted(edges.csr, coeff * mask, H)
// The index ops below spell out the same sum as a chain,
//   H' = ScatterAddRows(RowScale(GatherRows(H, src), coeff * mask), dst, n)
// which is the test oracle the kernel is checked against bit for bit;
// RowScale is its primitive. GAT attention still runs on GatherRows and
// SegmentSoftmax.

#include <vector>

#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace revelio::tensor {

// --- Elementwise binary (same shape) ----------------------------------------
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

// Adds a 1 x C row vector to every row of an N x C matrix (bias add).
Tensor AddRowBroadcast(const Tensor& matrix, const Tensor& row);

// --- Scalar ------------------------------------------------------------------
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
Tensor Neg(const Tensor& a);

// Multiplies every entry of `a` by a differentiable 1x1 tensor (used for the
// per-layer exp(w_l) factor in the paper's Eq. 5).
Tensor ScaleByScalarTensor(const Tensor& a, const Tensor& scalar);

// --- Activations -------------------------------------------------------------
Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float negative_slope);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Exp(const Tensor& a);
// Natural log; inputs are clamped to >= eps for numerical safety.
Tensor Log(const Tensor& a, float eps = 1e-12f);
Tensor Softplus(const Tensor& a);

// --- Linear algebra ------------------------------------------------------------
// (N x K) times (K x M) -> (N x M).
Tensor MatMul(const Tensor& a, const Tensor& b);

// --- Reductions ----------------------------------------------------------------
Tensor Sum(const Tensor& a);   // -> 1x1
Tensor Mean(const Tensor& a);  // -> 1x1

// --- Row-wise softmax ------------------------------------------------------------
Tensor RowSoftmax(const Tensor& a);
Tensor RowLogSoftmax(const Tensor& a);

// --- Indexing / message passing ----------------------------------------------
// out[i] = a[indices[i]] for each row. indices values must be in [0, a.rows()).
Tensor GatherRows(const Tensor& a, const std::vector<int>& indices);

// out has `num_rows` rows; out[indices[i]] += src[i]. Rows never touched stay 0.
Tensor ScatterAddRows(const Tensor& src, const std::vector<int>& indices, int num_rows);

// out[i, :] = a[i, :] * scale[i]; scale is (N x 1) matching a's row count.
Tensor RowScale(const Tensor& a, const Tensor& scale);

// Concatenates along columns: (N x A), (N x B) -> (N x (A+B)).
Tensor ConcatCols(const Tensor& a, const Tensor& b);

// Softmax over entries sharing a segment id. `values` is (M x 1); entries of
// segment s are normalized among themselves. Used for GAT attention where the
// segment is the destination node of each edge.
Tensor SegmentSoftmax(const Tensor& values, const std::vector<int>& segment_ids,
                      int num_segments);

// Column-wise max per segment: (N x C) -> (S x C). Gradient flows to the
// argmax row of each (segment, column). Empty segments produce zeros.
Tensor SegmentMaxRows(const Tensor& a, const std::vector<int>& segment_ids, int num_segments);

// --- Sparse aggregation ------------------------------------------------------
// Weighted SpMM over a CsrPattern, the one aggregation kernel:
// out[j] = sum over row j's nonzeros of w[edge_k] * x[col_k]. `weights` is
// (pattern->num_edges x 1) and differentiable, so Eq. 6 masks and GAT
// attention flow through it. Rows with no nonzeros are exactly zero.
// Bitwise-equal to the Gather -> RowScale -> ScatterAdd chain (ops_spmm.cc).
Tensor SpmmCsrWeighted(const CsrPatternRef& pattern, const Tensor& weights, const Tensor& x);

// Extracts a single element as a 1x1 tensor (differentiable).
Tensor Select(const Tensor& a, int row, int col);

// Mean negative log-likelihood: `log_probs` is (N x C) of log probabilities,
// `targets` has N class indices. Returns a 1x1 loss.
Tensor NllLoss(const Tensor& log_probs, const std::vector<int>& targets);

}  // namespace revelio::tensor

#endif  // REVELIO_TENSOR_OPS_H_
