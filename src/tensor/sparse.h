#ifndef REVELIO_TENSOR_SPARSE_H_
#define REVELIO_TENSOR_SPARSE_H_

// Shared CSR sparsity pattern for the SpMM aggregation kernel (ops.h).
//
// A pattern describes a sparse num_rows x num_cols aggregation matrix whose
// k-th nonzero sits at (rows[k], cols[k]) and draws its value from an
// external per-edge weight vector at index edge_idx[k]. For GNN aggregation
// the weight vector is the per-layer-edge coefficient-times-mask vector of
// the paper's Eq. 6 (or a GAT head's attention coefficients), so masks and
// attention flow through the same kernel.
//
// The transposed (CSC) view is precomputed alongside the forward CSR so
// reverse-mode SpMM can partition over *input* rows with the same
// owner-computes determinism contract as the forward pass. Patterns are
// immutable after construction and shared by shared_ptr between layer-edge
// sets and autograd closures (backward functions capture the ref,
// so a pattern outlives every forward graph built on it).

#include <memory>
#include <vector>

namespace revelio::tensor {

struct CsrPattern {
  int num_rows = 0;   // output rows (aggregation destinations)
  int num_cols = 0;   // input rows (aggregation sources)
  int num_edges = 0;  // length of the external weight vector

  // Forward CSR, grouped by output row. Entries within a row keep increasing
  // edge order — the serial scatter-scan order the SpMM kernel reproduces,
  // which is what keeps it bitwise-equal to the chain oracle in the tests.
  std::vector<int> row_ptr;   // num_rows + 1
  std::vector<int> col_idx;   // nnz: input row per nonzero
  std::vector<int> edge_idx;  // nnz: weight-vector index per nonzero

  // Transposed (CSC) view, grouped by input row, same intra-group edge order.
  std::vector<int> tcol_ptr;   // num_cols + 1
  std::vector<int> trow_idx;   // nnz: output row per nonzero
  std::vector<int> tedge_idx;  // nnz: weight-vector index per nonzero

  int nnz() const { return static_cast<int>(col_idx.size()); }
};

using CsrPatternRef = std::shared_ptr<const CsrPattern>;

// Builds the pattern (and its transpose) for nonzeros (rows[k], cols[k]),
// k = 0..rows.size()-1, with weight index k. Counting sort keeps entries in
// increasing k within every row and every transpose column, matching the
// accumulation order of the gather/scatter chain bit for bit.
CsrPatternRef BuildCsrPattern(int num_rows, int num_cols, const std::vector<int>& rows,
                              const std::vector<int>& cols);

}  // namespace revelio::tensor

#endif  // REVELIO_TENSOR_SPARSE_H_
