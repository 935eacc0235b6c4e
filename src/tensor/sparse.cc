#include "tensor/sparse.h"

#include "util/check.h"

namespace revelio::tensor {

CsrPatternRef BuildCsrPattern(int num_rows, int num_cols, const std::vector<int>& rows,
                              const std::vector<int>& cols) {
  CHECK(num_rows >= 0 && num_cols >= 0) << "BuildCsrPattern: negative shape";
  CHECK_EQ(rows.size(), cols.size()) << "BuildCsrPattern: rows/cols length mismatch";
  const int nnz = static_cast<int>(rows.size());

  auto pattern = std::make_shared<CsrPattern>();
  pattern->num_rows = num_rows;
  pattern->num_cols = num_cols;
  pattern->num_edges = nnz;

  pattern->row_ptr.assign(static_cast<size_t>(num_rows) + 1, 0);
  pattern->tcol_ptr.assign(static_cast<size_t>(num_cols) + 1, 0);
  for (int k = 0; k < nnz; ++k) {
    const int r = rows[static_cast<size_t>(k)];
    const int c = cols[static_cast<size_t>(k)];
    CHECK(r >= 0 && r < num_rows) << "BuildCsrPattern: row index " << r << " out of range";
    CHECK(c >= 0 && c < num_cols) << "BuildCsrPattern: col index " << c << " out of range";
    ++pattern->row_ptr[static_cast<size_t>(r) + 1];
    ++pattern->tcol_ptr[static_cast<size_t>(c) + 1];
  }
  for (int r = 0; r < num_rows; ++r) {
    pattern->row_ptr[static_cast<size_t>(r) + 1] += pattern->row_ptr[static_cast<size_t>(r)];
  }
  for (int c = 0; c < num_cols; ++c) {
    pattern->tcol_ptr[static_cast<size_t>(c) + 1] += pattern->tcol_ptr[static_cast<size_t>(c)];
  }

  pattern->col_idx.resize(static_cast<size_t>(nnz));
  pattern->edge_idx.resize(static_cast<size_t>(nnz));
  pattern->trow_idx.resize(static_cast<size_t>(nnz));
  pattern->tedge_idx.resize(static_cast<size_t>(nnz));

  // Stable counting-sort passes in increasing k: entries within each row (and
  // each transpose column) stay in increasing edge order, reproducing the
  // serial scatter-scan accumulation order bit for bit.
  std::vector<int> fill(pattern->row_ptr.begin(), pattern->row_ptr.end() - 1);
  std::vector<int> tfill(pattern->tcol_ptr.begin(), pattern->tcol_ptr.end() - 1);
  for (int k = 0; k < nnz; ++k) {
    const int r = rows[static_cast<size_t>(k)];
    const int c = cols[static_cast<size_t>(k)];
    const int slot = fill[static_cast<size_t>(r)]++;
    pattern->col_idx[static_cast<size_t>(slot)] = c;
    pattern->edge_idx[static_cast<size_t>(slot)] = k;
    const int tslot = tfill[static_cast<size_t>(c)]++;
    pattern->trow_idx[static_cast<size_t>(tslot)] = r;
    pattern->tedge_idx[static_cast<size_t>(tslot)] = k;
  }
  return pattern;
}

}  // namespace revelio::tensor
