// AddressSanitizer / UndefinedBehaviorSanitizer smoke test. Compiled twice in
// tests/CMakeLists.txt — once with -fsanitize=address, once with
// -fsanitize=undefined — regardless of REVELIO_SANITIZE, so tier-1 ctest
// always exercises an instrumented pass over the tensor runtime. The workload
// leans on the spots where an out-of-bounds read/write or UB would hide:
// degenerate shapes (0-row, 1x1), gather/scatter indexing at the boundaries,
// segment kernels with empty segments, and parallel chunk boundaries. No
// gtest: exits 0 when the sanitizer stays silent and the value checks hold.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using revelio::tensor::Tensor;
namespace tensor = revelio::tensor;
namespace util = revelio::util;

bool AllFinite(const std::vector<float>& values, const char* what) {
  for (float v : values) {
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "FAIL: non-finite value in %s\n", what);
      return false;
    }
  }
  return true;
}

// Forward+backward over the indexing-heavy ops at boundary shapes.
bool IndexingWorkload() {
  util::Rng rng(11);
  Tensor h = Tensor::Randn(64, 16, &rng).WithRequiresGrad();

  // Gather that touches row 0 and the last row repeatedly.
  std::vector<int> gather_idx;
  for (int i = 0; i < 500; ++i) gather_idx.push_back(i % 2 == 0 ? 0 : 63);
  for (int i = 0; i < 500; ++i) gather_idx.push_back(rng.UniformInt(64));
  Tensor gathered = tensor::GatherRows(h, gather_idx);

  // Scatter into a destination where many rows receive nothing.
  std::vector<int> scatter_idx(gather_idx.size());
  for (size_t i = 0; i < scatter_idx.size(); ++i) {
    scatter_idx[i] = static_cast<int>(i) % 128;
  }
  Tensor scattered = tensor::ScatterAddRows(gathered, scatter_idx, 128);

  // Segment kernels over segments of wildly different sizes (incl. size 1).
  // Segment ids 0..8 each hold one entry; segment 9 holds all the rest.
  std::vector<int> segments(gather_idx.size());
  for (size_t i = 0; i < segments.size(); ++i) segments[i] = i < 10 ? static_cast<int>(i) : 9;
  Tensor logits = Tensor::Randn(static_cast<int>(segments.size()), 1, &rng).WithRequiresGrad();
  Tensor soft = tensor::SegmentSoftmax(logits, segments, 10);
  Tensor maxed = tensor::SegmentMaxRows(gathered, segments, 10);

  Tensor loss = tensor::Add(tensor::Sum(tensor::RowScale(gathered, soft)), tensor::Sum(maxed));
  loss.Backward();

  bool ok = AllFinite(scattered.values(), "scattered");
  ok = AllFinite(h.GradData(), "h grad") && ok;
  return ok;
}

// Degenerate shapes: empty rows and scalars through the elementwise and
// matmul paths (an off-by-one on a 0-row tensor is a classic ASan catch).
bool DegenerateShapeWorkload() {
  util::Rng rng(13);
  Tensor empty = Tensor::Zeros(0, 5).WithRequiresGrad();
  Tensor w = Tensor::Randn(5, 3, &rng).WithRequiresGrad();
  Tensor empty_out = tensor::MatMul(empty, w);
  if (empty_out.rows() != 0 || empty_out.cols() != 3) {
    std::fprintf(stderr, "FAIL: empty matmul shape\n");
    return false;
  }
  (void)tensor::Relu(empty_out);
  (void)tensor::RowSoftmax(empty_out);
  (void)tensor::ScatterAddRows(empty_out, {}, 4);

  Tensor scalar = Tensor::FromData(1, 1, {0.75f}).WithRequiresGrad();
  Tensor chained = tensor::Log(tensor::Exp(tensor::Tanh(scalar)));
  tensor::Sum(tensor::Mul(chained, chained)).Backward();
  return AllFinite(scalar.GradData(), "scalar grad");
}

// Parallel chunk boundaries: grain sizes that do not divide the range evenly
// force first/last-chunk edge handling in every worker.
bool ParallelBoundaryWorkload() {
  bool ok = true;
  for (int threads : {1, 3, 4}) {
    util::SetNumThreads(threads);
    std::vector<int> hits(10007, 0);
    util::ParallelFor(0, static_cast<int64_t>(hits.size()), 97,
                      [&hits](int64_t begin, int64_t end) {
                        for (int64_t i = begin; i < end; ++i) ++hits[i];
                      });
    for (size_t i = 0; i < hits.size(); ++i) {
      if (hits[i] != 1) {
        std::fprintf(stderr, "FAIL: threads=%d index %zu hit %d times\n", threads, i, hits[i]);
        ok = false;
        break;
      }
    }
  }
  util::SetNumThreads(1);
  return ok;
}

}  // namespace

int main() {
  bool ok = IndexingWorkload();
  ok = DegenerateShapeWorkload() && ok;
  ok = ParallelBoundaryWorkload() && ok;
  if (ok) std::printf("sanitizer_smoke_test: OK\n");
  return ok ? 0 : 1;
}
