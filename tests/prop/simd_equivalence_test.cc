// Per-kernel oracle for the SIMD tier (src/tensor/simd.h, DESIGN.md §13).
// Each simd:: kernel is the one body of its tensor op; the scalar loops it
// replaced live on here as its reference, and every kernel is compared
// against its loop under the DECLARED tolerance class:
//
//   bitwise       every kernel except DotF32 — the vector bodies preserve
//                 the serial fold order exactly (separate mul+add, no FMA),
//                 MatMul's dA included: it runs the row-axpy body against
//                 the transposed weight, folding in the dot loop's order;
//   ulp-bounded   DotF32 once n >= Lanes(): its lane partials reduce in a
//                 different order than the serial loop. Shorter vectors, and
//                 every length on a 1-lane build, must be the serial fold.
//
// Lengths run 0..3*Lanes()+1 (empty, tail only, whole vectors, vectors plus
// tail) plus one large size, over inputs that mix ordinary values with exact
// and signed zeros. The same checks run on every compiled width, so a scalar
// build (-DREVELIO_SIMD_ISA=scalar) proves its 1-lane instance of the bodies
// equal to the loops too.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/proptest.h"
#include "util/rng.h"

namespace revelio::proptest {
namespace {

namespace simd = tensor::simd;

constexpr uint64_t kSeed = 20260808;
constexpr int64_t kLargeLength = 4099;

// The scalar loops the kernels replaced, verbatim in expression and order.
namespace ref {

void Add(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}
void Sub(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}
void Mul(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}
void AddScalar(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + s;
}
void MulScalar(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * s;
}
void AddAcc(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] += a[i];
}
void AddScalarAcc(float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] += s;
}
void MulAcc(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] += s * a[i];
}
void MulPairAcc(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] += a[i] * b[i];
}
void Axpy(float a, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += a * x[i];
}
void Relu(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : 0.0f;
}
void ReluGradAcc(const float* g, const float* a, float* ga, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (a[i] > 0.0f) ga[i] += g[i];
  }
}
void LeakyRelu(const float* a, float slope, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : slope * a[i];
}
void LeakyReluGradAcc(const float* g, const float* a, float slope, float* ga, int64_t n) {
  for (int64_t i = 0; i < n; ++i) ga[i] += g[i] * (a[i] > 0.0f ? 1.0f : slope);
}
void SigmoidGradAcc(const float* g, const float* ov, float* ga, int64_t n) {
  for (int64_t i = 0; i < n; ++i) ga[i] += g[i] * ov[i] * (1.0f - ov[i]);
}
void TanhGradAcc(const float* g, const float* ov, float* ga, int64_t n) {
  for (int64_t i = 0; i < n; ++i) ga[i] += g[i] * (1.0f - ov[i] * ov[i]);
}
float Dot(const float* a, const float* b, int64_t n) {
  float acc = 0.0f;
  for (int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

// MatMul forward, a (n x k) times b (k x m): ikj with zero rows of a skipped.
void MatMul(const float* a, const float* b, float* o, int n, int k, int m) {
  for (int i = 0; i < n; ++i) {
    float* orow = o + static_cast<size_t>(i) * m;
    std::fill(orow, orow + m, 0.0f);
    for (int kk = 0; kk < k; ++kk) {
      const float aik = a[static_cast<size_t>(i) * k + kk];
      if (aik == 0.0f) continue;
      const float* brow = b + static_cast<size_t>(kk) * m;
      for (int j = 0; j < m; ++j) orow[j] += aik * brow[j];
    }
  }
}

// MatMul dA += G * B^T as dot products against rows of B.
void MatMulGradA(const float* g, const float* b, float* ga, int n, int k, int m) {
  for (int i = 0; i < n; ++i) {
    const float* grow = g + static_cast<size_t>(i) * m;
    float* garow = ga + static_cast<size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) {
      const float* brow = b + static_cast<size_t>(kk) * m;
      float acc = 0.0f;
      for (int j = 0; j < m; ++j) acc += grow[j] * brow[j];
      garow[kk] += acc;
    }
  }
}

// MatMul dB += A^T * G with the i loop outermost.
void MatMulGradB(const float* g, const float* a, float* gb, int n, int k, int m) {
  for (int i = 0; i < n; ++i) {
    const float* grow = g + static_cast<size_t>(i) * m;
    const float* arow = a + static_cast<size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      if (aik == 0.0f) continue;
      float* gbrow = gb + static_cast<size_t>(kk) * m;
      for (int j = 0; j < m; ++j) gbrow[j] += aik * grow[j];
    }
  }
}

}  // namespace ref

// MatMul's dA as the op runs it: B transposed once, then the row-axpy body.
void SimdMatMulGradA(const float* g, const float* b, float* ga, int n, int k, int m) {
  std::vector<float> bt(static_cast<size_t>(k) * m);
  for (int kk = 0; kk < k; ++kk) {
    for (int j = 0; j < m; ++j) {
      bt[static_cast<size_t>(j) * k + kk] = b[static_cast<size_t>(kk) * m + j];
    }
  }
  simd::MatMulAccRowsF32(g, bt.data(), ga, 0, n, /*k=*/m, /*m=*/k);
}

// Uniform values with about one entry in four an exact +0 or -0.
std::vector<float> Values(util::Rng& rng, int64_t n) {
  std::vector<float> v(n);
  for (float& x : v) {
    const double u = rng.Uniform();
    x = u < 0.125 ? 0.0f : u < 0.25 ? -0.0f : static_cast<float>(rng.Uniform(-2.0, 2.0));
  }
  return v;
}

std::vector<int64_t> Lengths() {
  std::vector<int64_t> lengths;
  for (int64_t n = 0; n <= 3 * simd::Lanes() + 1; ++n) lengths.push_back(n);
  lengths.push_back(kLargeLength);
  return lengths;
}

std::string Bitwise(const std::vector<float>& actual, const std::vector<float>& expected,
                    const std::string& label) {
  if (actual.size() != expected.size()) return label + ": size mismatch";
  return util::CompareFloatStreams(actual.data(), expected.data(),
                                   static_cast<int64_t>(actual.size()),
                                   util::Tolerance::Bitwise(), label);
}

// One elementwise kernel and its loop over the same inputs. The output
// buffer starts as a copy of `init` on both sides, so accumulating kernels
// fold into signed zeros too and overwriting kernels must ignore it.
struct Inputs {
  const float* a;
  const float* b;
  float s;
  int64_t n;
};
struct ElementwiseCase {
  const char* name;
  std::function<void(const Inputs&, float*)> kernel;
  std::function<void(const Inputs&, float*)> reference;
};

std::vector<ElementwiseCase> ElementwiseCases() {
  constexpr float kSlope = 0.2f;  // GAT's LeakyReLU slope
  return {
      {"AddF32", [](const Inputs& in, float* o) { simd::AddF32(in.a, in.b, o, in.n); },
       [](const Inputs& in, float* o) { ref::Add(in.a, in.b, o, in.n); }},
      {"SubF32", [](const Inputs& in, float* o) { simd::SubF32(in.a, in.b, o, in.n); },
       [](const Inputs& in, float* o) { ref::Sub(in.a, in.b, o, in.n); }},
      {"MulF32", [](const Inputs& in, float* o) { simd::MulF32(in.a, in.b, o, in.n); },
       [](const Inputs& in, float* o) { ref::Mul(in.a, in.b, o, in.n); }},
      {"AddScalarF32",
       [](const Inputs& in, float* o) { simd::AddScalarF32(in.a, in.s, o, in.n); },
       [](const Inputs& in, float* o) { ref::AddScalar(in.a, in.s, o, in.n); }},
      {"MulScalarF32",
       [](const Inputs& in, float* o) { simd::MulScalarF32(in.a, in.s, o, in.n); },
       [](const Inputs& in, float* o) { ref::MulScalar(in.a, in.s, o, in.n); }},
      {"AddAccF32", [](const Inputs& in, float* o) { simd::AddAccF32(in.a, o, in.n); },
       [](const Inputs& in, float* o) { ref::AddAcc(in.a, o, in.n); }},
      {"AddScalarAccF32", [](const Inputs& in, float* o) { simd::AddScalarAccF32(in.s, o, in.n); },
       [](const Inputs& in, float* o) { ref::AddScalarAcc(in.s, o, in.n); }},
      {"MulAccF32", [](const Inputs& in, float* o) { simd::MulAccF32(in.a, in.s, o, in.n); },
       [](const Inputs& in, float* o) { ref::MulAcc(in.a, in.s, o, in.n); }},
      {"MulPairAccF32",
       [](const Inputs& in, float* o) { simd::MulPairAccF32(in.a, in.b, o, in.n); },
       [](const Inputs& in, float* o) { ref::MulPairAcc(in.a, in.b, o, in.n); }},
      {"AxpyF32", [](const Inputs& in, float* o) { simd::AxpyF32(in.s, in.a, o, in.n); },
       [](const Inputs& in, float* o) { ref::Axpy(in.s, in.a, o, in.n); }},
      {"ReluF32", [](const Inputs& in, float* o) { simd::ReluF32(in.a, o, in.n); },
       [](const Inputs& in, float* o) { ref::Relu(in.a, o, in.n); }},
      {"ReluGradAccF32",
       [](const Inputs& in, float* o) { simd::ReluGradAccF32(in.b, in.a, o, in.n); },
       [](const Inputs& in, float* o) { ref::ReluGradAcc(in.b, in.a, o, in.n); }},
      {"LeakyReluF32",
       [](const Inputs& in, float* o) { simd::LeakyReluF32(in.a, kSlope, o, in.n); },
       [](const Inputs& in, float* o) { ref::LeakyRelu(in.a, kSlope, o, in.n); }},
      {"LeakyReluGradAccF32",
       [](const Inputs& in, float* o) { simd::LeakyReluGradAccF32(in.b, in.a, kSlope, o, in.n); },
       [](const Inputs& in, float* o) { ref::LeakyReluGradAcc(in.b, in.a, kSlope, o, in.n); }},
      {"SigmoidGradAccF32",
       [](const Inputs& in, float* o) { simd::SigmoidGradAccF32(in.b, in.a, o, in.n); },
       [](const Inputs& in, float* o) { ref::SigmoidGradAcc(in.b, in.a, o, in.n); }},
      {"TanhGradAccF32",
       [](const Inputs& in, float* o) { simd::TanhGradAccF32(in.b, in.a, o, in.n); },
       [](const Inputs& in, float* o) { ref::TanhGradAcc(in.b, in.a, o, in.n); }},
  };
}

TEST(SimdKernelOracleTest, ElementwiseKernelsAreBitwiseTheScalarLoops) {
  util::Rng rng(kSeed);
  const std::vector<ElementwiseCase> cases = ElementwiseCases();
  for (const int64_t n : Lengths()) {
    const std::vector<float> a = Values(rng, n);
    const std::vector<float> b = Values(rng, n);
    const std::vector<float> init = Values(rng, n);
    // -1 is Neg; a zero scale or shift exercises +0/-0 products and sums.
    for (const float s : {0.37f, -1.0f, 0.0f, -0.0f}) {
      const Inputs in{a.data(), b.data(), s, n};
      for (const ElementwiseCase& c : cases) {
        std::vector<float> actual = init;
        std::vector<float> expected = init;
        c.kernel(in, actual.data());
        c.reference(in, expected.data());
        const std::string failure = Bitwise(
            actual, expected, std::string(c.name) + " n=" + std::to_string(n) +
                                  " s=" + std::to_string(s));
        EXPECT_TRUE(failure.empty()) << failure;
      }
    }
  }
}

TEST(SimdKernelOracleTest, DotF32IsTheSerialFoldOrUlpBounded) {
  util::Rng rng(kSeed + 1);
  for (const int64_t n : Lengths()) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::vector<float> a = Values(rng, n);
      // Every other trial pairs a with all-signed-zero b: the fold from +0
      // must not turn into -0.
      std::vector<float> b = Values(rng, n);
      if (trial % 2 == 1) {
        for (int64_t i = 0; i < n; ++i) b[i] = i % 2 == 0 ? -0.0f : 0.0f;
      }
      const float dot = simd::DotF32(a.data(), b.data(), n);
      const float serial = ref::Dot(a.data(), b.data(), n);
      const std::string label = "DotF32 n=" + std::to_string(n) + " trial=" + std::to_string(trial);
      const util::Tolerance tolerance = n < simd::Lanes() || simd::Lanes() == 1
                                            ? util::Tolerance::Bitwise()
                                            : util::Tolerance::Ulps(256, /*abs_floor=*/1e-3);
      const std::string failure = util::CompareFloatStreams(&dot, &serial, 1, tolerance, label);
      EXPECT_TRUE(failure.empty()) << failure;
    }
  }
}

struct MatMulShape {
  int n, k, m;
};

std::string ShapeLabel(const char* kernel, const MatMulShape& s) {
  return std::string(kernel) + " (" + std::to_string(s.n) + "," + std::to_string(s.k) + "," +
         std::to_string(s.m) + ")";
}

// Checks the three MatMul kernels at one shape. `g_zero_share` of the
// upstream gradient is exact zeros (ReLU-masked gradients), on top of the
// signed zeros every operand carries, so both zero-skip paths fire.
void CheckMatMulKernels(util::Rng& rng, const MatMulShape& s, double g_zero_share) {
  const size_t nk = static_cast<size_t>(s.n) * s.k;
  const size_t km = static_cast<size_t>(s.k) * s.m;
  const size_t nm = static_cast<size_t>(s.n) * s.m;
  const std::vector<float> a = Values(rng, nk);
  const std::vector<float> b = Values(rng, km);
  std::vector<float> g = Values(rng, nm);
  for (float& v : g) {
    if (rng.Uniform() < g_zero_share) v = 0.0f;
  }

  std::vector<float> out(nm, 1.0f);  // overwritten, never read
  std::vector<float> out_ref(nm, -1.0f);
  simd::MatMulRowsF32(a.data(), b.data(), out.data(), 0, s.n, s.k, s.m);
  ref::MatMul(a.data(), b.data(), out_ref.data(), s.n, s.k, s.m);
  std::string failure = Bitwise(out, out_ref, ShapeLabel("MatMulRowsF32", s));
  EXPECT_TRUE(failure.empty()) << failure;

  std::vector<float> ga = Values(rng, nk);
  std::vector<float> ga_ref = ga;
  SimdMatMulGradA(g.data(), b.data(), ga.data(), s.n, s.k, s.m);
  ref::MatMulGradA(g.data(), b.data(), ga_ref.data(), s.n, s.k, s.m);
  failure = Bitwise(ga, ga_ref, ShapeLabel("MatMulAccRowsF32 (dA)", s));
  EXPECT_TRUE(failure.empty()) << failure;

  std::vector<float> gb = Values(rng, km);
  std::vector<float> gb_ref = gb;
  simd::MatMulGradBRowsF32(g.data(), a.data(), gb.data(), 0, s.k, s.n, s.k, s.m);
  ref::MatMulGradB(g.data(), a.data(), gb_ref.data(), s.n, s.k, s.m);
  failure = Bitwise(gb, gb_ref, ShapeLabel("MatMulGradBRowsF32", s));
  EXPECT_TRUE(failure.empty()) << failure;
}

TEST(SimdKernelOracleTest, MatMulKernelsAreBitwiseTheScalarLoops) {
  util::Rng rng(kSeed + 2);
  // Every output width from 0 to past the 4-vector register tile, so the
  // tiled body, the one-vector body and the scalar tail all run.
  const int max_m = 4 * simd::Lanes() + 3;
  for (const int n : {1, 3}) {
    for (const int k : {0, 1, 5}) {
      for (int m = 0; m <= max_m; ++m) CheckMatMulKernels(rng, {n, k, m}, /*g_zero_share=*/0.0);
    }
  }
  CheckMatMulKernels(rng, {33, 67, 131}, /*g_zero_share=*/0.0);
}

TEST(SimdKernelOracleTest, MatMulGradAAtWorkloadShapesIsBitwise) {
  // MatMul's dA at the shapes the explanation workloads run: A = n x k, a
  // frozen weight B = k x m and an upstream gradient G = n x m with half its
  // entries exactly 0, like a ReLU-masked gradient.
  util::Rng rng(kSeed + 3);
  for (const MatMulShape s : {MatMulShape{37, 32, 4}, MatMulShape{37, 4, 1},
                              MatMulShape{601, 32, 32}, MatMulShape{5, 13, 7},
                              MatMulShape{1, 7, 1}}) {
    CheckMatMulKernels(rng, s, /*g_zero_share=*/0.5);
  }
}

// The sweep counters report what the kernels issue: n / Lanes() vector
// bodies and n % Lanes() tail elements per op, at any compiled width.
TEST(SimdKernelOracleTest, VectorOpsCounterTracksDispatch) {
  obs::SetEnabled(true);
  obs::Counter* vector_ops = obs::MetricsRegistry::Global().GetCounter("tensor.simd.vector_ops");
  obs::Counter* scalar_tail =
      obs::MetricsRegistry::Global().GetCounter("tensor.simd.scalar_tail");
  util::Rng rng(kSeed + 9);
  // 100x7: 700 elements, never a multiple of any vector width > 1.
  const tensor::Tensor a = tensor::Tensor::Uniform(100, 7, -1.0f, 1.0f, &rng);
  const tensor::Tensor b = tensor::Tensor::Uniform(100, 7, -1.0f, 1.0f, &rng);
  const uint64_t ops_before = vector_ops->Total();
  const uint64_t tail_before = scalar_tail->Total();
  tensor::Add(a, b);
  const uint64_t lanes = static_cast<uint64_t>(simd::Lanes());
  EXPECT_EQ(vector_ops->Total() - ops_before, 700 / lanes);
  EXPECT_EQ(scalar_tail->Total() - tail_before, 700 % lanes);
  obs::SetEnabled(false);
}

}  // namespace
}  // namespace revelio::proptest
