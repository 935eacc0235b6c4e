#ifndef REVELIO_TENSOR_SIMD_H_
#define REVELIO_TENSOR_SIMD_H_

// Width-agnostic SIMD kernel tier for the hot float loops.
//
// The instruction set is selected at COMPILE time — exactly one of AVX2
// (8 lanes), NEON (4 lanes) or the scalar fallback (1 lane) is baked into
// simd.cc, which is the only translation unit built with vector ISA flags
// (see src/tensor/CMakeLists.txt). Every other TU sees only the plain
// function declarations below, so the rest of the tree keeps the default
// target arch and the scalar reference loops stay un-widened.
//
// At RUNTIME the tier can be disabled with REVELIO_SIMD=0 (or SetEnabled):
// kernel call sites in ops.cc / ops_index.cc / ops_spmm.cc check Enabled()
// inside their kernel lambdas and fall back to the original scalar loops.
// Because the check lives inside the lambda, recorded plan tapes replay the
// very same kernels and honor the toggle on replay too.
//
// Equivalence contract (proven by tests/prop/simd_equivalence_test.cc):
//  - Elementwise kernels, axpy-style accumulations and the matmul/spmm
//    kernels (forward and backward) are BITWISE-equal to the scalar loops:
//    they issue the same mul-then-add per element in the same order (no FMA
//    contraction — simd.cc is never built with -mfma), and the scalar tail
//    runs the identical expression. Branchy updates (Relu backward) use
//    blends that preserve the unmodified accumulator bits exactly. MatMul's
//    dA runs the row-axpy body against the transposed weight, so each lane
//    folds in the scalar loop's order with no horizontal reduction.
//  - DotF32 (used by SpmmBackwardW's per-edge dW and RowScale's dscale) is a
//    REDUCTION: it keeps kLanes fixed partial sums and reduces them in a
//    fixed left-to-right order. The result is deterministic at every thread
//    count, but only ulp-bounded against the serial accumulation order —
//    the "ulp-bounded" tolerance class of util::proptest. Vectors shorter
//    than one lane width take the serial fold and are bitwise. Both dot
//    call sites share this one implementation, so identities that compare
//    them against each other (the SpMM kernel vs its chain test oracle) stay
//    bitwise.
//
// Tail handling: every kernel processes floor(n / Lanes()) full vectors and
// finishes the remainder with the scalar expression. Every expression is
// per-element, so where the vector body ends changes which iterations are
// vector-bodied vs tail but not the computed bits, at any shape
// (regression: tests/parallel_test.cc, odd-shape cases).
//
// Observability: call sites report sweep shapes via CountSweep, which feeds
// the tensor.simd.{lanes,vector_ops,scalar_tail} counters (vector bodies
// issued and tail elements processed). Counting happens at op granularity,
// outside recorded closures, so plan replay does not re-count.

#include <cstdint>

namespace revelio::tensor::simd {

// --- Selection and introspection -------------------------------------------

// Compiled lane width: 8 (AVX2), 4 (NEON), 1 (scalar build).
int Lanes();

// "avx2", "neon" or "scalar".
const char* IsaName();

// True when the CPU this process runs on can execute the compiled ISA.
// The revelio_simd_selftest ctest fails fast when this is false.
bool CpuSupportsCompiledIsa();

// Runtime toggle. Defaults to true when the compiled width is > 1 unless
// REVELIO_SIMD=0/false/off is set in the environment.
bool Enabled();
void SetEnabled(bool enabled);

// Adds n / Lanes() to tensor.simd.vector_ops and n % Lanes() to
// tensor.simd.scalar_tail (and pins tensor.simd.lanes). No-op counters when
// the tier is disabled; call once per op-level sweep of n elements.
void CountSweep(int64_t n);

// --- Elementwise kernels over [0, n) — bitwise class ------------------------

void AddF32(const float* a, const float* b, float* o, int64_t n);         // o = a + b
void SubF32(const float* a, const float* b, float* o, int64_t n);         // o = a - b
void MulF32(const float* a, const float* b, float* o, int64_t n);         // o = a * b
void AddScalarF32(const float* a, float s, float* o, int64_t n);          // o = a + s
void MulScalarF32(const float* a, float s, float* o, int64_t n);          // o = a * s
void AddAccF32(const float* a, float* o, int64_t n);                      // o += a
void AddScalarAccF32(float s, float* o, int64_t n);                       // o += s
void MulAccF32(const float* a, float s, float* o, int64_t n);             // o += a * s
void MulPairAccF32(const float* a, const float* b, float* o, int64_t n);  // o += a * b
// y += a * x. With a == 1.0f this reproduces `y[i] += 1.0f * x[i]` exactly
// (the unweighted SpMM expression).
void AxpyF32(float a, const float* x, float* y, int64_t n);

void ReluF32(const float* a, float* o, int64_t n);  // o = max(a, 0), sign-exact
// ga += g where a > 0; untouched lanes keep their exact bits (blend).
void ReluGradAccF32(const float* g, const float* a, float* ga, int64_t n);
void LeakyReluF32(const float* a, float slope, float* o, int64_t n);
// ga += g * (a > 0 ? 1 : slope); the positive branch adds g (times 1.0f).
void LeakyReluGradAccF32(const float* g, const float* a, float slope, float* ga, int64_t n);
// ga += g * ov * (1 - ov): Sigmoid backward (left-assoc, matches scalar).
void SigmoidGradAccF32(const float* g, const float* ov, float* ga, int64_t n);
// ga += g * (1 - ov * ov): Tanh backward.
void TanhGradAccF32(const float* g, const float* ov, float* ga, int64_t n);

// --- Reductions — ulp-bounded class ----------------------------------------

// <a, b> with kLanes fixed partials reduced left-to-right. Deterministic,
// not bitwise-equal to the serial order once n >= Lanes(); for n < Lanes()
// it is the serial fold from +0.
float DotF32(const float* a, const float* b, int64_t n);

// --- Row-blocked matmul kernels --------------------------------------------
// All operate on rows [ib, ie) of the output and preserve the scalar loop's
// per-element accumulation order (bitwise class). Layouts:
// a is n x k, b is k x m, o is n x m, all row-major.

// o[i,:] = sum_kk a[i,kk] * b[kk,:], zero-filling each row first and
// skipping a[i,kk] == 0 like the scalar kernel.
void MatMulRowsF32(const float* a, const float* b, float* o, int64_t ib, int64_t ie, int k,
                   int m);
// o[i,:] += sum_kk a[i,kk] * b[kk,:]: the same per-element fold from +0 as
// MatMulRowsF32, added into o at store (`o += acc`). MatMul's dA runs it as
// (g, b^T, ga, ib, ie, m, k) — bitwise with the scalar dot loop for finite b.
void MatMulAccRowsF32(const float* a, const float* b, float* o, int64_t ib, int64_t ie, int k,
                      int m);
// gb[kk,:] += a[i,kk] * g[i,:] for kk in [kb, ke), i ascending — bitwise.
void MatMulGradBRowsF32(const float* g, const float* a, float* gb, int64_t kb, int64_t ke, int n,
                        int k, int m);

}  // namespace revelio::tensor::simd

#endif  // REVELIO_TENSOR_SIMD_H_
