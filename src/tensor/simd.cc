#include "tensor/simd.h"

#include <atomic>

#include "obs/metrics.h"
#include "util/flags.h"

// The ONLY translation unit built with vector ISA flags (-mavx2 on x86; see
// src/tensor/CMakeLists.txt, which also defines exactly one of the
// REVELIO_SIMD_ISA_* macros below). Everything is written once against the
// width-agnostic VecF32 wrapper; the ISA blocks only define that wrapper.
//
// No FMA anywhere: mul and add are issued as separate IEEE operations so
// each lane computes bit-identical results to the scalar expression
// `acc += a * b`. This TU must never be compiled with -mfma or
// -ffp-contract=fast.

#if defined(REVELIO_SIMD_ISA_AVX2)
#include <immintrin.h>
#elif defined(REVELIO_SIMD_ISA_NEON)
#include <arm_neon.h>
#endif

namespace revelio::tensor::simd {

namespace {

#if defined(REVELIO_SIMD_ISA_AVX2)

struct VecF32 {
  static constexpr int kWidth = 8;
  __m256 v;

  static VecF32 Load(const float* p) { return {_mm256_loadu_ps(p)}; }
  void Store(float* p) const { _mm256_storeu_ps(p, v); }
  static VecF32 Broadcast(float s) { return {_mm256_set1_ps(s)}; }
  static VecF32 Zero() { return {_mm256_setzero_ps()}; }
  friend VecF32 operator+(VecF32 a, VecF32 b) { return {_mm256_add_ps(a.v, b.v)}; }
  friend VecF32 operator-(VecF32 a, VecF32 b) { return {_mm256_sub_ps(a.v, b.v)}; }
  friend VecF32 operator*(VecF32 a, VecF32 b) { return {_mm256_mul_ps(a.v, b.v)}; }
  // All-ones lane mask where a > b (ordered: false on NaN, like the scalar
  // `>` operator).
  static VecF32 GtMask(VecF32 a, VecF32 b) { return {_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ)}; }
  // Lane-select: mask lanes take `yes`, others keep `no` bit-exactly.
  static VecF32 Blend(VecF32 no, VecF32 yes, VecF32 mask) {
    return {_mm256_blendv_ps(no.v, yes.v, mask.v)};
  }
};

#elif defined(REVELIO_SIMD_ISA_NEON)

struct VecF32 {
  static constexpr int kWidth = 4;
  float32x4_t v;

  static VecF32 Load(const float* p) { return {vld1q_f32(p)}; }
  void Store(float* p) const { vst1q_f32(p, v); }
  static VecF32 Broadcast(float s) { return {vdupq_n_f32(s)}; }
  static VecF32 Zero() { return {vdupq_n_f32(0.0f)}; }
  friend VecF32 operator+(VecF32 a, VecF32 b) { return {vaddq_f32(a.v, b.v)}; }
  friend VecF32 operator-(VecF32 a, VecF32 b) { return {vsubq_f32(a.v, b.v)}; }
  friend VecF32 operator*(VecF32 a, VecF32 b) { return {vmulq_f32(a.v, b.v)}; }
  static VecF32 GtMask(VecF32 a, VecF32 b) {
    return {vreinterpretq_f32_u32(vcgtq_f32(a.v, b.v))};
  }
  static VecF32 Blend(VecF32 no, VecF32 yes, VecF32 mask) {
    return {vbslq_f32(vreinterpretq_u32_f32(mask.v), yes.v, no.v)};
  }
};

#else  // scalar fallback build

struct VecF32 {
  static constexpr int kWidth = 1;
  float v;

  static VecF32 Load(const float* p) { return {*p}; }
  void Store(float* p) const { *p = v; }
  static VecF32 Broadcast(float s) { return {s}; }
  static VecF32 Zero() { return {0.0f}; }
  friend VecF32 operator+(VecF32 a, VecF32 b) { return {a.v + b.v}; }
  friend VecF32 operator-(VecF32 a, VecF32 b) { return {a.v - b.v}; }
  friend VecF32 operator*(VecF32 a, VecF32 b) { return {a.v * b.v}; }
  static VecF32 GtMask(VecF32 a, VecF32 b) { return {a.v > b.v ? 1.0f : 0.0f}; }
  static VecF32 Blend(VecF32 no, VecF32 yes, VecF32 mask) {
    return {mask.v != 0.0f ? yes.v : no.v};
  }
};

#endif

constexpr int kW = VecF32::kWidth;

std::atomic<bool>& SimdFlag() {
  // No vector tier compiled in (kW == 1) means the scalar loops always run.
  static std::atomic<bool> flag(kW > 1 && util::EnvFlag("REVELIO_SIMD", true));
  return flag;
}

}  // namespace

int Lanes() { return kW; }

const char* IsaName() {
#if defined(REVELIO_SIMD_ISA_AVX2)
  return "avx2";
#elif defined(REVELIO_SIMD_ISA_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

bool CpuSupportsCompiledIsa() {
#if defined(REVELIO_SIMD_ISA_AVX2)
  return __builtin_cpu_supports("avx2") != 0;
#else
  // NEON is architecturally guaranteed on aarch64; the scalar build runs
  // anywhere.
  return true;
#endif
}

bool Enabled() { return SimdFlag().load(std::memory_order_relaxed); }

void SetEnabled(bool enabled) {
  SimdFlag().store(kW == 1 ? false : enabled, std::memory_order_relaxed);
}

void CountSweep(int64_t n) {
  static obs::Gauge* lanes = [] {
    obs::Gauge* g = obs::MetricsRegistry::Global().GetGauge("tensor.simd.lanes");
    g->Set(static_cast<double>(kW));
    return g;
  }();
  static obs::Counter* vector_ops =
      obs::MetricsRegistry::Global().GetCounter("tensor.simd.vector_ops");
  static obs::Counter* scalar_tail =
      obs::MetricsRegistry::Global().GetCounter("tensor.simd.scalar_tail");
  (void)lanes;
  vector_ops->Add(static_cast<uint64_t>(n / kW));
  scalar_tail->Add(static_cast<uint64_t>(n % kW));
}

// --- Elementwise kernels ----------------------------------------------------

void AddF32(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + kW <= n; i += kW) (VecF32::Load(a + i) + VecF32::Load(b + i)).Store(o + i);
  for (; i < n; ++i) o[i] = a[i] + b[i];
}

void SubF32(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + kW <= n; i += kW) (VecF32::Load(a + i) - VecF32::Load(b + i)).Store(o + i);
  for (; i < n; ++i) o[i] = a[i] - b[i];
}

void MulF32(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + kW <= n; i += kW) (VecF32::Load(a + i) * VecF32::Load(b + i)).Store(o + i);
  for (; i < n; ++i) o[i] = a[i] * b[i];
}

void AddScalarF32(const float* a, float s, float* o, int64_t n) {
  const VecF32 sv = VecF32::Broadcast(s);
  int64_t i = 0;
  for (; i + kW <= n; i += kW) (VecF32::Load(a + i) + sv).Store(o + i);
  for (; i < n; ++i) o[i] = a[i] + s;
}

void MulScalarF32(const float* a, float s, float* o, int64_t n) {
  const VecF32 sv = VecF32::Broadcast(s);
  int64_t i = 0;
  for (; i + kW <= n; i += kW) (VecF32::Load(a + i) * sv).Store(o + i);
  for (; i < n; ++i) o[i] = a[i] * s;
}

void AddAccF32(const float* a, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + kW <= n; i += kW) (VecF32::Load(o + i) + VecF32::Load(a + i)).Store(o + i);
  for (; i < n; ++i) o[i] += a[i];
}

void AddScalarAccF32(float s, float* o, int64_t n) {
  const VecF32 sv = VecF32::Broadcast(s);
  int64_t i = 0;
  for (; i + kW <= n; i += kW) (VecF32::Load(o + i) + sv).Store(o + i);
  for (; i < n; ++i) o[i] += s;
}

void MulAccF32(const float* a, float s, float* o, int64_t n) {
  const VecF32 sv = VecF32::Broadcast(s);
  int64_t i = 0;
  // Matches `o[i] += s * a[i]` (scale on the left, like AccumulateInto).
  for (; i + kW <= n; i += kW) (VecF32::Load(o + i) + sv * VecF32::Load(a + i)).Store(o + i);
  for (; i < n; ++i) o[i] += s * a[i];
}

void MulPairAccF32(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + kW <= n; i += kW) {
    (VecF32::Load(o + i) + VecF32::Load(a + i) * VecF32::Load(b + i)).Store(o + i);
  }
  for (; i < n; ++i) o[i] += a[i] * b[i];
}

void AxpyF32(float a, const float* x, float* y, int64_t n) {
  const VecF32 av = VecF32::Broadcast(a);
  int64_t i = 0;
  for (; i + kW <= n; i += kW) (VecF32::Load(y + i) + av * VecF32::Load(x + i)).Store(y + i);
  for (; i < n; ++i) y[i] += a * x[i];
}

void ReluF32(const float* a, float* o, int64_t n) {
  const VecF32 zero = VecF32::Zero();
  int64_t i = 0;
  // Blend (not max) so NaN and -0.0 inputs produce exactly what the scalar
  // ternary `a > 0 ? a : 0` produces: +0.0.
  for (; i + kW <= n; i += kW) {
    const VecF32 av = VecF32::Load(a + i);
    VecF32::Blend(zero, av, VecF32::GtMask(av, zero)).Store(o + i);
  }
  for (; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

void ReluGradAccF32(const float* g, const float* a, float* ga, int64_t n) {
  const VecF32 zero = VecF32::Zero();
  int64_t i = 0;
  // Lanes with a <= 0 keep their accumulator bits untouched — `+ 0.0f` would
  // break -0.0 accumulators, so the sum is blended in instead.
  for (; i + kW <= n; i += kW) {
    const VecF32 acc = VecF32::Load(ga + i);
    const VecF32 sum = acc + VecF32::Load(g + i);
    VecF32::Blend(acc, sum, VecF32::GtMask(VecF32::Load(a + i), zero)).Store(ga + i);
  }
  for (; i < n; ++i) {
    if (a[i] > 0.0f) ga[i] += g[i];
  }
}

void LeakyReluF32(const float* a, float slope, float* o, int64_t n) {
  const VecF32 zero = VecF32::Zero();
  const VecF32 sv = VecF32::Broadcast(slope);
  int64_t i = 0;
  for (; i + kW <= n; i += kW) {
    const VecF32 av = VecF32::Load(a + i);
    VecF32::Blend(sv * av, av, VecF32::GtMask(av, zero)).Store(o + i);
  }
  for (; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : slope * a[i];
}

void LeakyReluGradAccF32(const float* g, const float* a, float slope, float* ga, int64_t n) {
  const VecF32 zero = VecF32::Zero();
  const VecF32 one = VecF32::Broadcast(1.0f);
  const VecF32 sv = VecF32::Broadcast(slope);
  int64_t i = 0;
  for (; i + kW <= n; i += kW) {
    const VecF32 factor = VecF32::Blend(sv, one, VecF32::GtMask(VecF32::Load(a + i), zero));
    (VecF32::Load(ga + i) + VecF32::Load(g + i) * factor).Store(ga + i);
  }
  for (; i < n; ++i) ga[i] += g[i] * (a[i] > 0.0f ? 1.0f : slope);
}

void SigmoidGradAccF32(const float* g, const float* ov, float* ga, int64_t n) {
  const VecF32 one = VecF32::Broadcast(1.0f);
  int64_t i = 0;
  // Left-assoc (g * ov) * (1 - ov), matching the scalar expression.
  for (; i + kW <= n; i += kW) {
    const VecF32 y = VecF32::Load(ov + i);
    (VecF32::Load(ga + i) + VecF32::Load(g + i) * y * (one - y)).Store(ga + i);
  }
  for (; i < n; ++i) ga[i] += g[i] * ov[i] * (1.0f - ov[i]);
}

void TanhGradAccF32(const float* g, const float* ov, float* ga, int64_t n) {
  const VecF32 one = VecF32::Broadcast(1.0f);
  int64_t i = 0;
  for (; i + kW <= n; i += kW) {
    const VecF32 y = VecF32::Load(ov + i);
    (VecF32::Load(ga + i) + VecF32::Load(g + i) * (one - y * y)).Store(ga + i);
  }
  for (; i < n; ++i) ga[i] += g[i] * (1.0f - ov[i] * ov[i]);
}

// --- Reductions -------------------------------------------------------------

float DotF32(const float* a, const float* b, int64_t n) {
  // Short vectors never fill a lane: the serial fold from +0 is exactly what
  // the reduction below computes for them (all lane partials stay +0).
  if (n < kW) {
    float r = 0.0f;
    for (int64_t i = 0; i < n; ++i) r += a[i] * b[i];
    return r;
  }
  VecF32 acc = VecF32::Zero();
  int64_t i = 0;
  for (; i + kW <= n; i += kW) acc = acc + VecF32::Load(a + i) * VecF32::Load(b + i);
  float partial[kW];
  acc.Store(partial);
  // Fixed left-to-right reduction of the lane partials, then the scalar
  // tail: deterministic for a given n, ulp-bounded against serial order.
  float r = partial[0];
  for (int l = 1; l < kW; ++l) r += partial[l];
  for (; i < n; ++i) r += a[i] * b[i];
  return r;
}

// --- Row-blocked matmul -----------------------------------------------------

namespace {

// Stores a finished register accumulator: overwrite (forward) or add into the
// existing value (dA's `ga += acc`).
template <bool kAccumulate>
void StoreRow(VecF32 acc, float* p) {
  if constexpr (kAccumulate) acc = VecF32::Load(p) + acc;
  acc.Store(p);
}

// o[i,:] (+)= sum_kk a[i,kk] * b[kk,:] over rows [ib, ie). Per output row,
// j-tiles of 4 (then 1) vectors are held in registers across the whole kk
// loop, so each output element folds its products from +0 in ascending-kk
// order — the scalar accumulation order — while rows of b stream through
// with unit stride. a[i,kk] == 0 is skipped: the fold starts at +0 and so
// never holds -0, which makes adding a zero product a no-op for finite b.
template <bool kAccumulate>
void MatMulRowsImpl(const float* a, const float* b, float* o, int64_t ib, int64_t ie, int k,
                    int m) {
  for (int64_t i = ib; i < ie; ++i) {
    const int64_t abase = i * k;
    float* orow = o + static_cast<size_t>(i) * m;
    int j = 0;
    for (; j + 4 * kW <= m; j += 4 * kW) {
      VecF32 acc0 = VecF32::Zero();
      VecF32 acc1 = VecF32::Zero();
      VecF32 acc2 = VecF32::Zero();
      VecF32 acc3 = VecF32::Zero();
      for (int kk = 0; kk < k; ++kk) {
        const float aik = a[abase + kk];
        if (aik == 0.0f) continue;
        const VecF32 av = VecF32::Broadcast(aik);
        const int64_t bbase = static_cast<int64_t>(kk) * m + j;
        acc0 = acc0 + av * VecF32::Load(b + bbase);
        acc1 = acc1 + av * VecF32::Load(b + bbase + kW);
        acc2 = acc2 + av * VecF32::Load(b + bbase + 2 * kW);
        acc3 = acc3 + av * VecF32::Load(b + bbase + 3 * kW);
      }
      StoreRow<kAccumulate>(acc0, orow + j);
      StoreRow<kAccumulate>(acc1, orow + j + kW);
      StoreRow<kAccumulate>(acc2, orow + j + 2 * kW);
      StoreRow<kAccumulate>(acc3, orow + j + 3 * kW);
    }
    for (; j + kW <= m; j += kW) {
      VecF32 acc = VecF32::Zero();
      for (int kk = 0; kk < k; ++kk) {
        const float aik = a[abase + kk];
        if (aik == 0.0f) continue;
        acc = acc + VecF32::Broadcast(aik) * VecF32::Load(b + static_cast<int64_t>(kk) * m + j);
      }
      StoreRow<kAccumulate>(acc, orow + j);
    }
    for (; j < m; ++j) {
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) {
        const float aik = a[abase + kk];
        if (aik == 0.0f) continue;
        acc += aik * b[static_cast<int64_t>(kk) * m + j];
      }
      if constexpr (kAccumulate) {
        orow[j] += acc;
      } else {
        orow[j] = acc;
      }
    }
  }
}

}  // namespace

void MatMulRowsF32(const float* a, const float* b, float* o, int64_t ib, int64_t ie, int k,
                   int m) {
  MatMulRowsImpl</*kAccumulate=*/false>(a, b, o, ib, ie, k, m);
}

void MatMulAccRowsF32(const float* a, const float* b, float* o, int64_t ib, int64_t ie, int k,
                      int m) {
  MatMulRowsImpl</*kAccumulate=*/true>(a, b, o, ib, ie, k, m);
}

void MatMulGradBRowsF32(const float* g, const float* a, float* gb, int64_t kb, int64_t ke, int n,
                        int k, int m) {
  for (int i = 0; i < n; ++i) {
    const float* grow = g + static_cast<size_t>(i) * m;
    const float* arow = a + static_cast<size_t>(i) * k;
    for (int64_t kk = kb; kk < ke; ++kk) {
      const float aik = arow[kk];
      if (aik == 0.0f) continue;
      AxpyF32(aik, grow, gb + static_cast<size_t>(kk) * m, m);
    }
  }
}

}  // namespace revelio::tensor::simd
