// AVX2 microkernel table. This translation unit is the ONLY one compiled
// with -mavx2 — and deliberately NOT -mfma: fusing a*b+c would change result
// bits versus the scalar oracle's mul-then-add, breaking the cross-dispatch
// bitwise contract (see simd.h and DESIGN.md §13). Every arithmetic step
// below uses explicit mul/add intrinsics in the same association order as
// the scalar oracle. The dispatch layer never selects this table unless the
// running CPU reports AVX2.
#include "tensor/simd.h"

#if defined(QUICKDROP_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

namespace quickdrop::simd {
namespace {

void axpy_avx2(float* y, const float* x, float a, std::int64_t n) {
  const __m256 av = _mm256_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 yv = _mm256_loadu_ps(y + i);
    // qdlint: shared-write(caller passes a disjoint y[0,n) slice; this tile writes only it)
    _mm256_storeu_ps(y + i, _mm256_add_ps(yv, _mm256_mul_ps(av, xv)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void scale_avx2(float* y, float a, std::int64_t n) {
  const __m256 av = _mm256_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // qdlint: shared-write(caller passes a disjoint y[0,n) slice; this tile writes only it)
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), av));
  }
  for (; i < n; ++i) y[i] *= a;
}

// The four binary operators: one IEEE instruction per lane, and the same
// scalar expression for the tail, so every element's result is the scalar
// oracle's.
struct AddOp {
  static __m256 apply(__m256 x, __m256 y) { return _mm256_add_ps(x, y); }
  static float apply(float x, float y) { return x + y; }
};
struct SubOp {
  static __m256 apply(__m256 x, __m256 y) { return _mm256_sub_ps(x, y); }
  static float apply(float x, float y) { return x - y; }
};
struct MulOp {
  static __m256 apply(__m256 x, __m256 y) { return _mm256_mul_ps(x, y); }
  static float apply(float x, float y) { return x * y; }
};
struct DivOp {
  static __m256 apply(__m256 x, __m256 y) { return _mm256_div_ps(x, y); }
  static float apply(float x, float y) { return x / y; }
};

template <typename Op>
void binary_avx2(float* o, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 r = Op::apply(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
    _mm256_storeu_ps(o + i, r);
  }
  for (; i < n; ++i) o[i] = Op::apply(a[i], b[i]);
}

template <typename Op>
void binary_rs_avx2(float* o, const float* a, float b, std::int64_t n) {
  const __m256 bv = _mm256_set1_ps(b);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
    _mm256_storeu_ps(o + i, Op::apply(_mm256_loadu_ps(a + i), bv));
  }
  for (; i < n; ++i) o[i] = Op::apply(a[i], b);
}

template <typename Op>
void binary_ls_avx2(float* o, float a, const float* b, std::int64_t n) {
  const __m256 av = _mm256_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
    _mm256_storeu_ps(o + i, Op::apply(av, _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = Op::apply(a, b[i]);
}

void relu_avx2(float* o, const float* a, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // max_ps(x, 0) returns its second operand unless x > 0 (NaN, -0 and +0
    // all give +0): exactly `x > 0 ? x : 0`.
    // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
    _mm256_storeu_ps(o + i, _mm256_max_ps(_mm256_loadu_ps(a + i), zero));
  }
  for (; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

void relu_mask_avx2(float* o, const float* a, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Ordered greater-than is false for NaN, like the scalar comparison.
    const __m256 gt = _mm256_cmp_ps(_mm256_loadu_ps(a + i), zero, _CMP_GT_OQ);
    // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
    _mm256_storeu_ps(o + i, _mm256_and_ps(gt, one));
  }
  for (; i < n; ++i) o[i] = a[i] > 0.0f ? 1.0f : 0.0f;
}

void transpose8x8_avx2(float* dst, std::int64_t ldd, const float* src, std::int64_t lds) {
  // Interleave pairs of rows, then pairs of pairs, then swap 128-bit
  // halves: the standard in-register 8x8 transpose. Only moves bits.
  __m256 r[8], t[8], u[8];
  for (int k = 0; k < 8; ++k) r[k] = _mm256_loadu_ps(src + k * lds);
  for (int k = 0; k < 8; k += 2) {
    t[k] = _mm256_unpacklo_ps(r[k], r[k + 1]);
    t[k + 1] = _mm256_unpackhi_ps(r[k], r[k + 1]);
  }
  for (int k = 0; k < 8; k += 4) {
    u[k] = _mm256_shuffle_ps(t[k], t[k + 2], _MM_SHUFFLE(1, 0, 1, 0));
    u[k + 1] = _mm256_shuffle_ps(t[k], t[k + 2], _MM_SHUFFLE(3, 2, 3, 2));
    u[k + 2] = _mm256_shuffle_ps(t[k + 1], t[k + 3], _MM_SHUFFLE(1, 0, 1, 0));
    u[k + 3] = _mm256_shuffle_ps(t[k + 1], t[k + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (int k = 0; k < 4; ++k) {
    // qdlint: shared-write(caller owns output rows dst[0..8) of this tile)
    _mm256_storeu_ps(dst + k * ldd, _mm256_permute2f128_ps(u[k], u[k + 4], 0x20));
    // qdlint: shared-write(caller owns output rows dst[0..8) of this tile)
    _mm256_storeu_ps(dst + (k + 4) * ldd, _mm256_permute2f128_ps(u[k], u[k + 4], 0x31));
  }
}

/// Reduces a 4x64-bit accumulator to ((l0 + l2) + (l1 + l3)) — the lane fold
/// the scalar oracle mirrors.
double reduce_lanes(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);        // (l0, l1)
  const __m128d hi = _mm256_extractf128_pd(acc, 1);      // (l2, l3)
  const __m128d sums = _mm_add_pd(lo, hi);               // (l0+l2, l1+l3)
  return _mm_cvtsd_f64(_mm_hadd_pd(sums, sums));         // (l0+l2) + (l1+l3)
}

double sum_squares_avx2(const float* x, std::int64_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double v = x[i];
    tail += v * v;
  }
  return reduce_lanes(acc) + tail;
}

double sum_squared_diff_avx2(const float* a, const float* b, std::int64_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Float difference first, then widen — matches the oracle and l2_norm
    // over subtract(a, b).
    const __m128 d = _mm_sub_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i));
    const __m256d v = _mm256_cvtps_pd(d);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double v = static_cast<float>(a[i] - b[i]);
    tail += v * v;
  }
  return reduce_lanes(acc) + tail;
}

void wavg_fold_avx2(double* acc, const float* x, double w, std::int64_t n) {
  const __m256d wv = _mm256_set1_pd(w);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xv = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    const __m256d av = _mm256_loadu_pd(acc + i);
    // qdlint: shared-write(caller passes a disjoint acc[0,n) scratch; this tile writes only it)
    _mm256_storeu_pd(acc + i, _mm256_add_pd(av, _mm256_mul_pd(wv, xv)));
  }
  for (; i < n; ++i) acc[i] += w * static_cast<double>(x[i]);
}

void wavg_store_avx2(float* o, const double* acc, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // _mm256_cvtpd_ps rounds to nearest-even — identical to the C cast.
    // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
    _mm_storeu_ps(o + i, _mm256_cvtpd_ps(_mm256_loadu_pd(acc + i)));
  }
  for (; i < n; ++i) o[i] = static_cast<float>(acc[i]);
}

void dadd_avx2(double* acc, const double* x, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d av = _mm256_loadu_pd(acc + i);
    const __m256d xv = _mm256_loadu_pd(x + i);
    // qdlint: shared-write(caller passes a disjoint acc[0,n) slice; this tile writes only it)
    _mm256_storeu_pd(acc + i, _mm256_add_pd(av, xv));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

void dscale_store_avx2(float* o, const double* acc, double s, std::int64_t n) {
  const __m256d sv = _mm256_set1_pd(s);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Double multiply then _mm256_cvtpd_ps — both round to nearest-even,
    // identical to the scalar (float)(acc[i] * s).
    // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
    _mm_storeu_ps(o + i, _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_loadu_pd(acc + i), sv)));
  }
  for (; i < n; ++i) o[i] = static_cast<float>(acc[i] * s);
}

void matmul_tile4_avx2(float* c, float a0, float a1, float a2, float a3, const float* b0,
                       const float* b1, const float* b2, const float* b3, std::int64_t n) {
  const __m256 a0v = _mm256_set1_ps(a0), a1v = _mm256_set1_ps(a1);
  const __m256 a2v = _mm256_set1_ps(a2), a3v = _mm256_set1_ps(a3);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    // Same left-associated mul-then-add chain as the scalar expression
    // c[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j].
    __m256 t = _mm256_mul_ps(a0v, _mm256_loadu_ps(b0 + j));
    t = _mm256_add_ps(t, _mm256_mul_ps(a1v, _mm256_loadu_ps(b1 + j)));
    t = _mm256_add_ps(t, _mm256_mul_ps(a2v, _mm256_loadu_ps(b2 + j)));
    t = _mm256_add_ps(t, _mm256_mul_ps(a3v, _mm256_loadu_ps(b3 + j)));
    // qdlint: shared-write(caller owns this output row; the tile writes only c[0,n))
    _mm256_storeu_ps(c + j, _mm256_add_ps(_mm256_loadu_ps(c + j), t));
  }
  for (; j < n; ++j) {
    c[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
  }
}

constexpr Kernels kAvx2Kernels = {
    .name = "avx2",
    .axpy = axpy_avx2,
    .scale = scale_avx2,
    .sum_squares = sum_squares_avx2,
    .sum_squared_diff = sum_squared_diff_avx2,
    .wavg_fold = wavg_fold_avx2,
    .wavg_store = wavg_store_avx2,
    .dadd = dadd_avx2,
    .dscale_store = dscale_store_avx2,
    .matmul_tile4 = matmul_tile4_avx2,
    .binary = {binary_avx2<AddOp>, binary_avx2<SubOp>, binary_avx2<MulOp>, binary_avx2<DivOp>},
    .binary_rs = {binary_rs_avx2<AddOp>, binary_rs_avx2<SubOp>, binary_rs_avx2<MulOp>,
                  binary_rs_avx2<DivOp>},
    .binary_ls = {binary_ls_avx2<AddOp>, binary_ls_avx2<SubOp>, binary_ls_avx2<MulOp>,
                  binary_ls_avx2<DivOp>},
    .relu = relu_avx2,
    .relu_mask = relu_mask_avx2,
    .transpose8x8 = transpose8x8_avx2,
};

}  // namespace

bool avx2_compiled() { return true; }
const Kernels& avx2_kernels() { return kAvx2Kernels; }

}  // namespace quickdrop::simd

#else  // !QUICKDROP_HAVE_AVX2

namespace quickdrop::simd {

bool avx2_compiled() { return false; }
const Kernels& avx2_kernels() { return scalar_kernels(); }

}  // namespace quickdrop::simd

#endif
