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

#include <bit>
#include <cmath>
#include <cstdint>

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

void neg_avx2(float* o, const float* a, std::int64_t n) {
  // -0.0f is the sign bit alone; xor flips it and nothing else.
  const __m256 sign = _mm256_set1_ps(-0.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
    _mm256_storeu_ps(o + i, _mm256_xor_ps(_mm256_loadu_ps(a + i), sign));
  }
  for (; i < n; ++i) o[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(a[i]) ^ 0x80000000u);
}

// The memory-bound kernels below end a run with a four-lane step and then
// scalar elements, never with a masked store: a masked store into a page
// the process has just faulted in takes a microcode assist, and a masked
// load of a masked store's bytes cannot be forwarded from it. Both showed
// up as kernels slower than their scalar loops on short rows.

void sqrt_avx2(float* o, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
    _mm256_storeu_ps(o + i, _mm256_sqrt_ps(_mm256_loadu_ps(a + i)));
  }
  for (; i < n; ++i) o[i] = std::sqrt(a[i]);
}

void fill_avx2(float* o, float v, std::int64_t n) {
  const __m256 vv = _mm256_set1_ps(v);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
    _mm256_storeu_ps(o + i, vv);
  }
  if (i + 4 <= n) {
    // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
    _mm_storeu_ps(o + i, _mm256_castps256_ps128(vv));
    i += 4;
  }
  for (; i < n; ++i) o[i] = v;
}

/// Copies x[0, n) to o[0, n).
[[gnu::always_inline]] inline void copy_run(float* o, const float* x, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // qdlint: shared-write(the caller's plane owns o[0,n))
    _mm256_storeu_ps(o + i, _mm256_loadu_ps(x + i));
  }
  if (i + 4 <= n) {
    // qdlint: shared-write(the caller's plane owns o[0,n))
    _mm_storeu_ps(o + i, _mm_loadu_ps(x + i));
    i += 4;
  }
  for (; i < n; ++i) o[i] = x[i];
}

void sum_rows8_avx2(float* acc, const float* const* rows, std::int64_t n) {
  // Lane g carries output g's chain. Eight columns at a time are loaded as
  // eight row vectors and transposed, so column i of the block is one vector
  // holding rows[0..7][i]; adding the columns in increasing i is each lane's
  // serial left-to-right sum.
  __m256 s = _mm256_loadu_ps(acc);
  const float* r0 = rows[0];
  const float* r1 = rows[1];
  const float* r2 = rows[2];
  const float* r3 = rows[3];
  const float* r4 = rows[4];
  const float* r5 = rows[5];
  const float* r6 = rows[6];
  const float* r7 = rows[7];
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t0 = _mm256_unpacklo_ps(_mm256_loadu_ps(r0 + i), _mm256_loadu_ps(r1 + i));
    const __m256 t1 = _mm256_unpackhi_ps(_mm256_loadu_ps(r0 + i), _mm256_loadu_ps(r1 + i));
    const __m256 t2 = _mm256_unpacklo_ps(_mm256_loadu_ps(r2 + i), _mm256_loadu_ps(r3 + i));
    const __m256 t3 = _mm256_unpackhi_ps(_mm256_loadu_ps(r2 + i), _mm256_loadu_ps(r3 + i));
    const __m256 t4 = _mm256_unpacklo_ps(_mm256_loadu_ps(r4 + i), _mm256_loadu_ps(r5 + i));
    const __m256 t5 = _mm256_unpackhi_ps(_mm256_loadu_ps(r4 + i), _mm256_loadu_ps(r5 + i));
    const __m256 t6 = _mm256_unpacklo_ps(_mm256_loadu_ps(r6 + i), _mm256_loadu_ps(r7 + i));
    const __m256 t7 = _mm256_unpackhi_ps(_mm256_loadu_ps(r6 + i), _mm256_loadu_ps(r7 + i));
    // Per 128-bit half: rows 0-3 (u0..u3) and rows 4-7 (u4..u7) of columns
    // 0-3 (low half) and 4-7 (high half).
    const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44), u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
    const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44), u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
    const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44), u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
    const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44), u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
    s = _mm256_add_ps(s, _mm256_permute2f128_ps(u0, u4, 0x20));
    s = _mm256_add_ps(s, _mm256_permute2f128_ps(u1, u5, 0x20));
    s = _mm256_add_ps(s, _mm256_permute2f128_ps(u2, u6, 0x20));
    s = _mm256_add_ps(s, _mm256_permute2f128_ps(u3, u7, 0x20));
    s = _mm256_add_ps(s, _mm256_permute2f128_ps(u0, u4, 0x31));
    s = _mm256_add_ps(s, _mm256_permute2f128_ps(u1, u5, 0x31));
    s = _mm256_add_ps(s, _mm256_permute2f128_ps(u2, u6, 0x31));
    s = _mm256_add_ps(s, _mm256_permute2f128_ps(u3, u7, 0x31));
  }
  for (; i < n; ++i) {
    s = _mm256_add_ps(s, _mm256_setr_ps(r0[i], r1[i], r2[i], r3[i], r4[i], r5[i], r6[i], r7[i]));
  }
  // qdlint: shared-write(acc is the caller's private 8-float accumulator)
  _mm256_storeu_ps(acc, s);
}

void im2col_row_avx2(float* o, const float* x, std::int64_t images, std::int64_t image_stride,
                     const ConvGeometry& g, std::int64_t ki, std::int64_t kj) {
  if (g.stride != 1 || g.ow != g.w) {  // only "same" convolutions have contiguous rows
    scalar_kernels().im2col_row(o, x, images, image_stride, g, ki, kj);
    return;
  }
  const InRange ys = in_range(ki - g.pad, 1, g.h, g.oh);
  const InRange xs = in_range(kj - g.pad, 1, g.w, g.ow);
  const std::int64_t plane = g.oh * g.ow;
  if (ys.lo >= ys.hi || xs.lo >= xs.hi) {  // the offset never lands on the image
    fill_avx2(o, 0.0f, images * plane);
    return;
  }
  // The grid is as wide as the image, so its in-bounds rows are one
  // contiguous stretch of the image: copied from the first in-bounds pixel
  // to the last, after which the padding columns it spans get their zeros.
  const std::int64_t first = (ys.lo + ki - g.pad) * g.w + xs.lo + kj - g.pad;
  const std::int64_t len = (ys.hi - ys.lo - 1) * g.w + xs.hi - xs.lo;
  for (std::int64_t i = 0; i < images; ++i) {
    float* p = o + i * plane;
    fill_avx2(p, 0.0f, ys.lo * g.ow);  // rows above the image
    copy_run(p + ys.lo * g.ow + xs.lo, x + (i * image_stride + first), len);
    for (std::int64_t y = ys.lo; y < ys.hi; ++y) {
      for (std::int64_t t = 0; t < xs.lo; ++t) p[y * g.ow + t] = 0.0f;
      for (std::int64_t t = xs.hi; t < g.ow; ++t) p[y * g.ow + t] = 0.0f;
    }
    fill_avx2(p + ys.hi * g.ow, 0.0f, (g.oh - ys.hi) * g.ow);  // rows below it
  }
}

void col2im_plane_avx2(float* o, const float* cols, std::int64_t offset_stride,
                       const ConvGeometry& g) {
  if (g.stride != 1) {  // strided convolutions scatter to every stride-th pixel
    scalar_kernels().col2im_plane(o, cols, offset_stride, g);
    return;
  }
  // Each block of eight pixels of an image row sums in a register, from +0,
  // the column value of every kernel offset that lands on it, offset by
  // offset in (ki, kj) order, and is stored once. Lane l of offset (ki, kj)
  // reads column x0 + l, x0 = p0 + pad - kj; a lane the offset does not
  // reach adds +0, which leaves every sum a chain from +0 can reach
  // unchanged (such a sum is never -0). A masked load reads only the lanes
  // that land inside the grid, from their first one, and a lane rotation
  // puts them in place when the block starts left of the grid.
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (std::int64_t py = 0; py < g.h; ++py) {
    for (std::int64_t p0 = 0; p0 < g.w; p0 += 8) {
      const std::int64_t lanes = g.w - p0 < 8 ? g.w - p0 : 8;
      __m256 acc = _mm256_setzero_ps();
      for (std::int64_t ki = 0; ki < g.k; ++ki) {
        const std::int64_t y = py + g.pad - ki;
        if (y < 0 || y >= g.oh) continue;
        for (std::int64_t kj = 0; kj < g.k; ++kj) {
          const std::int64_t x0 = p0 + g.pad - kj;
          const std::int64_t lo = x0 < 0 ? -x0 : 0;
          const std::int64_t hi = g.ow - x0 < lanes ? g.ow - x0 : lanes;
          if (lo >= hi) continue;
          const float* row = cols + ((ki * g.k + kj) * offset_stride + y * g.ow);
          const __m256i mask =
              _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(hi - lo)), iota);
          __m256 v = _mm256_maskload_ps(row + (x0 + lo), mask);
          if (lo > 0) {
            v = _mm256_permutevar8x32_ps(
                v, _mm256_and_si256(_mm256_sub_epi32(iota, _mm256_set1_epi32(static_cast<int>(lo))),
                                    _mm256_set1_epi32(7)));
          }
          acc = _mm256_add_ps(acc, v);
        }
      }
      float* out = o + py * g.w + p0;
      if (lanes == 8) {
        // qdlint: shared-write(the caller owns this image plane)
        _mm256_storeu_ps(out, acc);
      } else {
        alignas(32) float sums[8];
        // qdlint: shared-write(sums is this call's own stack buffer)
        _mm256_store_ps(sums, acc);
        for (std::int64_t l = 0; l < lanes; ++l) out[l] = sums[l];
      }
    }
  }
}

void sum_pool_avx2(float* o, const float* x, std::int64_t rows, std::int64_t ow,
                   std::int64_t k) {
  if (k != 2) {
    scalar_kernels().sum_pool(o, x, rows, ow, k);
    return;
  }
  // Eight, then four, then the last one to three windows per vector, each
  // lane ((((+0 + top left) + top right) + bottom left) + bottom right): the
  // row-major chain of its window. The columns are split by shuffles that
  // pick the even and odd floats of a row pair's block.
  const std::int64_t w = 2 * ow;
  const __m256 zero = _mm256_setzero_ps();
  for (std::int64_t r = 0; r < rows; ++r) {
    float* out = o + r * ow;
    const float* top = x + r * 2 * w;
    const float* bottom = top + w;
    std::int64_t j = 0;
    for (; j + 8 <= ow; j += 8) {
      // shuffle_ps picks within 128-bit halves, (a0 a2 b0 b2 | a4 a6 b4 b6);
      // the 64-bit permute puts the halves in window order.
      const auto split = [](const float* p, __m256& even, __m256& odd) {
        const __m256 a = _mm256_loadu_ps(p), b = _mm256_loadu_ps(p + 8);
        even = _mm256_castpd_ps(
            _mm256_permute4x64_pd(_mm256_castps_pd(_mm256_shuffle_ps(a, b, 0x88)), 0xD8));
        odd = _mm256_castpd_ps(
            _mm256_permute4x64_pd(_mm256_castps_pd(_mm256_shuffle_ps(a, b, 0xDD)), 0xD8));
      };
      __m256 tl, tr, bl, br;
      split(top + 2 * j, tl, tr);
      split(bottom + 2 * j, bl, br);
      const __m256 sum =
          _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(_mm256_add_ps(zero, tl), tr), bl), br);
      // qdlint: shared-write(caller passes disjoint output rows; this tile writes only them)
      _mm256_storeu_ps(out + j, sum);
    }
    if (j + 4 <= ow) {
      const auto split = [](const float* p, __m128& even, __m128& odd) {
        const __m128 a = _mm_loadu_ps(p), b = _mm_loadu_ps(p + 4);
        even = _mm_shuffle_ps(a, b, 0x88);
        odd = _mm_shuffle_ps(a, b, 0xDD);
      };
      __m128 tl, tr, bl, br;
      split(top + 2 * j, tl, tr);
      split(bottom + 2 * j, bl, br);
      const __m128 sum =
          _mm_add_ps(_mm_add_ps(_mm_add_ps(_mm_add_ps(_mm256_castps256_ps128(zero), tl), tr), bl),
                     br);
      // qdlint: shared-write(caller passes disjoint output rows; this tile writes only them)
      _mm_storeu_ps(out + j, sum);
      j += 4;
    }
    if (j < ow) {
      // One to three windows: 64-bit loads and stores, so no float past the
      // row pair's block or the output row is touched.
      const std::int64_t rem = ow - j;
      const auto pair = [](const float* q) {
        return _mm_castsi128_ps(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(q)));
      };
      const auto split = [&](const float* p, __m128& even, __m128& odd) {
        const __m128 a = rem == 1 ? pair(p) : _mm_loadu_ps(p);
        const __m128 b = rem == 3 ? pair(p + 4) : _mm_setzero_ps();
        even = _mm_shuffle_ps(a, b, 0x88);
        odd = _mm_shuffle_ps(a, b, 0xDD);
      };
      __m128 tl, tr, bl, br;
      split(top + 2 * j, tl, tr);
      split(bottom + 2 * j, bl, br);
      const __m128 sum =
          _mm_add_ps(_mm_add_ps(_mm_add_ps(_mm_add_ps(_mm_setzero_ps(), tl), tr), bl), br);
      if (rem == 1) {
        // qdlint: shared-write(caller passes disjoint output rows; this tile writes only them)
        _mm_store_ss(out + j, sum);
      } else {
        // qdlint: shared-write(caller passes disjoint output rows; this tile writes only them)
        _mm_storel_epi64(reinterpret_cast<__m128i*>(out + j), _mm_castps_si128(sum));
        // qdlint: shared-write(caller passes disjoint output rows; this tile writes only them)
        if (rem == 3) _mm_store_ss(out + j + 2, _mm_movehl_ps(sum, sum));
      }
    }
  }
}

void spread_pool_avx2(float* o, const float* g, std::int64_t rows, std::int64_t ow,
                      std::int64_t k) {
  if (k != 2) {
    scalar_kernels().spread_pool(o, g, rows, ow, k);
    return;
  }
  // Eight (then four) values per vector, each doubled into two adjacent
  // lanes, and the doubled row written to both output rows of its windows.
  const std::int64_t w = 2 * ow;
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* src = g + r * ow;
    float* top = o + r * 2 * w;
    float* bottom = top + w;
    std::int64_t j = 0;
    for (; j + 8 <= ow; j += 8) {
      const __m256 v = _mm256_loadu_ps(src + j);
      const __m256 lo = _mm256_unpacklo_ps(v, v), hi = _mm256_unpackhi_ps(v, v);
      const __m256 first = _mm256_permute2f128_ps(lo, hi, 0x20);   // v0 v0 .. v3 v3
      const __m256 second = _mm256_permute2f128_ps(lo, hi, 0x31);  // v4 v4 .. v7 v7
      // qdlint: shared-write(caller passes disjoint window rows; this tile writes only them)
      _mm256_storeu_ps(top + 2 * j, first);
      // qdlint: shared-write(caller passes disjoint window rows; this tile writes only them)
      _mm256_storeu_ps(top + 2 * j + 8, second);
      // qdlint: shared-write(caller passes disjoint window rows; this tile writes only them)
      _mm256_storeu_ps(bottom + 2 * j, first);
      // qdlint: shared-write(caller passes disjoint window rows; this tile writes only them)
      _mm256_storeu_ps(bottom + 2 * j + 8, second);
    }
    if (j + 4 <= ow) {
      const __m128 v = _mm_loadu_ps(src + j);
      const __m256 both =
          _mm256_setr_m128(_mm_unpacklo_ps(v, v), _mm_unpackhi_ps(v, v));  // v0 v0 .. v3 v3
      // qdlint: shared-write(caller passes disjoint window rows; this tile writes only them)
      _mm256_storeu_ps(top + 2 * j, both);
      // qdlint: shared-write(caller passes disjoint window rows; this tile writes only them)
      _mm256_storeu_ps(bottom + 2 * j, both);
      j += 4;
    }
    for (; j < ow; ++j) {
      top[2 * j] = top[2 * j + 1] = src[j];
      bottom[2 * j] = bottom[2 * j + 1] = src[j];
    }
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

void gemm4x8_avx2(float* c, std::int64_t ldc, const float* a, std::int64_t a_row,
                  std::int64_t a_k, const float* b, std::int64_t kc, std::int64_t strips,
                  bool load) {
  // acc += ((x0*b0 + x1*b1) + x2*b2) + x3*b3 for one tile row whose A values
  // sit at x, x + a_k, x + 2 a_k, x + 3 a_k. Mul-then-add.
  const auto group = [a_k](__m256 acc, const float* x, __m256 b0, __m256 b1, __m256 b2,
                           __m256 b3) {
    __m256 t = _mm256_mul_ps(_mm256_broadcast_ss(x), b0);
    t = _mm256_add_ps(t, _mm256_mul_ps(_mm256_broadcast_ss(x + a_k), b1));
    t = _mm256_add_ps(t, _mm256_mul_ps(_mm256_broadcast_ss(x + 2 * a_k), b2));
    t = _mm256_add_ps(t, _mm256_mul_ps(_mm256_broadcast_ss(x + 3 * a_k), b3));
    return _mm256_add_ps(acc, t);
  };
  const std::int64_t a_step = 4 * a_k;
  for (std::int64_t s = 0; s < strips; ++s, c += 8) {
    // One 8-lane accumulator per tile row, each lane the scalar oracle's
    // chain for its element. The rows are spelled out so the accumulators
    // stay in registers.
    __m256 c0 = _mm256_setzero_ps(), c1 = c0, c2 = c0, c3 = c0;
    if (load) {
      c0 = _mm256_loadu_ps(c);
      c1 = _mm256_loadu_ps(c + ldc);
      c2 = _mm256_loadu_ps(c + 2 * ldc);
      c3 = _mm256_loadu_ps(c + 3 * ldc);
    }
    const float* a0 = a;
    const float* a1 = a + a_row;
    const float* a2 = a + 2 * a_row;
    const float* a3 = a + 3 * a_row;
    std::int64_t p = 0;
    for (; p + 4 <= kc; p += 4, a0 += a_step, a1 += a_step, a2 += a_step, a3 += a_step, b += 32) {
      const __m256 b0 = _mm256_loadu_ps(b), b1 = _mm256_loadu_ps(b + 8);
      const __m256 b2 = _mm256_loadu_ps(b + 16), b3 = _mm256_loadu_ps(b + 24);
      c0 = group(c0, a0, b0, b1, b2, b3);
      c1 = group(c1, a1, b0, b1, b2, b3);
      c2 = group(c2, a2, b0, b1, b2, b3);
      c3 = group(c3, a3, b0, b1, b2, b3);
    }
    for (; p < kc; ++p, a0 += a_k, a1 += a_k, a2 += a_k, a3 += a_k, b += 8) {
      const __m256 bv = _mm256_loadu_ps(b);
      c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_broadcast_ss(a0), bv));
      c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_broadcast_ss(a1), bv));
      c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_broadcast_ss(a2), bv));
      c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_broadcast_ss(a3), bv));
    }
    // qdlint: shared-write(caller owns this 4-row output strip)
    _mm256_storeu_ps(c, c0);
    // qdlint: shared-write(caller owns this 4-row output strip)
    _mm256_storeu_ps(c + ldc, c1);
    // qdlint: shared-write(caller owns this 4-row output strip)
    _mm256_storeu_ps(c + 2 * ldc, c2);
    // qdlint: shared-write(caller owns this 4-row output strip)
    _mm256_storeu_ps(c + 3 * ldc, c3);
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
    .gemm4x8 = gemm4x8_avx2,
    .binary = {binary_avx2<AddOp>, binary_avx2<SubOp>, binary_avx2<MulOp>, binary_avx2<DivOp>},
    .binary_rs = {binary_rs_avx2<AddOp>, binary_rs_avx2<SubOp>, binary_rs_avx2<MulOp>,
                  binary_rs_avx2<DivOp>},
    .binary_ls = {binary_ls_avx2<AddOp>, binary_ls_avx2<SubOp>, binary_ls_avx2<MulOp>,
                  binary_ls_avx2<DivOp>},
    .relu = relu_avx2,
    .relu_mask = relu_mask_avx2,
    .neg = neg_avx2,
    .sqrt = sqrt_avx2,
    .fill = fill_avx2,
    .sum_rows8 = sum_rows8_avx2,
    .im2col_row = im2col_row_avx2,
    .col2im_plane = col2im_plane_avx2,
    .sum_pool = sum_pool_avx2,
    .spread_pool = spread_pool_avx2,
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
