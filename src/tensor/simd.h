// Runtime-dispatched SIMD microkernels for the flat-state hot paths.
//
// Two implementations of one microkernel table: a portable hand-tiled scalar
// fallback (the *oracle*) and an AVX2 path compiled into its own translation
// unit with -mavx2 only — never -mfma, because contracting a*b+c into one
// fused operation would change result bits versus the scalar mul-then-add.
// The table is selected ONCE at startup from CPUID plus the QUICKDROP_SIMD
// environment variable and never changes mid-run.
//
// Bitwise-determinism contract (DESIGN.md §13): both paths must produce
// bit-identical results for every kernel. Elementwise kernels (axpy, scale,
// the binary, relu, neg and sqrt runs, the weighted-average fold, the gemm4x8
// tile, and the row, pixel and window sums of the tensor kernels) keep each
// element's operation chain unchanged — vectorization only batches
// independent chains — so parity is structural; fill, im2col_row and
// spread_pool move bits without arithmetic. The reductions (sum_squares,
// sum_squared_diff) are lane-structured: four independent double
// accumulators over elements i ≡ 0..3 (mod 4), combined as
// ((l0 + l2) + (l1 + l3)) + tail, which is exactly the fold an AVX2 4x64-bit
// register reduction performs. The scalar oracle mirrors that structure, so
// the two paths agree bit-for-bit.
#pragma once

#include <cstdint>

namespace quickdrop::simd {

/// Which microkernel table to run. kAuto derives the choice from CPUID and
/// the QUICKDROP_SIMD environment variable ("off"/"scalar" forces the scalar
/// oracle; "avx2" requests AVX2 and falls back to scalar when unsupported).
enum class Dispatch : int { kAuto = 0, kScalar = 1, kAvx2 = 2 };

/// A k x k convolution over one [h][w] image plane with zero padding `pad`
/// and `stride`: output position (y, x) of kernel offset (ki, kj) reads
/// pixel (y * stride + ki - pad, x * stride + kj - pad), for (y, x) in the
/// [oh][ow] output grid; a pixel outside the plane reads as +0.
struct ConvGeometry {
  std::int64_t h, w, k, pad, stride, oh, ow;
};

/// The output positions o in [0, count) whose pixel o * stride + shift lies
/// in [0, size): the half-open range [lo, hi), empty when lo >= hi.
struct InRange {
  std::int64_t lo, hi;
};
inline InRange in_range(std::int64_t shift, std::int64_t stride, std::int64_t size,
                        std::int64_t count) {
  const std::int64_t lo = shift >= 0 ? 0 : (-shift + stride - 1) / stride;
  const std::int64_t hi = size - 1 - shift < 0 ? 0 : (size - 1 - shift) / stride + 1;
  return {lo < count ? lo : count, hi < count ? hi : count};
}

/// The elementwise binary operators of the tensor kernels; indexes the
/// `binary*` entries of a Kernels table.
enum BinaryOp : int { kAdd = 0, kSub = 1, kMul = 2, kDiv = 3, kNumBinaryOps = 4 };

/// One table of microkernels. All pointers are non-null in both tables; the
/// caller owns partitioning and passes disjoint [0, n) slices.
struct Kernels {
  const char* name;

  /// y[i] += a * x[i]
  void (*axpy)(float* y, const float* x, float a, std::int64_t n);
  /// y[i] *= a
  void (*scale)(float* y, float a, std::int64_t n);
  /// Lane-structured sum of (double)x[i] squared (see header comment).
  double (*sum_squares)(const float* x, std::int64_t n);
  /// Lane-structured sum of ((float)(a[i] - b[i])) squared: the float
  /// difference is formed first, then widened — matches l2_norm over
  /// subtract(a, b) bit-for-bit.
  double (*sum_squared_diff)(const float* a, const float* b, std::int64_t n);
  /// acc[i] += w * (double)x[i] — one client's fold into a double
  /// accumulator lane (nn/state_accumulator.h).
  void (*wavg_fold)(double* acc, const float* x, double w, std::int64_t n);
  /// o[i] = (float)acc[i] — round the finished accumulator to float.
  void (*wavg_store)(float* o, const double* acc, std::int64_t n);
  /// acc[i] += x[i] — one pairwise combine step of the accumulator lane merge
  /// (nn/state_accumulator.h). Pure double add, elementwise: parity is
  /// structural.
  void (*dadd)(double* acc, const double* x, std::int64_t n);
  /// o[i] = (float)(acc[i] * s) — scale the finished double accumulator and
  /// round to float in one pass (the streaming weighted-average finalize,
  /// where the weight normalizer is only known after the last fold).
  void (*dscale_store)(float* o, const double* acc, double s, std::int64_t n);
  /// The GEMM's 4x8 register tile (kernels.cpp), run over `strips` tiles
  /// side by side: tile s is c[r * ldc + 8s + j] for r < 4, j < 8, over kc
  /// steps p, with A(r, p) = a[r * a_row + p * a_k] and B(p, j) the packed
  /// panel b[s * 8 * kc + p * 8 + j]. Each element's accumulator starts from
  /// c (load) or from +0 (!load); every group of four p adds
  /// ((a0*b0 + a1*b1) + a2*b2) + a3*b3 to it, and the kc % 4 tail adds a*b
  /// one p at a time. Mul-then-add, no FMA.
  void (*gemm4x8)(float* c, std::int64_t ldc, const float* a, std::int64_t a_row,
                  std::int64_t a_k, const float* b, std::int64_t kc, std::int64_t strips,
                  bool load);
  /// o[i] = a[i] op b[i], one entry per BinaryOp. o may be a or b itself
  /// (an exact alias, not a partial overlap).
  void (*binary[kNumBinaryOps])(float* o, const float* a, const float* b, std::int64_t n);
  /// o[i] = a[i] op b — a run against one right-hand scalar.
  void (*binary_rs[kNumBinaryOps])(float* o, const float* a, float b, std::int64_t n);
  /// o[i] = a op b[i] — one left-hand scalar against a run.
  void (*binary_ls[kNumBinaryOps])(float* o, float a, const float* b, std::int64_t n);
  /// o[i] = a[i] > 0 ? a[i] : 0 (NaN and -0 map to +0).
  void (*relu)(float* o, const float* a, std::int64_t n);
  /// o[i] = a[i] > 0 ? 1 : 0 — the ReLU mask.
  void (*relu_mask)(float* o, const float* a, std::int64_t n);
  /// o[i] = -a[i] as an exact sign-bit flip: zeros, infinities, subnormals
  /// and NaN payloads keep every other bit.
  void (*neg)(float* o, const float* a, std::int64_t n);
  /// o[i] = sqrt(a[i]). IEEE square root is correctly rounded, so one
  /// instruction per lane gives the scalar call's bits.
  void (*sqrt)(float* o, const float* a, std::int64_t n);
  /// o[i] = v: the broadcast fill.
  void (*fill)(float* o, float v, std::int64_t n);
  /// acc[g] += rows[g][i] for g < 8, one i at a time in increasing order:
  /// eight independent serial chains, each the left-to-right sum of its run.
  void (*sum_rows8)(float* acc, const float* const* rows, std::int64_t n);
  /// One im2col output row: kernel offset (ki, kj) of `images` image planes,
  /// the first at x and each next one `image_stride` floats on. Image i
  /// fills o[i * oh * ow, (i + 1) * oh * ow) with its [oh][ow] grid of the
  /// pixels that offset reads, zero padding included.
  void (*im2col_row)(float* o, const float* x, std::int64_t images, std::int64_t image_stride,
                     const ConvGeometry& g, std::int64_t ki, std::int64_t kj);
  /// col2im of one image plane o [h][w]: each pixel is +0 plus the column
  /// values that land on it, added kernel offset by kernel offset in
  /// row-major (ki, kj) order. Offset (ki, kj)'s [oh][ow] grid starts at
  /// cols + (ki * k + kj) * offset_stride.
  void (*col2im_plane)(float* o, const float* cols, std::int64_t offset_stride,
                       const ConvGeometry& g);
  /// o[r * ow + j] = the k x k window of x at rows r*k .. r*k + k - 1 (each
  /// ow * k wide) and columns j*k .. j*k + k - 1, summed from +0 in
  /// row-major order, for r < rows, j < ow.
  void (*sum_pool)(float* o, const float* x, std::int64_t rows, std::int64_t ow,
                   std::int64_t k);
  /// The adjoint copy: g[r * ow + j] written over that same window of o.
  void (*spread_pool)(float* o, const float* g, std::int64_t rows, std::int64_t ow,
                      std::int64_t k);
};

/// The hand-tiled scalar oracle. Always available.
const Kernels& scalar_kernels();

/// The AVX2 table when this binary was built with AVX2 support; the scalar
/// table otherwise. Callers gate on avx2_compiled() && avx2_supported().
const Kernels& avx2_kernels();

/// The table selected at startup (or by force_dispatch). All state/tensor
/// kernels route through this.
const Kernels& active();

/// True when the AVX2 translation unit was compiled into this binary.
bool avx2_compiled();
/// True when the running CPU reports AVX2.
bool avx2_supported();

/// Test hook: override the dispatch decision. kAuto re-derives the startup
/// choice (CPUID + QUICKDROP_SIMD). Not meant for concurrent use with
/// in-flight kernels; tests switch between whole runs.
void force_dispatch(Dispatch d);
/// The dispatch the active table was selected under.
Dispatch active_dispatch();

}  // namespace quickdrop::simd
