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
// the binary and relu runs, the weighted-average fold, matmul_tile4) keep
// each element's operation chain unchanged — vectorization only batches
// independent chains — and transpose8x8 only moves bits, so parity is
// structural. The reductions (sum_squares, sum_squared_diff) are
// lane-structured: four independent double accumulators over elements
// i ≡ 0..3 (mod 4), combined as ((l0 + l2) + (l1 + l3)) + tail, which is
// exactly the fold an AVX2 4x64-bit register reduction performs. The scalar
// oracle mirrors that structure, so the two paths agree bit-for-bit.
#pragma once

#include <cstdint>

namespace quickdrop::simd {

/// Which microkernel table to run. kAuto derives the choice from CPUID and
/// the QUICKDROP_SIMD environment variable ("off"/"scalar" forces the scalar
/// oracle; "avx2" requests AVX2 and falls back to scalar when unsupported).
enum class Dispatch : int { kAuto = 0, kScalar = 1, kAvx2 = 2 };

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
  /// c[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j], left-associated,
  /// mul-then-add (no FMA) — the blocked matmul's 4-way kk inner tile.
  void (*matmul_tile4)(float* c, float a0, float a1, float a2, float a3, const float* b0,
                       const float* b1, const float* b2, const float* b3, std::int64_t n);
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
  /// dst[c * ldd + r] = src[r * lds + c] for r, c in [0, 8): one 8x8 tile
  /// of a transpose. Pure data movement: parity is structural.
  void (*transpose8x8)(float* dst, std::int64_t ldd, const float* src, std::int64_t lds);
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
