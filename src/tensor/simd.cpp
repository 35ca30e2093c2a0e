#include "tensor/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace quickdrop::simd {
namespace {

// ---- Hand-tiled scalar oracle -------------------------------------------
//
// The elementwise kernels are unrolled 4-wide purely for throughput; the
// per-element operation chain is the single expression in each body, so the
// tiling (and any auto-vectorization of it) cannot change result bits. The
// reductions carry the 4-lane structure that defines the contract.

void axpy_scalar(float* y, const float* x, float a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    y[i] += a * x[i];
    y[i + 1] += a * x[i + 1];
    y[i + 2] += a * x[i + 2];
    y[i + 3] += a * x[i + 3];
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void scale_scalar(float* y, float a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    y[i] *= a;
    y[i + 1] *= a;
    y[i + 2] *= a;
    y[i + 3] *= a;
  }
  for (; i < n; ++i) y[i] *= a;
}

// The four binary operators, spelled once; every binary run below applies
// exactly `apply(x, y)` per element.
struct AddOp {
  static float apply(float x, float y) { return x + y; }
};
struct SubOp {
  static float apply(float x, float y) { return x - y; }
};
struct MulOp {
  static float apply(float x, float y) { return x * y; }
};
struct DivOp {
  static float apply(float x, float y) { return x / y; }
};

template <typename Op>
void binary_scalar(float* o, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    o[i] = Op::apply(a[i], b[i]);
    o[i + 1] = Op::apply(a[i + 1], b[i + 1]);
    o[i + 2] = Op::apply(a[i + 2], b[i + 2]);
    o[i + 3] = Op::apply(a[i + 3], b[i + 3]);
  }
  for (; i < n; ++i) o[i] = Op::apply(a[i], b[i]);
}

template <typename Op>
void binary_rs_scalar(float* o, const float* a, float b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    o[i] = Op::apply(a[i], b);
    o[i + 1] = Op::apply(a[i + 1], b);
    o[i + 2] = Op::apply(a[i + 2], b);
    o[i + 3] = Op::apply(a[i + 3], b);
  }
  for (; i < n; ++i) o[i] = Op::apply(a[i], b);
}

template <typename Op>
void binary_ls_scalar(float* o, float a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    o[i] = Op::apply(a, b[i]);
    o[i + 1] = Op::apply(a, b[i + 1]);
    o[i + 2] = Op::apply(a, b[i + 2]);
    o[i + 3] = Op::apply(a, b[i + 3]);
  }
  for (; i < n; ++i) o[i] = Op::apply(a, b[i]);
}

void relu_scalar(float* o, const float* a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

void relu_mask_scalar(float* o, const float* a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = a[i] > 0.0f ? 1.0f : 0.0f;
}

void transpose8x8_scalar(float* dst, std::int64_t ldd, const float* src, std::int64_t lds) {
  for (std::int64_t r = 0; r < 8; ++r) {
    for (std::int64_t c = 0; c < 8; ++c) dst[c * ldd + r] = src[r * lds + c];
  }
}

double sum_squares_scalar(const float* x, std::int64_t n) {
  // Four independent accumulator lanes over i ≡ 0..3 (mod 4), combined as
  // ((l0 + l2) + (l1 + l3)) + tail — the AVX2 register reduction performs
  // exactly this fold, so both paths agree bit-for-bit.
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double v0 = x[i], v1 = x[i + 1], v2 = x[i + 2], v3 = x[i + 3];
    l0 += v0 * v0;
    l1 += v1 * v1;
    l2 += v2 * v2;
    l3 += v3 * v3;
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double v = x[i];
    tail += v * v;
  }
  return ((l0 + l2) + (l1 + l3)) + tail;
}

double sum_squared_diff_scalar(const float* a, const float* b, std::int64_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // The float difference is formed first, then widened (matches l2_norm
    // over subtract(a, b) bit-for-bit).
    const double v0 = static_cast<float>(a[i] - b[i]);
    const double v1 = static_cast<float>(a[i + 1] - b[i + 1]);
    const double v2 = static_cast<float>(a[i + 2] - b[i + 2]);
    const double v3 = static_cast<float>(a[i + 3] - b[i + 3]);
    l0 += v0 * v0;
    l1 += v1 * v1;
    l2 += v2 * v2;
    l3 += v3 * v3;
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double v = static_cast<float>(a[i] - b[i]);
    tail += v * v;
  }
  return ((l0 + l2) + (l1 + l3)) + tail;
}

void wavg_fold_scalar(double* acc, const float* x, double w, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc[i] += w * static_cast<double>(x[i]);
    acc[i + 1] += w * static_cast<double>(x[i + 1]);
    acc[i + 2] += w * static_cast<double>(x[i + 2]);
    acc[i + 3] += w * static_cast<double>(x[i + 3]);
  }
  for (; i < n; ++i) acc[i] += w * static_cast<double>(x[i]);
}

void wavg_store_scalar(float* o, const double* acc, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = static_cast<float>(acc[i]);
}

void dadd_scalar(double* acc, const double* x, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc[i] += x[i];
    acc[i + 1] += x[i + 1];
    acc[i + 2] += x[i + 2];
    acc[i + 3] += x[i + 3];
  }
  for (; i < n; ++i) acc[i] += x[i];
}

void dscale_store_scalar(float* o, const double* acc, double s, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = static_cast<float>(acc[i] * s);
}

void matmul_tile4_scalar(float* c, float a0, float a1, float a2, float a3, const float* b0,
                         const float* b1, const float* b2, const float* b3, std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) {
    c[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
  }
}

constexpr Kernels kScalarKernels = {
    .name = "scalar",
    .axpy = axpy_scalar,
    .scale = scale_scalar,
    .sum_squares = sum_squares_scalar,
    .sum_squared_diff = sum_squared_diff_scalar,
    .wavg_fold = wavg_fold_scalar,
    .wavg_store = wavg_store_scalar,
    .dadd = dadd_scalar,
    .dscale_store = dscale_store_scalar,
    .matmul_tile4 = matmul_tile4_scalar,
    .binary = {binary_scalar<AddOp>, binary_scalar<SubOp>, binary_scalar<MulOp>,
               binary_scalar<DivOp>},
    .binary_rs = {binary_rs_scalar<AddOp>, binary_rs_scalar<SubOp>, binary_rs_scalar<MulOp>,
                  binary_rs_scalar<DivOp>},
    .binary_ls = {binary_ls_scalar<AddOp>, binary_ls_scalar<SubOp>, binary_ls_scalar<MulOp>,
                  binary_ls_scalar<DivOp>},
    .relu = relu_scalar,
    .relu_mask = relu_mask_scalar,
    .transpose8x8 = transpose8x8_scalar,
};

// ---- Dispatch ------------------------------------------------------------

Dispatch env_dispatch() {
  const char* env = std::getenv("QUICKDROP_SIMD");
  if (env == nullptr) return Dispatch::kAuto;
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0) return Dispatch::kScalar;
  if (std::strcmp(env, "avx2") == 0) return Dispatch::kAvx2;
  return Dispatch::kAuto;
}

const Kernels* resolve(Dispatch d) {
  if (d == Dispatch::kScalar) return &kScalarKernels;
  if (d == Dispatch::kAvx2) return avx2_compiled() && avx2_supported() ? &avx2_kernels() : &kScalarKernels;
  // kAuto: honor the environment escape hatch, then CPUID.
  const Dispatch env = env_dispatch();
  if (env != Dispatch::kAuto) return resolve(env);
  return avx2_compiled() && avx2_supported() ? &avx2_kernels() : &kScalarKernels;
}

// Selected once at startup (first kernel call) and then immutable, except via
// the force_dispatch test hook; atomic so TSan-clean under concurrent reads.
// NOLINTNEXTLINE(qdlint-conc-static-local) — write-once dispatch table, atomic access only
std::atomic<const Kernels*> g_active{nullptr};

}  // namespace

const Kernels& scalar_kernels() { return kScalarKernels; }

bool avx2_supported() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const Kernels& active() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    // Idempotent: every racing initializer resolves the same table.
    k = resolve(Dispatch::kAuto);
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

void force_dispatch(Dispatch d) { g_active.store(resolve(d), std::memory_order_release); }

Dispatch active_dispatch() {
  return &active() == &kScalarKernels ? Dispatch::kScalar : Dispatch::kAvx2;
}

}  // namespace quickdrop::simd
