#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "tensor/simd.h"
#include "util/thread_pool.h"

// Parallelization strategy (see DESIGN.md "Threading model"): every kernel
// partitions its *output* so each element is written by exactly one chunk,
// and the per-element operation order is fixed by the element itself, never
// by the chunk layout. Results are therefore bit-identical at any thread
// count, including the serial fallback at 1 thread.
//
// Outputs: the pure maps and gathers (binary_op, map_runs, gather, im2col,
// spread_pool2d) and the kernels that start each sum from +0 in a register
// (the packed GEMM, col2im, sum_pool2d) write every output element, so they
// start from an uninitialized tensor; reduce_sum_to, whose kept-innermost
// rows accumulate in place, starts from zeros.
//
// Contiguous runs: the broadcast, gather and reduction kernels first
// coalesce their index space (merge adjacent dims every operand walks
// contiguously, drop extent-1 dims), then run an outer odometer around a
// tight innermost run handed to the dispatched simd::Kernels entries.
// Coalescing only regroups the lattice: every output element still reads
// the same inputs and applies the same operation chain in the same order.
namespace quickdrop::kernels {
namespace {

/// Most dims a walk holds. Coalescing never raises the rank, so this bounds
/// the rank of the tensors the kernels accept.
constexpr int kMaxDims = 16;

/// A row-major index lattice (dims outer to inner) walked by `Ops` operands,
/// each with its own element stride per dim (0 where it is broadcast).
/// Fixed-size, so building one allocates nothing; only dims below `rank`
/// are ever set or read, so the arrays start unset.
template <int Ops>
struct Walk {
  int rank = 0;
  std::int64_t extent[kMaxDims];
  std::int64_t stride[Ops][kMaxDims];
};

/// A walk over the lattice of `shape`, strides still unset.
template <int Ops>
Walk<Ops> walk_over(const Shape& shape) {
  if (shape.size() > static_cast<std::size_t>(kMaxDims)) {
    throw std::invalid_argument("kernels: rank " + std::to_string(shape.size()) +
                                " exceeds the supported " + std::to_string(kMaxDims));
  }
  Walk<Ops> w;
  w.rank = static_cast<int>(shape.size());
  for (int d = 0; d < w.rank; ++d) w.extent[d] = shape[static_cast<std::size_t>(d)];
  return w;
}

/// Sets operand `op` to walk a contiguous tensor of shape `in`, aligned to
/// the lattice's trailing dims, with stride 0 wherever `in` has extent 1.
template <int Ops>
void set_broadcast_strides(Walk<Ops>& w, int op, const Shape& in) {
  const int off = w.rank - static_cast<int>(in.size());
  std::int64_t acc = 1;
  for (int d = w.rank - 1; d >= 0; --d) {
    const std::int64_t e = d < off ? 1 : in[static_cast<std::size_t>(d - off)];
    w.stride[op][d] = e == 1 ? 0 : acc;
    acc *= e;
  }
}

/// Drops extent-1 dims and merges each dim into its outer neighbour when
/// every operand steps the outer one by exactly the inner one's full span.
/// The row-major order of lattice points, and each operand's offset at each
/// point, are unchanged. A lattice that collapses entirely becomes one dim
/// of extent 1 (stride 1), so callers always see rank >= 1.
template <int Ops>
void coalesce(Walk<Ops>& w) {
  int r = 0;
  for (int d = 0; d < w.rank; ++d) {
    if (w.extent[d] == 1) continue;
    bool merge = r > 0;
    for (int k = 0; k < Ops && merge; ++k) {
      merge = w.stride[k][r - 1] == w.stride[k][d] * w.extent[d];
    }
    if (merge) {
      w.extent[r - 1] *= w.extent[d];
      for (int k = 0; k < Ops; ++k) w.stride[k][r - 1] = w.stride[k][d];
      continue;
    }
    w.extent[r] = w.extent[d];
    for (int k = 0; k < Ops; ++k) w.stride[k][r] = w.stride[k][d];
    ++r;
  }
  if (r == 0) {
    w.extent[0] = 1;
    for (int k = 0; k < Ops; ++k) w.stride[k][0] = 1;
    r = 1;
  }
  w.rank = r;
}

/// Visits lattice positions [lo, hi) of a coalesced walk in increasing
/// order, one stretch of the innermost dim at a time: run(flat, len, off)
/// gets the row-major position of the stretch's first point and each
/// operand's offset there.
template <int Ops, typename Run>
void for_each_run(const Walk<Ops>& w, std::int64_t lo, std::int64_t hi, Run&& run) {
  std::int64_t idx[kMaxDims] = {};
  std::int64_t off[Ops] = {};
  std::int64_t rem = lo;
  for (int d = w.rank - 1; d >= 0; --d) {
    idx[d] = rem % w.extent[d];
    rem /= w.extent[d];
    for (int k = 0; k < Ops; ++k) off[k] += idx[d] * w.stride[k][d];
  }
  const int inner = w.rank - 1;
  const std::int64_t n = w.extent[inner];
  std::int64_t len = std::min(n - idx[inner], hi - lo);
  run(lo, len, static_cast<const std::int64_t*>(off));
  // Only the first stretch can start inside the innermost dim; every later
  // one starts at inner index 0.
  for (int k = 0; k < Ops; ++k) off[k] -= idx[inner] * w.stride[k][inner];
  for (std::int64_t flat = lo + len; flat < hi; flat += len) {
    // Step the odometer over the outer dims.
    for (int d = inner - 1; d >= 0; --d) {
      ++idx[d];
      for (int k = 0; k < Ops; ++k) off[k] += w.stride[k][d];
      if (idx[d] < w.extent[d]) break;
      for (int k = 0; k < Ops; ++k) off[k] -= w.stride[k][d] * w.extent[d];
      idx[d] = 0;
    }
    len = std::min(n, hi - flat);
    run(flat, len, static_cast<const std::int64_t*>(off));
  }
}

/// Gathers out[flat] = src[offset(flat)] along a one-operand walk of
/// `out_shape`. A pure per-element map: bit-stable under any partition.
Tensor gather(const Tensor& a, Walk<1> w, const Shape& out_shape) {
  Tensor out = Tensor::uninitialized(out_shape);
  if (out.numel() == 0) return out;
  coalesce(w);
  const std::int64_t s = w.stride[0][w.rank - 1];
  const auto fill = simd::active().fill;
  const float* da = a.data().data();
  float* od = out.data().data();
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each chunk writes its own disjoint od[lo,hi) slice)
      0, out.numel(), grain_for(2), [&](std::int64_t lo, std::int64_t hi) {
        // qdlint: shared-write(the runs tile this chunk's od[lo,hi) slice)
        for_each_run(w, lo, hi, [&](std::int64_t flat, std::int64_t len, const std::int64_t* off) {
          float* o = od + flat;
          const float* x = da + off[0];
          if (s == 1) {
            std::copy(x, x + len, o);
          } else if (s == 0) {
            fill(o, *x, len);
          } else {
            for (std::int64_t i = 0; i < len; ++i) o[i] = x[i * s];
          }
        });
      });
  return out;
}

Tensor binary_op(const Tensor& a, const Tensor& b, simd::BinaryOp op, const char* name) {
  const auto& kern = simd::active();
  const float* da = a.data().data();
  const float* db = b.data().data();
  if (a.shape() == b.shape()) {  // one flat run: no walk to build
    Tensor out = Tensor::uninitialized(a.shape());
    float* od = out.data().data();
    const auto vv = kern.binary[op];
    ThreadPool::global().parallel_for(
        // qdlint: shared-write(each chunk writes its own disjoint od[lo,hi) slice)
        0, out.numel(), grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
          vv(od + lo, da + lo, db + lo, hi - lo);
        });
    return out;
  }
  Shape out_shape;
  try {
    out_shape = broadcast_shapes(a.shape(), b.shape());
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(std::string(name) + ": cannot broadcast " +
                                shape_to_string(a.shape()) + " with " +
                                shape_to_string(b.shape()));
  }
  Tensor out = Tensor::uninitialized(out_shape);
  if (out.numel() == 0) return out;
  float* od = out.data().data();
  auto w = walk_over<2>(out_shape);
  set_broadcast_strides(w, 0, a.shape());
  set_broadcast_strides(w, 1, b.shape());
  coalesce(w);
  // The innermost dim has extent > 1 (or is the single collapsed point), so
  // at least one operand walks it; an operand that does has stride 1 there.
  // Hence three run shapes: both runs, a run against a right scalar, a left
  // scalar against a run.
  const std::int64_t sa = w.stride[0][w.rank - 1], sb = w.stride[1][w.rank - 1];
  const auto vv = kern.binary[op];
  const auto vs = kern.binary_rs[op];
  const auto sv = kern.binary_ls[op];
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each chunk writes its own disjoint od[lo,hi) slice)
      0, out.numel(), grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        // qdlint: shared-write(the runs tile this chunk's od[lo,hi) slice)
        for_each_run(w, lo, hi, [&](std::int64_t flat, std::int64_t len, const std::int64_t* off) {
          if (sa == sb) {
            vv(od + flat, da + off[0], db + off[1], len);
          } else if (sb == 0) {
            vs(od + flat, da + off[0], db[off[1]], len);
          } else {
            sv(od + flat, da[off[0]], db + off[1], len);
          }
        });
      });
  return out;
}

/// Applies run(o, x, n) over disjoint slices of a's flat buffer.
template <typename Run>
Tensor map_runs(const Tensor& a, Run run) {
  Tensor out = Tensor::uninitialized(a.shape());
  const float* da = a.data().data();
  float* od = out.data().data();
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each chunk writes its own disjoint od[lo,hi) slice)
      0, out.numel(), grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        run(od + lo, da + lo, hi - lo);
      });
  return out;
}

template <typename F>
Tensor unary_op(const Tensor& a, F f) {
  return map_runs(a, [f](float* o, const float* x, std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) o[i] = f(x[i]);
  });
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) { return binary_op(a, b, simd::kAdd, "add"); }
Tensor sub(const Tensor& a, const Tensor& b) { return binary_op(a, b, simd::kSub, "sub"); }
Tensor mul(const Tensor& a, const Tensor& b) { return binary_op(a, b, simd::kMul, "mul"); }
Tensor div(const Tensor& a, const Tensor& b) { return binary_op(a, b, simd::kDiv, "div"); }

Tensor neg(const Tensor& a) { return map_runs(a, simd::active().neg); }
Tensor exp(const Tensor& a) {
  return unary_op(a, [](float x) { return std::exp(x); });
}
Tensor log(const Tensor& a) {
  return unary_op(a, [](float x) { return std::log(x); });
}
Tensor sqrt(const Tensor& a) { return map_runs(a, simd::active().sqrt); }
Tensor relu(const Tensor& a) { return map_runs(a, simd::active().relu); }
Tensor gt_zero_mask(const Tensor& a) { return map_runs(a, simd::active().relu_mask); }

Tensor add_scalar(const Tensor& a, float s) {
  const auto run = simd::active().binary_rs[simd::kAdd];
  return map_runs(a, [run, s](float* o, const float* x, std::int64_t n) { run(o, x, s, n); });
}
Tensor mul_scalar(const Tensor& a, float s) {
  const auto run = simd::active().binary_rs[simd::kMul];
  return map_runs(a, [run, s](float* o, const float* x, std::int64_t n) { run(o, x, s, n); });
}

namespace {

// The packed GEMM behind matmul, matmul_nt and matmul_tn. Output element
// (i, j) has one fixed chain: it starts from +0; each group of four p adds
// ((a0*b0 + a1*b1) + a2*b2) + a3*b3 to the accumulator; the k % 4 tail adds
// a*b one p at a time (a from A, b from B). Every trained checkpoint's bits
// depend on this chain (tests/core/trained_bits_pin_test.cpp), and
// tests/tensor/kernel_oracle.cpp writes it as scalar loops. kGemmKc is a
// multiple of 4, so blocking over k only parks the accumulator in the
// output between blocks and never moves a group boundary; how an operand is
// stored only changes where the 4x8 tile reads it. So results are the same
// for all three products on transposed operands, across dispatch tables and
// at any thread count.
//
// The tile broadcasts A values one at a time, so it reads A, stored either
// way, in place through two strides; only a ragged edge of fewer than four
// rows is packed, into a zero-padded panel. It reads eight consecutive B
// values per p, so each task packs its B or B^T block into [kc][8] panels
// (zero-padded past n) once per k-block. Packing also keeps the tile off
// rows of B a multiple of 4 KiB apart, which would all share one cache set.
constexpr std::int64_t kGemmKc = 256;  // k per block; a multiple of 4
constexpr std::int64_t kGemmMc = 64;   // output rows per task; a multiple of 4
constexpr std::int64_t kGemmNc = 256;  // output columns per task; a multiple of 8

/// One factor of a product: logical element (r, c) is data[r * ld + c], or
/// data[c * ld + r] when the factor is stored transposed.
struct Operand {
  const float* data;
  std::int64_t ld;
  bool trans;
};

/// Packs rows [i, i + rows) x k-range [p0, p0 + kc) of A, rows < 4, into a
/// [kc][4] panel whose missing rows are zeros.
void pack_a_edge(const Operand& a, std::int64_t i, std::int64_t rows, std::int64_t p0,
                 std::int64_t kc, float* dst) {
  std::fill(dst, dst + 4 * kc, 0.0f);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t p = 0; p < kc; ++p) {
      dst[p * 4 + r] = a.trans ? a.data[(p0 + p) * a.ld + i + r] : a.data[(i + r) * a.ld + p0 + p];
    }
  }
}

/// Packs k-range [p0, p0 + kc) x columns [j, j + cols) of B, cols <= 8, into
/// a [kc][8] panel whose missing columns are zeros.
void pack_b(const Operand& b, std::int64_t j, std::int64_t cols, std::int64_t p0,
            std::int64_t kc, float* dst) {
  if (cols < 8) std::fill(dst, dst + 8 * kc, 0.0f);
  if (!b.trans) {
    const float* src = b.data + p0 * b.ld + j;
    for (std::int64_t p = 0; p < kc; ++p, src += b.ld) {
      if (cols == 8) {
        std::memcpy(dst + p * 8, src, 8 * sizeof(float));
      } else {
        std::copy(src, src + cols, dst + p * 8);
      }
    }
    return;
  }
  if (cols < 8) {
    for (std::int64_t c = 0; c < cols; ++c) {
      const float* src = b.data + (j + c) * b.ld + p0;
      for (std::int64_t p = 0; p < kc; ++p) dst[p * 8 + c] = src[p];
    }
    return;
  }
  // A full B^T strip: eight source rows read side by side, each panel row
  // written whole.
  const float* src[8];
  for (std::int64_t c = 0; c < 8; ++c) src[c] = b.data + (j + c) * b.ld + p0;
  for (std::int64_t p = 0; p < kc; ++p) {
    float* d = dst + p * 8;
    d[0] = src[0][p];
    d[1] = src[1][p];
    d[2] = src[2][p];
    d[3] = src[3][p];
    d[4] = src[4][p];
    d[5] = src[5][p];
    d[6] = src[6][p];
    d[7] = src[7][p];
  }
}

/// c [m,n] = A [m,k] x B [k,n]. Tasks are kGemmMc x kGemmNc output blocks,
/// each with its thread's own panels; every output element is written by one
/// task, so c needs no zero-fill.
Tensor gemm(const Operand& a, const Operand& b, std::int64_t m, std::int64_t n, std::int64_t k) {
  if (k == 0) return Tensor({m, n});  // an empty sum is +0
  Tensor out = Tensor::uninitialized({m, n});
  if (m == 0 || n == 0) return out;
  float* c = out.data().data();
  const auto tile = simd::active().gemm4x8;
  // A(r, p) sits at a_row * r + a_k * p from the block's first element.
  const std::int64_t a_row = a.trans ? 1 : a.ld, a_k = a.trans ? a.ld : 1;
  const std::int64_t row_blocks = (m + kGemmMc - 1) / kGemmMc;
  const std::int64_t col_blocks = (n + kGemmNc - 1) / kGemmNc;
  const std::int64_t task_cost = 2 * std::min(m, kGemmMc) * std::min(n, kGemmNc) * k;
  // Panel sizes for this product's largest block: its B strips (columns
  // padded to a multiple of 8), one ragged A strip, and a 4-row output
  // panel for a ragged row strip.
  const std::int64_t max_kc = std::min(k, kGemmKc);
  const std::int64_t max_nc = (std::min(n, kGemmNc) + 7) / 8 * 8;
  const auto panel_floats = static_cast<std::size_t>((max_nc + 4) * max_kc + 4 * max_nc);
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each task owns its own output block of c; a and b are read-only)
      0, row_blocks * col_blocks, grain_for(task_cost), [&](std::int64_t t0, std::int64_t t1) {
        // Per-thread panels; they only grow, to the largest product the
        // thread has run.
        thread_local std::vector<float> panels;
        if (panels.size() < panel_floats) panels.resize(panel_floats);
        float* const b_panels = panels.data();
        float* const a_edge = b_panels + max_nc * max_kc;
        float* const row_scratch = a_edge + 4 * max_kc;
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t i0 = t / col_blocks * kGemmMc, j0 = t % col_blocks * kGemmNc;
          const std::int64_t i1 = std::min(m, i0 + kGemmMc), j1 = std::min(n, j0 + kGemmNc);
          const std::int64_t strips = (j1 - j0) / 8, tail = (j1 - j0) % 8;
          for (std::int64_t p0 = 0; p0 < k; p0 += kGemmKc) {
            const std::int64_t kc = std::min(kGemmKc, k - p0);
            const bool load = p0 > 0;
            for (std::int64_t j = j0; j < j1; j += 8) {
              pack_b(b, j, std::min<std::int64_t>(8, j1 - j), p0, kc, b_panels + (j - j0) * kc);
            }
            // One row strip at a time across the block's column strips: each
            // output row is written left to right.
            for (std::int64_t i = i0; i < i1; i += 4) {
              const std::int64_t rows = std::min<std::int64_t>(4, i1 - i);
              const float* ap = a.data + i * a_row + p0 * a_k;
              std::int64_t ar = a_row, ak = a_k;
              if (rows < 4) {
                pack_a_edge(a, i, rows, p0, kc, a_edge);
                ap = a_edge;
                ar = 1;
                ak = 4;
              }
              float* ct = c + i * n + j0;
              if (rows == 4) {
                tile(ct, n, ap, ar, ak, b_panels, kc, strips, load);
              } else if (strips > 0) {
                // A ragged row strip runs on a 4-row scratch panel; only
                // its real rows are read and written back.
                const std::int64_t w = 8 * strips;
                for (std::int64_t r = 0; r < rows && load; ++r) {
                  std::copy(ct + r * n, ct + r * n + w, row_scratch + r * max_nc);
                }
                tile(row_scratch, max_nc, ap, ar, ak, b_panels, kc, strips, load);
                for (std::int64_t r = 0; r < rows; ++r) {
                  std::copy(row_scratch + r * max_nc, row_scratch + r * max_nc + w, ct + r * n);
                }
              }
              if (tail > 0) {
                // A ragged column strip runs on a 4x8 scratch tile.
                float scratch[32] = {};
                float* cc = ct + 8 * strips;
                for (std::int64_t r = 0; r < rows && load; ++r) {
                  std::copy(cc + r * n, cc + r * n + tail, scratch + r * 8);
                }
                tile(scratch, 8, ap, ar, ak, b_panels + strips * 8 * kc, kc, 1, load);
                for (std::int64_t r = 0; r < rows; ++r) {
                  std::copy(scratch + r * 8, scratch + r * 8 + tail, cc + r * n);
                }
              }
            }
          }
        }
      });
  return out;
}

void check_product(bool ok, const char* name, const Tensor& a, const Tensor& b) {
  if (!ok) {
    throw std::invalid_argument(std::string(name) + ": bad shapes " + shape_to_string(a.shape()) +
                                " x " + shape_to_string(b.shape()));
  }
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_product(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(0), "matmul", a, b);
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  return gemm({a.data().data(), k, false}, {b.data().data(), n, false}, m, n, k);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check_product(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(1), "matmul_nt", a, b);
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  return gemm({a.data().data(), k, false}, {b.data().data(), k, true}, m, n, k);
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check_product(a.rank() == 2 && b.rank() == 2 && a.dim(0) == b.dim(0), "matmul_tn", a, b);
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  return gemm({a.data().data(), m, true}, {b.data().data(), n, false}, m, n, k);
}

Tensor permute(const Tensor& a, const std::vector<int>& dims) {
  const int rank = a.rank();
  if (static_cast<int>(dims.size()) != rank) {
    throw std::invalid_argument("permute: dims size mismatch");
  }
  std::vector<bool> seen(static_cast<std::size_t>(rank), false);
  Shape out_shape(static_cast<std::size_t>(rank));
  for (int i = 0; i < rank; ++i) {
    const int d = dims[static_cast<std::size_t>(i)];
    if (d < 0 || d >= rank || seen[static_cast<std::size_t>(d)]) {
      throw std::invalid_argument("permute: dims is not a permutation");
    }
    seen[static_cast<std::size_t>(d)] = true;
    out_shape[static_cast<std::size_t>(i)] = a.shape()[static_cast<std::size_t>(d)];
  }
  auto w = walk_over<1>(out_shape);
  std::int64_t in_strides[kMaxDims] = {};
  std::int64_t acc = 1;
  for (int d = rank - 1; d >= 0; --d) {
    in_strides[d] = acc;
    acc *= a.shape()[static_cast<std::size_t>(d)];
  }
  for (int i = 0; i < rank; ++i) w.stride[0][i] = in_strides[dims[static_cast<std::size_t>(i)]];
  return gather(a, w, out_shape);
}

namespace {

/// A reduction's coalesced index space, split into the kept dims (the
/// output lattice) and the reduced dims, each with its input strides and
/// in input order. `count` is the size of the reduced sub-lattice.
struct Reduction {
  Walk<1> kept, red;
  std::int64_t count = 0;
};

/// Sums eight outputs at once: out[g] = the sum of x[base[g] + r] over the
/// reduced lattice (innermost dim contiguous), r in increasing order,
/// starting from +0, for g < count. The eight chains are independent lanes
/// of the dispatched sum_rows8, one call per run of the reduced lattice; a
/// group of fewer than eight outputs repeats its last row in the spare lanes
/// and keeps only its own.
void sum_group(decltype(simd::Kernels::sum_rows8) sum_rows8, const float* x,
               const std::int64_t* base, int count, const Walk<1>& red, float* out) {
  float acc[8] = {};
  const float* rows[8];
  const std::int64_t run = red.extent[red.rank - 1];
  std::int64_t idx[kMaxDims] = {};
  std::int64_t roff = 0;
  for (;;) {
    for (int g = 0; g < 8; ++g) rows[g] = x + base[g < count ? g : count - 1] + roff;
    sum_rows8(acc, rows, run);
    int d = red.rank - 2;
    for (; d >= 0; --d) {
      ++idx[d];
      roff += red.stride[0][d];
      if (idx[d] < red.extent[d]) break;
      roff -= red.stride[0][d] * red.extent[d];
      idx[d] = 0;
    }
    if (d < 0) break;
  }
  std::copy(acc, acc + count, out);
}

/// Outputs [lo, hi) of a reduction whose innermost dim is reduced: each
/// output sums contiguous input runs, eight consecutive outputs at a time.
void reduce_inner_runs(const Reduction& r, const float* x, float* out, std::int64_t lo,
                       std::int64_t hi) {
  const auto sum_rows8 = simd::active().sum_rows8;
  std::int64_t bases[8];
  int filled = 0;
  std::int64_t first = lo;
  const std::int64_t ks = r.kept.stride[0][r.kept.rank - 1];
  for_each_run(r.kept, lo, hi, [&](std::int64_t flat, std::int64_t len, const std::int64_t* base) {
    for (std::int64_t t = 0; t < len; ++t) {
      if (filled == 0) first = flat + t;
      bases[filled++] = base[0] + t * ks;
      if (filled == 8) {
        sum_group(sum_rows8, x, bases, 8, r.red, out + first);
        filled = 0;
      }
    }
  });
  if (filled > 0) sum_group(sum_rows8, x, bases, filled, r.red, out + first);
}

/// Outputs [lo, hi) of a reduction whose innermost dim is kept (e.g. bias
/// grads [N,C] -> [C]): output rows and input rows are both contiguous, so
/// whole input rows are added into the zeroed output row, one reduced point
/// at a time in increasing order — each element gets the chain of a scalar
/// sum.
void reduce_into_rows(const Reduction& r, const float* x, float* out, std::int64_t lo,
                      std::int64_t hi) {
  const auto add_run = simd::active().binary[simd::kAdd];
  const std::int64_t rs = r.red.stride[0][r.red.rank - 1];
  for_each_run(r.kept, lo, hi, [&](std::int64_t flat, std::int64_t len, const std::int64_t* base) {
    float* o = out + flat;
    for_each_run(r.red, 0, r.count, [&](std::int64_t, std::int64_t rlen, const std::int64_t* roff) {
      const float* row = x + base[0] + roff[0];
      for (std::int64_t i = 0; i < rlen; ++i) add_run(o, o, row + i * rs, len);
    });
  });
}

}  // namespace

Tensor reduce_sum_to(const Tensor& a, const Shape& target_shape) {
  if (a.shape() == target_shape) return a.clone();
  if (!broadcastable_to(target_shape, a.shape())) {
    throw std::invalid_argument("reduce_sum_to: " + shape_to_string(target_shape) +
                                " does not broadcast to " + shape_to_string(a.shape()));
  }
  Tensor out(target_shape);
  if (out.numel() == 0 || a.numel() == 0) return out;  // an empty sum is +0
  const float* da = a.data().data();
  float* od = out.data().data();
  Reduction r;
  r.count = a.numel() / out.numel();
  if (r.count == 1) {
    // Only extent-1 dims differ: the same elements in the same order.
    std::copy(da, da + a.numel(), od);
    return out;
  }
  // Walk the input lattice with the input (operand 0) and the output
  // (operand 1, stride 0 on reduced dims), then split the coalesced dims.
  // Each output element sums its reduced sub-lattice in increasing
  // input-flat order — the per-element order of a serial streaming pass —
  // so partitioning over *output* elements is both race-free and bit-stable
  // at any thread count.
  auto w = walk_over<2>(a.shape());
  set_broadcast_strides(w, 0, a.shape());
  set_broadcast_strides(w, 1, target_shape);
  coalesce(w);
  for (int d = 0; d < w.rank; ++d) {
    Walk<1>& part = w.stride[1][d] != 0 ? r.kept : r.red;
    part.extent[part.rank] = w.extent[d];
    part.stride[0][part.rank] = w.stride[0][d];
    ++part.rank;
  }
  if (r.kept.rank == 0) {  // a full reduction: one output at base offset 0
    r.kept.rank = 1;
    r.kept.extent[0] = 1;
    r.kept.stride[0][0] = 0;
  }
  const bool inner_kept = w.stride[1][w.rank - 1] != 0;
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each chunk writes its own disjoint od[lo,hi) slice)
      0, out.numel(), grain_for(r.count), [&](std::int64_t lo, std::int64_t hi) {
        if (inner_kept) {
          reduce_into_rows(r, da, od, lo, hi);
        } else {
          reduce_inner_runs(r, da, od, lo, hi);
        }
      });
  return out;
}

Tensor broadcast_to(const Tensor& a, const Shape& shape) {
  if (a.shape() == shape) return a.clone();
  if (!broadcastable_to(a.shape(), shape)) {
    throw std::invalid_argument("broadcast_to: " + shape_to_string(a.shape()) +
                                " does not broadcast to " + shape_to_string(shape));
  }
  auto w = walk_over<1>(shape);
  set_broadcast_strides(w, 0, a.shape());
  return gather(a, w, shape);
}

namespace {
/// The geometry of a k x k, zero-padded convolution over `image_shape`'s
/// planes, validated.
simd::ConvGeometry conv_geometry(const Shape& image_shape, int k, int pad, int stride) {
  if (image_shape.size() != 4) throw std::invalid_argument("im2col: input must be [N,C,H,W]");
  if (k <= 0 || pad < 0 || stride <= 0) throw std::invalid_argument("im2col: bad geometry");
  const std::int64_t h = image_shape[2], w = image_shape[3];
  if (h + 2 * pad < k || w + 2 * pad < k) {
    throw std::invalid_argument("im2col: kernel larger than padded input");
  }
  return {.h = h,
          .w = w,
          .k = k,
          .pad = pad,
          .stride = stride,
          .oh = (h + 2 * pad - k) / stride + 1,
          .ow = (w + 2 * pad - k) / stride + 1};
}
}  // namespace

Tensor im2col(const Tensor& x, int k, int pad, int stride) {
  const simd::ConvGeometry g = conv_geometry(x.shape(), k, pad, stride);
  const std::int64_t n = x.dim(0), c = x.dim(1);
  const std::int64_t col_width = n * g.oh * g.ow;
  Tensor cols = Tensor::uninitialized({c * k * k, col_width});
  const float* dx = x.data().data();
  float* dc = cols.data().data();
  const auto im2col_row = simd::active().im2col_row;
  // Partitioned over output rows (one per (ci, ki, kj)); each row is a
  // disjoint slice of `cols`, one [oh][ow] grid per image, written whole,
  // zero padding included, in one dispatched call.
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each chunk owns cols rows [r0,r1); dx is read-only)
      0, c * k * k, grain_for(col_width), [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t row = r0; row < r1; ++row) {
          const std::int64_t ci = row / (k * k);
          im2col_row(dc + row * col_width, dx + ci * g.h * g.w, n, c * g.h * g.w, g,
                     (row / k) % k, row % k);
        }
      });
  return cols;
}

Tensor col2im(const Tensor& cols, const Shape& image_shape, int k, int pad, int stride) {
  const simd::ConvGeometry g = conv_geometry(image_shape, k, pad, stride);
  const std::int64_t n = image_shape[0], c = image_shape[1];
  const std::int64_t col_width = n * g.oh * g.ow;
  if (cols.rank() != 2 || cols.dim(0) != c * k * k || cols.dim(1) != col_width) {
    throw std::invalid_argument("col2im: columns shape mismatch " + shape_to_string(cols.shape()));
  }
  Tensor out = Tensor::uninitialized(image_shape);
  const float* dc = cols.data().data();
  float* od = out.data().data();
  const auto col2im_plane = simd::active().col2im_plane;
  // Partitioned over output image planes (ni, ci): every output pixel
  // belongs to exactly one plane, so the overlapping accumulation is
  // race-free, and each pixel sums its contributions from +0 in the fixed
  // (ki, kj) order regardless of how planes are distributed. One dispatched
  // call writes a whole plane.
  ThreadPool::global().parallel_for(
      0, n * c, grain_for(static_cast<std::int64_t>(k) * k * g.oh * g.ow),
      // qdlint: shared-write(each chunk owns image planes [p0,p1); dc is read-only)
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t p = p0; p < p1; ++p) {
          const std::int64_t ni = p / c, ci = p % c;
          col2im_plane(od + p * g.h * g.w, dc + (ci * k * k * col_width + ni * g.oh * g.ow),
                       col_width, g);
        }
      });
  return out;
}

namespace {
void check_pool_geometry(const Shape& shape, int k, const char* name) {
  if (shape.size() != 4 || k <= 0 || shape[2] % k != 0 || shape[3] % k != 0) {
    throw std::invalid_argument(std::string(name) + ": " + shape_to_string(shape) +
                                " is not [N,C,H,W] with H and W divisible by " +
                                std::to_string(k));
  }
}
}  // namespace

Tensor sum_pool2d(const Tensor& x, int k) {
  check_pool_geometry(x.shape(), k, "sum_pool2d");
  const std::int64_t w = x.dim(3), ow = w / k;
  Tensor out = Tensor::uninitialized({x.dim(0), x.dim(1), x.dim(2) / k, ow});
  const float* dx = x.data().data();
  float* od = out.data().data();
  const auto pool = simd::active().sum_pool;
  // Partitioned over output rows (plane, oy). Each window sums from +0 in
  // row-major (ki, kj) order: the increasing input-flat order in which
  // reduce_sum_to sums [N,C,OH,k,OW,k] down to [N,C,OH,1,OW,1].
  ThreadPool::global().parallel_for(
      0, out.numel() / std::max<std::int64_t>(ow, 1), grain_for(k * w),
      // qdlint: shared-write(each chunk owns output rows [r0,r1); dx is read-only)
      [&](std::int64_t r0, std::int64_t r1) {
        pool(od + r0 * ow, dx + r0 * k * w, r1 - r0, ow, k);
      });
  return out;
}

Tensor spread_pool2d(const Tensor& g, int k) {
  if (g.rank() != 4 || k <= 0) {
    throw std::invalid_argument("spread_pool2d: " + shape_to_string(g.shape()) +
                                " is not [N,C,OH,OW]");
  }
  const std::int64_t ow = g.dim(3), w = ow * k;
  Tensor out = Tensor::uninitialized({g.dim(0), g.dim(1), g.dim(2) * k, w});
  const float* dg = g.data().data();
  float* od = out.data().data();
  const auto spread = simd::active().spread_pool;
  // A pure copy, partitioned over input rows: each fills the k output rows
  // its window row covers.
  ThreadPool::global().parallel_for(
      0, g.numel() / std::max<std::int64_t>(ow, 1), grain_for(k * w),
      // qdlint: shared-write(each chunk owns the output rows of input rows [r0,r1))
      [&](std::int64_t r0, std::int64_t r1) {
        spread(od + r0 * k * w, dg + r0 * ow, r1 - r0, ow, k);
      });
  return out;
}
Tensor row_max(const Tensor& a) {
  if (a.rank() != 2) throw std::invalid_argument("row_max: rank must be 2");
  const std::int64_t n = a.dim(0), c = a.dim(1);
  if (c == 0) throw std::invalid_argument("row_max: empty rows");
  Tensor out({n, 1});
  auto da = a.data();
  auto od = out.data();
  // qdlint: shared-write(each chunk owns output rows [i0,i1))
  ThreadPool::global().parallel_for(0, n, grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float m = da[static_cast<std::size_t>(i * c)];
      for (std::int64_t j = 1; j < c; ++j) m = std::max(m, da[static_cast<std::size_t>(i * c + j)]);
      od[static_cast<std::size_t>(i)] = m;
    }
  });
  return out;
}

Tensor one_hot(const std::vector<int>& labels, int num_classes) {
  Tensor out({static_cast<std::int64_t>(labels.size()), num_classes});
  auto od = out.data();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] < 0 || labels[i] >= num_classes) {
      throw std::invalid_argument("one_hot: label out of range");
    }
    od[i * static_cast<std::size_t>(num_classes) + static_cast<std::size_t>(labels[i])] = 1.0f;
  }
  return out;
}

std::vector<int> argmax_rows(const Tensor& a) {
  if (a.rank() != 2) throw std::invalid_argument("argmax_rows: rank must be 2");
  const std::int64_t n = a.dim(0), c = a.dim(1);
  std::vector<int> out(static_cast<std::size_t>(n));
  auto da = a.data();
  // qdlint: shared-write(each chunk owns out[i0,i1))
  ThreadPool::global().parallel_for(0, n, grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      int best = 0;
      float best_v = da[static_cast<std::size_t>(i * c)];
      for (std::int64_t j = 1; j < c; ++j) {
        const float v = da[static_cast<std::size_t>(i * c + j)];
        if (v > best_v) {
          best_v = v;
          best = static_cast<int>(j);
        }
      }
      out[static_cast<std::size_t>(i)] = best;
    }
  });
  return out;
}

}  // namespace quickdrop::kernels
