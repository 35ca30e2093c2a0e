#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
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
// Outputs: the pure maps and gathers (binary_op, map_runs, gather,
// transpose2d) write every output element, so they start from an
// uninitialized tensor; the accumulating kernels (matmul, reduce_sum_to,
// col2im) and im2col, whose padding is never written, start from zeros.
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
/// Fixed-size, so building one allocates nothing.
template <int Ops>
struct Walk {
  int rank = 0;
  std::int64_t extent[kMaxDims] = {};
  std::int64_t stride[Ops][kMaxDims] = {};
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
            std::fill(o, o + len, *x);
          } else {
            for (std::int64_t i = 0; i < len; ++i) o[i] = x[i * s];
          }
        });
      });
  return out;
}

Tensor binary_op(const Tensor& a, const Tensor& b, simd::BinaryOp op, const char* name) {
  Shape out_shape;
  if (a.shape() == b.shape()) {
    out_shape = a.shape();
  } else {
    try {
      out_shape = broadcast_shapes(a.shape(), b.shape());
    } catch (const std::invalid_argument&) {
      throw std::invalid_argument(std::string(name) + ": cannot broadcast " +
                                  shape_to_string(a.shape()) + " with " +
                                  shape_to_string(b.shape()));
    }
  }
  Tensor out = Tensor::uninitialized(out_shape);
  if (out.numel() == 0) return out;
  auto w = walk_over<2>(out_shape);
  set_broadcast_strides(w, 0, a.shape());
  set_broadcast_strides(w, 1, b.shape());
  coalesce(w);
  // The innermost dim has extent > 1 (or is the single collapsed point), so
  // at least one operand walks it; an operand that does has stride 1 there.
  // Hence three run shapes: both runs, a run against a right scalar, a left
  // scalar against a run.
  const std::int64_t sa = w.stride[0][w.rank - 1], sb = w.stride[1][w.rank - 1];
  const auto& kern = simd::active();
  const auto vv = kern.binary[op];
  const auto vs = kern.binary_rs[op];
  const auto sv = kern.binary_ls[op];
  const float* da = a.data().data();
  const float* db = b.data().data();
  float* od = out.data().data();
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

Tensor neg(const Tensor& a) {
  return unary_op(a, [](float x) { return -x; });
}
Tensor exp(const Tensor& a) {
  return unary_op(a, [](float x) { return std::exp(x); });
}
Tensor log(const Tensor& a) {
  return unary_op(a, [](float x) { return std::log(x); });
}
Tensor sqrt(const Tensor& a) {
  return unary_op(a, [](float x) { return std::sqrt(x); });
}
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

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw std::invalid_argument("matmul: bad shapes " + shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  }
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  auto da = a.data(), db = b.data();
  auto od = out.data();
  // Row-partitioned blocked ikj: each output row is owned by one chunk, and
  // its accumulation order over kk is fixed by the kk-tiling constants alone,
  // so any row partition yields bit-identical results. The kk tile keeps a
  // block of B rows hot across the chunk's rows; the 4-way kk unroll keeps
  // the inner j loop branch-free and vectorizable (the old `av == 0` skip
  // defeated both).
  constexpr std::int64_t kKTile = 128;
  const auto& simd_k = simd::active();
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each chunk owns output rows [i0,i1); db/da are read-only)
      0, m, grain_for(2 * k * n), [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t kk0 = 0; kk0 < k; kk0 += kKTile) {
          const std::int64_t kk1 = kk0 + kKTile < k ? kk0 + kKTile : k;
          for (std::int64_t i = i0; i < i1; ++i) {
            float* orow = od.data() + i * n;
            const float* arow = da.data() + i * k;
            std::int64_t kk = kk0;
            for (; kk + 4 <= kk1; kk += 4) {
              const float* b0 = db.data() + kk * n;
              // The dispatched tile keeps the exact left-associated
              // mul-then-add chain of the scalar expression
              // orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j],
              // so results stay bitwise identical across dispatch paths.
              simd_k.matmul_tile4(orow, arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3], b0,
                                  b0 + n, b0 + 2 * n, b0 + 3 * n, n);
            }
            for (; kk < kk1; ++kk) {
              // Remainder rows are plain axpy over the output row.
              simd_k.axpy(orow, db.data() + kk * n, arow[kk], n);
            }
          }
        }
      });
  return out;
}

Tensor transpose2d(const Tensor& a) {
  if (a.rank() != 2) throw std::invalid_argument("transpose2d: rank must be 2");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out = Tensor::uninitialized({n, m});
  const float* da = a.data().data();
  float* od = out.data().data();
  const auto tile = simd::active().transpose8x8;
  // Partitioned over output rows; a pure gather. A block of kRows input rows
  // is walked in 8x8 tiles (8 output rows at a time), so the block's reads
  // and the tiles' writes stay in L1; ragged edges are copied one by one.
  constexpr std::int64_t kRows = 64;
  // qdlint: shared-write(each chunk owns output rows [j0,j1))
  ThreadPool::global().parallel_for(0, n, grain_for(m), [&](std::int64_t j0, std::int64_t j1) {
    for (std::int64_t ib = 0; ib < m; ib += kRows) {
      const std::int64_t ie = std::min(ib + kRows, m);
      std::int64_t jb = j0;
      for (; jb + 8 <= j1; jb += 8) {
        std::int64_t i = ib;
        for (; i + 8 <= ie; i += 8) tile(od + jb * m + i, m, da + i * n + jb, n);
        for (; i < ie; ++i) {
          for (std::int64_t j = jb; j < jb + 8; ++j) od[j * m + i] = da[i * n + j];
        }
      }
      for (; jb < j1; ++jb) {
        for (std::int64_t i = ib; i < ie; ++i) od[jb * m + i] = da[i * n + jb];
      }
    }
  });
  return out;
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

/// Sums G outputs at once: out[g] = the sum of x[base[g] + r] over the
/// reduced lattice (innermost dim contiguous), r in increasing order,
/// starting from +0. The G chains are independent — interleaving them only
/// hides add latency; each one is the serial left-to-right sum.
template <int G>
void sum_lattice(const float* x, const std::int64_t* base, const Walk<1>& red, float* out) {
  float acc[G] = {};
  const float* p[G] = {};
  const std::int64_t run = red.extent[red.rank - 1];
  std::int64_t idx[kMaxDims] = {};
  std::int64_t roff = 0;
  for (;;) {
#pragma GCC unroll 8
    for (int g = 0; g < G; ++g) p[g] = x + base[g] + roff;
    for (std::int64_t i = 0; i < run; ++i) {
#pragma GCC unroll 8
      for (int g = 0; g < G; ++g) acc[g] += p[g][i];
    }
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
#pragma GCC unroll 8
  for (int g = 0; g < G; ++g) out[g] = acc[g];
}

/// Outputs [lo, hi) of a reduction whose innermost dim is reduced: each
/// output sums contiguous input runs; eight consecutive outputs are summed
/// together as independent chains.
void reduce_inner_runs(const Reduction& r, const float* x, float* out, std::int64_t lo,
                       std::int64_t hi) {
  constexpr int kGroup = 8;
  std::int64_t bases[kGroup] = {};
  int filled = 0;
  std::int64_t first = lo;
  const std::int64_t ks = r.kept.stride[0][r.kept.rank - 1];
  for_each_run(r.kept, lo, hi, [&](std::int64_t flat, std::int64_t len, const std::int64_t* base) {
    for (std::int64_t t = 0; t < len; ++t) {
      if (filled == 0) first = flat + t;
      bases[filled++] = base[0] + t * ks;
      if (filled == kGroup) {
        sum_lattice<kGroup>(x, bases, r.red, out + first);
        filled = 0;
      }
    }
  });
  for (int g = 0; g < filled; ++g) sum_lattice<1>(x, bases + g, r.red, out + first + g);
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
void check_conv_geometry(const Shape& image_shape, int k, int pad, int stride) {
  if (image_shape.size() != 4) throw std::invalid_argument("im2col: input must be [N,C,H,W]");
  if (k <= 0 || pad < 0 || stride <= 0) throw std::invalid_argument("im2col: bad geometry");
  const std::int64_t h = image_shape[2], w = image_shape[3];
  if (h + 2 * pad < k || w + 2 * pad < k) {
    throw std::invalid_argument("im2col: kernel larger than padded input");
  }
}

/// The output positions o in [0, count) whose input coordinate
/// o * stride + shift lies inside [0, size): a half-open range [lo, hi),
/// empty when lo >= hi. Everything outside it reads the zero padding.
struct Inside {
  std::int64_t lo, hi;
};
Inside inside(std::int64_t shift, std::int64_t stride, std::int64_t size, std::int64_t count) {
  const std::int64_t lo = shift >= 0 ? 0 : (-shift + stride - 1) / stride;
  const std::int64_t hi = size - 1 - shift < 0 ? 0 : (size - 1 - shift) / stride + 1;
  return {std::min(lo, count), std::min(hi, count)};
}
}  // namespace

Tensor im2col(const Tensor& x, int k, int pad, int stride) {
  check_conv_geometry(x.shape(), k, pad, stride);
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - k) / stride + 1;
  Tensor cols({c * k * k, n * oh * ow});
  const float* dx = x.data().data();
  float* dc = cols.data().data();
  const std::int64_t col_width = n * oh * ow;
  // Partitioned over output rows (one per (ci, ki, kj)); each row is a
  // disjoint slice of `cols`, written by pure gathers. `cols` starts zeroed,
  // so the padding border needs no writes and the interior is a branch-free
  // copy.
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each chunk owns cols rows [r0,r1); dx is read-only)
      0, c * k * k, grain_for(col_width), [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t row = r0; row < r1; ++row) {
          const std::int64_t ci = row / (k * k);
          const std::int64_t ki = (row / k) % k;
          const std::int64_t kj = row % k;
          const Inside ys = inside(ki - pad, stride, h, oh);
          const Inside xs = inside(kj - pad, stride, w, ow);
          if (xs.lo >= xs.hi) continue;
          float* out_row = dc + row * col_width;
          for (std::int64_t ni = 0; ni < n; ++ni) {
            const float* img = dx + (ni * c + ci) * h * w;
            for (std::int64_t y = ys.lo; y < ys.hi; ++y) {
              const float* src = img + (y * stride + ki - pad) * w + xs.lo * stride + kj - pad;
              float* dst = out_row + (ni * oh + y) * ow + xs.lo;
              const std::int64_t len = xs.hi - xs.lo;
              if (stride == 1) {
                std::copy(src, src + len, dst);
              } else {
                for (std::int64_t t = 0; t < len; ++t) dst[t] = src[t * stride];
              }
            }
          }
        }
      });
  return cols;
}

Tensor col2im(const Tensor& cols, const Shape& image_shape, int k, int pad, int stride) {
  check_conv_geometry(image_shape, k, pad, stride);
  const std::int64_t n = image_shape[0], c = image_shape[1], h = image_shape[2], w = image_shape[3];
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - k) / stride + 1;
  if (cols.rank() != 2 || cols.dim(0) != c * k * k || cols.dim(1) != n * oh * ow) {
    throw std::invalid_argument("col2im: columns shape mismatch " + shape_to_string(cols.shape()));
  }
  Tensor out(image_shape);
  const float* dc = cols.data().data();
  float* od = out.data().data();
  const std::int64_t col_width = n * oh * ow;
  const auto add_run = simd::active().binary[simd::kAdd];
  // Partitioned over output image planes (ni, ci): every output pixel
  // belongs to exactly one plane, so the overlapping += accumulation is
  // race-free, and each pixel receives its contributions in the fixed
  // (ki, kj, y, xo) order regardless of how planes are distributed. Within
  // one (ki, kj, y) the xo run touches distinct pixels, so it is added as
  // one run; padding positions are skipped by range, not by a branch.
  ThreadPool::global().parallel_for(
      0, n * c, grain_for(static_cast<std::int64_t>(k) * k * oh * ow),
      // qdlint: shared-write(each chunk owns image planes [p0,p1); dc is read-only)
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t p = p0; p < p1; ++p) {
          const std::int64_t ni = p / c;
          const std::int64_t ci = p % c;
          float* img = od + p * h * w;
          for (std::int64_t ki = 0; ki < k; ++ki) {
            const Inside ys = inside(ki - pad, stride, h, oh);
            for (std::int64_t kj = 0; kj < k; ++kj) {
              const Inside xs = inside(kj - pad, stride, w, ow);
              if (xs.lo >= xs.hi) continue;
              const std::int64_t len = xs.hi - xs.lo;
              const float* in_row = dc + ((ci * k + ki) * k + kj) * col_width;
              for (std::int64_t y = ys.lo; y < ys.hi; ++y) {
                float* dst = img + (y * stride + ki - pad) * w + xs.lo * stride + kj - pad;
                const float* src = in_row + (ni * oh + y) * ow + xs.lo;
                if (stride == 1) {
                  add_run(dst, dst, src, len);
                } else {
                  for (std::int64_t t = 0; t < len; ++t) dst[t * stride] += src[t];
                }
              }
            }
          }
        }
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
