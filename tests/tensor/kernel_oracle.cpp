#include "kernel_oracle.h"

#include <cstdint>
#include <stdexcept>

namespace quickdrop::kernels::oracle {
namespace {

/// Strides for iterating an input of shape `in` as if it had the broadcast
/// shape `out` (stride 0 on broadcast dimensions).
std::vector<std::int64_t> broadcast_strides(const Shape& in, const Shape& out) {
  const auto in_strides = contiguous_strides(in);
  std::vector<std::int64_t> strides(out.size(), 0);
  const std::size_t off = out.size() - in.size();
  for (std::size_t i = 0; i < in.size(); ++i) {
    strides[off + i] = in[i] == 1 ? 0 : in_strides[i];
  }
  return strides;
}

/// out[flat] = src[offset(flat)], the offset walking `strides` over
/// `out_shape` with a per-element odometer.
Tensor strided_gather(const Tensor& a, const Shape& out_shape,
                      const std::vector<std::int64_t>& strides) {
  Tensor out(out_shape);
  auto da = a.data();
  auto od = out.data();
  std::vector<std::int64_t> idx(out_shape.size(), 0);
  std::int64_t src = 0;
  const auto rank = out_shape.size();
  for (std::int64_t flat = 0; flat < out.numel(); ++flat) {
    od[static_cast<std::size_t>(flat)] = da[static_cast<std::size_t>(src)];
    for (int d = static_cast<int>(rank) - 1; d >= 0; --d) {
      const auto ud = static_cast<std::size_t>(d);
      ++idx[ud];
      src += strides[ud];
      if (idx[ud] < out_shape[ud]) break;
      src -= strides[ud] * out_shape[ud];
      idx[ud] = 0;
    }
  }
  return out;
}

template <typename F>
Tensor binary_op(const Tensor& a, const Tensor& b, F f) {
  const Shape out_shape = broadcast_shapes(a.shape(), b.shape());
  Tensor out(out_shape);
  const auto sa = broadcast_strides(a.shape(), out_shape);
  const auto sb = broadcast_strides(b.shape(), out_shape);
  const auto rank = out_shape.size();
  auto da = a.data(), db = b.data();
  auto od = out.data();
  std::vector<std::int64_t> idx(out_shape.size(), 0);
  std::int64_t ia = 0, ib = 0;
  for (std::int64_t flat = 0; flat < out.numel(); ++flat) {
    od[static_cast<std::size_t>(flat)] =
        f(da[static_cast<std::size_t>(ia)], db[static_cast<std::size_t>(ib)]);
    for (int d = static_cast<int>(rank) - 1; d >= 0; --d) {
      const auto ud = static_cast<std::size_t>(d);
      ++idx[ud];
      ia += sa[ud];
      ib += sb[ud];
      if (idx[ud] < out_shape[ud]) break;
      ia -= sa[ud] * out_shape[ud];
      ib -= sb[ud] * out_shape[ud];
      idx[ud] = 0;
    }
  }
  return out;
}

template <typename F>
Tensor unary_op(const Tensor& a, F f) {
  Tensor out(a.shape());
  auto da = a.data();
  auto od = out.data();
  for (std::size_t i = 0; i < od.size(); ++i) od[i] = f(da[i]);
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x * y; });
}
Tensor div(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x / y; });
}
Tensor relu(const Tensor& a) {
  return unary_op(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}
Tensor gt_zero_mask(const Tensor& a) {
  return unary_op(a, [](float x) { return x > 0.0f ? 1.0f : 0.0f; });
}
Tensor add_scalar(const Tensor& a, float s) {
  return unary_op(a, [s](float x) { return x + s; });
}
Tensor mul_scalar(const Tensor& a, float s) {
  return unary_op(a, [s](float x) { return x * s; });
}

Tensor transpose2d(const Tensor& a) {
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  auto da = a.data();
  auto od = out.data();
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t i = 0; i < m; ++i) {
      od[static_cast<std::size_t>(j * m + i)] = da[static_cast<std::size_t>(i * n + j)];
    }
  }
  return out;
}

Tensor permute(const Tensor& a, const std::vector<int>& dims) {
  const auto rank = dims.size();
  Shape out_shape(rank);
  const auto in_strides = contiguous_strides(a.shape());
  std::vector<std::int64_t> strides(rank);
  for (std::size_t i = 0; i < rank; ++i) {
    const auto d = static_cast<std::size_t>(dims[i]);
    out_shape[i] = a.shape()[d];
    strides[i] = in_strides[d];
  }
  return strided_gather(a, out_shape, strides);
}

Tensor reduce_sum_to(const Tensor& a, const Shape& target_shape) {
  if (a.shape() == target_shape) return a.clone();
  Tensor out(target_shape);
  const auto& in_shape = a.shape();
  const auto in_strides = contiguous_strides(in_shape);
  const std::size_t in_rank = in_shape.size();
  const std::size_t off = in_rank - target_shape.size();
  // Each output element sums its reduced sub-lattice in increasing
  // input-flat order.
  std::vector<std::int64_t> red_extent, red_stride;
  for (std::size_t d = 0; d < in_rank; ++d) {
    if (d < off || target_shape[d - off] == 1) {
      if (in_shape[d] > 1) {
        red_extent.push_back(in_shape[d]);
        red_stride.push_back(in_strides[d]);
      }
    }
  }
  auto da = a.data();
  auto od = out.data();
  std::vector<std::int64_t> ridx(red_extent.size());
  for (std::int64_t o = 0; o < out.numel(); ++o) {
    std::int64_t base = 0, rem = o;
    for (int dt = static_cast<int>(target_shape.size()) - 1; dt >= 0; --dt) {
      const auto ud = static_cast<std::size_t>(dt);
      const std::int64_t id = rem % target_shape[ud];
      rem /= target_shape[ud];
      if (target_shape[ud] != 1) base += id * in_strides[off + ud];
    }
    float acc = 0.0f;
    if (red_extent.empty()) {
      acc = da[static_cast<std::size_t>(base)];
    } else {
      std::fill(ridx.begin(), ridx.end(), 0);
      std::int64_t roff = 0;
      for (;;) {
        acc += da[static_cast<std::size_t>(base + roff)];
        int d = static_cast<int>(red_extent.size()) - 1;
        for (; d >= 0; --d) {
          const auto ud = static_cast<std::size_t>(d);
          ++ridx[ud];
          roff += red_stride[ud];
          if (ridx[ud] < red_extent[ud]) break;
          roff -= red_stride[ud] * red_extent[ud];
          ridx[ud] = 0;
        }
        if (d < 0) break;
      }
    }
    od[static_cast<std::size_t>(o)] = acc;
  }
  return out;
}

Tensor broadcast_to(const Tensor& a, const Shape& shape) {
  if (a.shape() == shape) return a.clone();
  return strided_gather(a, shape, broadcast_strides(a.shape(), shape));
}

Tensor im2col(const Tensor& x, int k, int pad, int stride) {
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - k) / stride + 1;
  Tensor cols({c * k * k, n * oh * ow});
  auto dx = x.data();
  auto dc = cols.data();
  const std::int64_t col_width = n * oh * ow;
  for (std::int64_t row = 0; row < c * k * k; ++row) {
    const std::int64_t ci = row / (k * k);
    const int ki = static_cast<int>((row / k) % k);
    const int kj = static_cast<int>(row % k);
    float* out_row = dc.data() + row * col_width;
    for (std::int64_t ni = 0; ni < n; ++ni) {
      const float* img = dx.data() + (ni * c + ci) * h * w;
      for (std::int64_t y = 0; y < oh; ++y) {
        const std::int64_t iy = y * stride + ki - pad;
        for (std::int64_t xo = 0; xo < ow; ++xo) {
          const std::int64_t ix = xo * stride + kj - pad;
          const bool in_bounds = iy >= 0 && iy < h && ix >= 0 && ix < w;
          out_row[(ni * oh + y) * ow + xo] = in_bounds ? img[iy * w + ix] : 0.0f;
        }
      }
    }
  }
  return cols;
}

Tensor col2im(const Tensor& cols, const Shape& image_shape, int k, int pad, int stride) {
  const std::int64_t n = image_shape[0], c = image_shape[1], h = image_shape[2], w = image_shape[3];
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - k) / stride + 1;
  Tensor out(image_shape);
  auto dc = cols.data();
  auto od = out.data();
  const std::int64_t col_width = n * oh * ow;
  // Each pixel receives its contributions in (ki, kj, y, xo) order.
  for (std::int64_t p = 0; p < n * c; ++p) {
    const std::int64_t ni = p / c;
    const std::int64_t ci = p % c;
    float* img = od.data() + p * h * w;
    for (int ki = 0; ki < k; ++ki) {
      for (int kj = 0; kj < k; ++kj) {
        const std::int64_t row = (ci * k + ki) * k + kj;
        const float* in_row = dc.data() + row * col_width;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * stride + ki - pad;
          if (iy < 0 || iy >= h) continue;
          for (std::int64_t xo = 0; xo < ow; ++xo) {
            const std::int64_t ix = xo * stride + kj - pad;
            if (ix < 0 || ix >= w) continue;
            img[iy * w + ix] += in_row[(ni * oh + y) * ow + xo];
          }
        }
      }
    }
  }
  return out;
}

}  // namespace quickdrop::kernels::oracle
