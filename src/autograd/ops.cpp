#include "autograd/ops.h"

#include "tensor/kernels.h"

namespace quickdrop::ag {
namespace k = quickdrop::kernels;
using detail::Node;

// Each VJP reads its parents (and their shapes) from the node and builds
// only the parent terms whose `need` bit is set: bit 0 for the first
// parent, bit 1 for the second. Single-parent ops are only called with bit
// 0 set. Closures capture nothing but scalars, so they fit std::function's
// small buffer.
namespace {
constexpr unsigned kFirst = 1u;
constexpr unsigned kSecond = 2u;
}  // namespace

Var add(const Var& a, const Var& b) {
  return Var::make_op("add", k::add(a.value(), b.value()), {a, b},
                      [](const Node& n, const Var& gy, unsigned need, ParentGrads& out) {
                        const auto& [x, y] = n.parents;
                        if (need & kFirst) out[0] = reduce_sum_to(gy, x.shape());
                        if (need & kSecond) out[1] = reduce_sum_to(gy, y.shape());
                      });
}

Var sub(const Var& a, const Var& b) {
  return Var::make_op("sub", k::sub(a.value(), b.value()), {a, b},
                      [](const Node& n, const Var& gy, unsigned need, ParentGrads& out) {
                        const auto& [x, y] = n.parents;
                        if (need & kFirst) out[0] = reduce_sum_to(gy, x.shape());
                        if (need & kSecond) out[1] = reduce_sum_to(neg(gy), y.shape());
                      });
}

Var mul(const Var& a, const Var& b) {
  return Var::make_op("mul", k::mul(a.value(), b.value()), {a, b},
                      [](const Node& n, const Var& gy, unsigned need, ParentGrads& out) {
                        const auto& [x, y] = n.parents;
                        if (need & kFirst) out[0] = reduce_sum_to(mul(gy, y), x.shape());
                        if (need & kSecond) out[1] = reduce_sum_to(mul(gy, x), y.shape());
                      });
}

Var div(const Var& a, const Var& b) {
  return Var::make_op("div", k::div(a.value(), b.value()), {a, b},
                      [](const Node& n, const Var& gy, unsigned need, ParentGrads& out) {
                        // d/da = gy / b ; d/db = -gy * a / b^2
                        const auto& [x, y] = n.parents;
                        if (need & kFirst) out[0] = reduce_sum_to(div(gy, y), x.shape());
                        if (need & kSecond) {
                          out[1] = reduce_sum_to(neg(div(mul(gy, x), mul(y, y))), y.shape());
                        }
                      });
}

Var neg(const Var& a) {
  return Var::make_op("neg", k::neg(a.value()), {a},
                      [](const Node&, const Var& gy, unsigned, ParentGrads& out) {
                        out[0] = neg(gy);
                      });
}

Var exp(const Var& a) {
  return Var::make_op("exp", k::exp(a.value()), {a},
                      [](const Node& n, const Var& gy, unsigned, ParentGrads& out) {
                        // Recompute exp(a) rather than holding the output Var,
                        // which would create a reference cycle (node -> vjp -> node).
                        out[0] = mul(gy, exp(n.parents[0]));
                      });
}

Var log(const Var& a) {
  return Var::make_op("log", k::log(a.value()), {a},
                      [](const Node& n, const Var& gy, unsigned, ParentGrads& out) {
                        out[0] = div(gy, n.parents[0]);
                      });
}

Var sqrt(const Var& a) {
  return Var::make_op("sqrt", k::sqrt(a.value()), {a},
                      [](const Node& n, const Var& gy, unsigned, ParentGrads& out) {
                        out[0] = mul_scalar(div(gy, sqrt(n.parents[0])), 0.5f);
                      });
}

Var relu(const Var& a) {
  return Var::make_op("relu", k::relu(a.value()), {a},
                      [](const Node& n, const Var& gy, unsigned, ParentGrads& out) {
                        // The mask is piecewise constant; a constant factor is
                        // the exact VJP a.e.
                        const Var mask = Var::constant(k::gt_zero_mask(n.parents[0].value()));
                        out[0] = mul(gy, mask);
                      });
}

Var add_scalar(const Var& a, float s) {
  return Var::make_op("add_scalar", k::add_scalar(a.value(), s), {a},
                      [](const Node&, const Var& gy, unsigned, ParentGrads& out) { out[0] = gy; });
}

Var mul_scalar(const Var& a, float s) {
  return Var::make_op("mul_scalar", k::mul_scalar(a.value(), s), {a},
                      [s](const Node&, const Var& gy, unsigned, ParentGrads& out) {
                        out[0] = mul_scalar(gy, s);
                      });
}

Var matmul(const Var& a, const Var& b) {
  return Var::make_op("matmul", k::matmul(a.value(), b.value()), {a, b},
                      [](const Node& n, const Var& gy, unsigned need, ParentGrads& out) {
                        // d(xy): dx = gy y^T, dy = x^T gy.
                        const auto& [x, y] = n.parents;
                        if (need & kFirst) out[0] = matmul_nt(gy, y);
                        if (need & kSecond) out[1] = matmul_tn(x, gy);
                      });
}

Var matmul_nt(const Var& a, const Var& b) {
  return Var::make_op("matmul_nt", k::matmul_nt(a.value(), b.value()), {a, b},
                      [](const Node& n, const Var& gy, unsigned need, ParentGrads& out) {
                        // d(x y^T): dx = gy y, dy = gy^T x.
                        const auto& [x, y] = n.parents;
                        if (need & kFirst) out[0] = matmul(gy, y);
                        if (need & kSecond) out[1] = matmul_tn(gy, x);
                      });
}

Var matmul_tn(const Var& a, const Var& b) {
  return Var::make_op("matmul_tn", k::matmul_tn(a.value(), b.value()), {a, b},
                      [](const Node& n, const Var& gy, unsigned need, ParentGrads& out) {
                        // d(x^T y): dx = y gy^T, dy = x gy.
                        const auto& [x, y] = n.parents;
                        if (need & kFirst) out[0] = matmul_nt(y, gy);
                        if (need & kSecond) out[1] = matmul(x, gy);
                      });
}

Var reshape(const Var& a, Shape shape) {
  return Var::make_op("reshape", a.value().reshaped(std::move(shape)), {a},
                      [](const Node& n, const Var& gy, unsigned, ParentGrads& out) {
                        out[0] = reshape(gy, n.parents[0].shape());
                      });
}

Var permute(const Var& a, std::vector<int> dims) {
  std::vector<int> inverse(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) {
    inverse[static_cast<std::size_t>(dims[i])] = static_cast<int>(i);
  }
  return Var::make_op("permute", k::permute(a.value(), dims), {a},
                      [inverse](const Node&, const Var& gy, unsigned, ParentGrads& out) {
                        out[0] = permute(gy, inverse);
                      });
}

Var im2col(const Var& x, int k, int pad, int stride) {
  return Var::make_op("im2col", k::im2col(x.value(), k, pad, stride), {x},
                      [k, pad, stride](const Node& n, const Var& gy, unsigned, ParentGrads& out) {
                        out[0] = col2im(gy, n.parents[0].shape(), k, pad, stride);
                      });
}

Var col2im(const Var& cols, Shape image_shape, int k, int pad, int stride) {
  return Var::make_op("col2im", k::col2im(cols.value(), image_shape, k, pad, stride), {cols},
                      [k, pad, stride](const Node&, const Var& gy, unsigned, ParentGrads& out) {
                        out[0] = im2col(gy, k, pad, stride);
                      });
}

Var sum_pool2d(const Var& x, int k) {
  return Var::make_op("sum_pool2d", k::sum_pool2d(x.value(), k), {x},
                      [k](const Node&, const Var& gy, unsigned, ParentGrads& out) {
                        out[0] = spread_pool2d(gy, k);
                      });
}

Var spread_pool2d(const Var& g, int k) {
  return Var::make_op("spread_pool2d", k::spread_pool2d(g.value(), k), {g},
                      [k](const Node&, const Var& gy, unsigned, ParentGrads& out) {
                        out[0] = sum_pool2d(gy, k);
                      });
}

Var reduce_sum_to(const Var& a, const Shape& target_shape) {
  if (a.shape() == target_shape) return a;  // no-op; keeps graphs small
  return Var::make_op("reduce_sum_to", k::reduce_sum_to(a.value(), target_shape), {a},
                      [](const Node& n, const Var& gy, unsigned, ParentGrads& out) {
                        out[0] = broadcast_to(gy, n.parents[0].shape());
                      });
}

Var broadcast_to(const Var& a, const Shape& shape) {
  if (a.shape() == shape) return a;
  return Var::make_op("broadcast_to", k::broadcast_to(a.value(), shape), {a},
                      [](const Node& n, const Var& gy, unsigned, ParentGrads& out) {
                        out[0] = reduce_sum_to(gy, n.parents[0].shape());
                      });
}

Var sum_all(const Var& a) { return reduce_sum_to(a, Shape{}); }

Var mean_all(const Var& a) {
  return mul_scalar(sum_all(a), 1.0f / static_cast<float>(a.value().numel()));
}

Var square(const Var& a) { return mul(a, a); }

Var row_max_const(const Var& a) { return Var::constant(k::row_max(a.value())); }

Var log_softmax_rows(const Var& logits) {
  const Var m = row_max_const(logits);            // [N,1], constant
  const Var z = sub(logits, m);                   // broadcast
  const auto n = logits.shape()[0];
  const Var lse = log(reduce_sum_to(exp(z), Shape{n, 1}));
  return sub(z, lse);
}

Var cross_entropy(const Var& logits, const std::vector<int>& labels) {
  const auto num_classes = static_cast<int>(logits.shape()[1]);
  const Var onehot = Var::constant(k::one_hot(labels, num_classes));
  const Var logp = log_softmax_rows(logits);
  const Var picked = sum_all(mul(onehot, logp));
  return mul_scalar(picked, -1.0f / static_cast<float>(labels.size()));
}

Var scalar(float v) { return Var::constant(Tensor::scalar(v)); }

}  // namespace quickdrop::ag
