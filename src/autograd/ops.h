// Differentiable primitive ops on Var.
//
// Every VJP is expressed in terms of the primitives below (never in terms of
// raw tensor math on detached values, except for genuinely piecewise-constant
// factors such as the ReLU mask), which is what makes higher-order
// differentiation work.
#pragma once

#include <vector>

#include "autograd/var.h"

namespace quickdrop::ag {

/// Elementwise with broadcasting.
Var add(const Var& a, const Var& b);
Var sub(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);
Var div(const Var& a, const Var& b);

Var neg(const Var& a);
Var exp(const Var& a);
Var log(const Var& a);
Var sqrt(const Var& a);
Var relu(const Var& a);

Var add_scalar(const Var& a, float s);
Var mul_scalar(const Var& a, float s);

/// [M,K] x [K,N] matrix product.
Var matmul(const Var& a, const Var& b);

/// 2-D transpose.
Var transpose(const Var& a);

/// Contiguous reinterpretation to a shape of equal numel.
Var reshape(const Var& a, Shape shape);

/// Axis permutation.
Var permute(const Var& a, std::vector<int> dims);

/// Convolution unfolding (see kernels::im2col); adjoint pair with col2im.
Var im2col(const Var& x, int k, int pad, int stride);
Var col2im(const Var& cols, Shape image_shape, int k, int pad, int stride);

/// Sum down to a broadcast-compatible shape; adjoint pair with broadcast_to.
Var reduce_sum_to(const Var& a, const Shape& target_shape);
Var broadcast_to(const Var& a, const Shape& shape);

// ---- Composite helpers (built from primitives; no new VJPs) ----

/// Sum of all elements, as a scalar-shaped Var.
Var sum_all(const Var& a);

/// Mean of all elements.
Var mean_all(const Var& a);

/// Elementwise square.
Var square(const Var& a);

/// Per-row maximum of an [N,C] Var as a *constant* [N,1] Var. The maximum is
/// piecewise constant, so treating it as constant is the standard stable-
/// softmax trick and leaves gradients exact almost everywhere.
Var row_max_const(const Var& a);

/// Row-wise log-softmax of [N,C] logits (numerically stable).
Var log_softmax_rows(const Var& logits);

/// Mean cross-entropy of [N,C] logits against integer labels.
Var cross_entropy(const Var& logits, const std::vector<int>& labels);

/// Scalar constant Var.
Var scalar(float v);

}  // namespace quickdrop::ag
