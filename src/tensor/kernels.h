// Pure numeric kernels on Tensors. Every autograd primitive wraps one of
// these. Kernels allocate their result; inputs are never mutated.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace quickdrop::kernels {

/// Elementwise binary ops with NumPy-style broadcasting.
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

/// Elementwise unary ops.
Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor relu(const Tensor& a);
/// 1 where a > 0, else 0 (the ReLU mask).
Tensor gt_zero_mask(const Tensor& a);

/// Scalar ops.
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

/// Dense matrix products, one packed GEMM behind all three: A x B for
/// a [M,K], b [K,N]; A x B^T for b [N,K]; A^T x B for a [K,M]. Each output
/// element has the same summation chain in all three (kernels.cpp), so a
/// product of an explicitly transposed operand gives the same bits.
Tensor matmul(const Tensor& a, const Tensor& b);
Tensor matmul_nt(const Tensor& a, const Tensor& b);
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// General axis permutation; dims is a permutation of 0..rank-1.
Tensor permute(const Tensor& a, const std::vector<int>& dims);

/// Sums `a` down to `target_shape` (which must broadcast to a.shape()).
/// The adjoint of broadcast_to.
Tensor reduce_sum_to(const Tensor& a, const Shape& target_shape);

/// Broadcasts `a` up to `shape`. The adjoint of reduce_sum_to.
Tensor broadcast_to(const Tensor& a, const Shape& shape);

/// Unfolds x [N,C,H,W] into columns [C*k*k, N*OH*OW] for kernel size k,
/// zero padding p and stride s. OH = (H + 2p - k)/s + 1 (likewise OW).
Tensor im2col(const Tensor& x, int k, int pad, int stride);

/// Adjoint of im2col: folds columns back into an [N,C,H,W] image,
/// accumulating overlapping contributions.
Tensor col2im(const Tensor& cols, const Shape& image_shape, int k, int pad, int stride);

/// Sums each k x k window of x [N,C,H,W] (H and W divisible by k) into
/// [N,C,H/k,W/k], from +0 in row-major window order. The adjoint of
/// spread_pool2d.
Tensor sum_pool2d(const Tensor& x, int k);

/// Copies each element of g [N,C,OH,OW] to its k x k window of an
/// [N,C,OH*k,OW*k] output. The adjoint of sum_pool2d.
Tensor spread_pool2d(const Tensor& g, int k);

/// Per-row maximum of a [N,C] matrix, returned as [N,1].
Tensor row_max(const Tensor& a);

/// One-hot encodes integer labels into an [N,C] matrix.
Tensor one_hot(const std::vector<int>& labels, int num_classes);

/// Per-row argmax of a [N,C] matrix.
std::vector<int> argmax_rows(const Tensor& a);

}  // namespace quickdrop::kernels
