// Reference implementations of the tensor kernels that the contiguous-run
// engine and the packed GEMM in src/tensor/kernels.cpp replaced: a
// per-element odometer for the broadcast/gather/reduction kernels, the
// branchy im2col/col2im, and the matrix product as one scalar chain per
// element. A plain row-gather transpose builds the explicitly transposed
// operands the transposed products are checked against. They run serially
// and define the bits the production kernels must reproduce
// (tests/tensor/kernel_oracle_test.cpp).
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace quickdrop::kernels::oracle {

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);
Tensor relu(const Tensor& a);
Tensor gt_zero_mask(const Tensor& a);
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);
/// a [M,K] x b [K,N]. Element (i,j) starts from +0; each group of four k
/// adds ((a0*b0 + a1*b1) + a2*b2) + a3*b3; the k % 4 tail adds a*b.
Tensor matmul(const Tensor& a, const Tensor& b);
Tensor transpose2d(const Tensor& a);
Tensor permute(const Tensor& a, const std::vector<int>& dims);
Tensor reduce_sum_to(const Tensor& a, const Shape& target_shape);
Tensor broadcast_to(const Tensor& a, const Shape& shape);
Tensor im2col(const Tensor& x, int k, int pad, int stride);
Tensor col2im(const Tensor& cols, const Shape& image_shape, int k, int pad, int stride);

}  // namespace quickdrop::kernels::oracle
