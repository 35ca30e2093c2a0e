#include "nn/layers.h"

#include <cmath>
#include <stdexcept>

namespace quickdrop::nn {
namespace {

/// Kaiming-style initialization: N(0, sqrt(2 / fan_in)).
Tensor kaiming(Shape shape, std::int64_t fan_in, Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  return Tensor::randn(std::move(shape), rng, stddev);
}

}  // namespace

Linear::Linear(int in_features, int out_features, Rng& rng)
    : weight_(ag::Var::leaf(kaiming({out_features, in_features}, in_features, rng))),
      bias_(ag::Var::leaf(Tensor::zeros({out_features}))) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("Linear: features must be positive");
  }
}

ag::Var Linear::forward(const ag::Var& input) {
  if (input.shape().size() != 2) {
    throw std::invalid_argument("Linear: input must be [N, in], got " +
                                shape_to_string(input.shape()));
  }
  return ag::add(ag::matmul_nt(input, weight_), bias_);
}

void Linear::collect_parameters(std::vector<ag::Var>& out) {
  out.push_back(weight_);
  out.push_back(bias_);
}

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int pad, int stride, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      pad_(pad),
      stride_(stride),
      weight_(ag::Var::leaf(kaiming({out_channels, in_channels * kernel * kernel},
                                    static_cast<std::int64_t>(in_channels) * kernel * kernel,
                                    rng))),
      bias_(ag::Var::leaf(Tensor::zeros({out_channels}))) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || pad < 0 || stride <= 0) {
    throw std::invalid_argument("Conv2d: bad geometry");
  }
}

ag::Var Conv2d::forward(const ag::Var& input) {
  const auto& s = input.shape();
  if (s.size() != 4 || s[1] != in_channels_) {
    throw std::invalid_argument("Conv2d: input must be [N," + std::to_string(in_channels_) +
                                ",H,W], got " + shape_to_string(s));
  }
  const std::int64_t n = s[0], h = s[2], w = s[3];
  const std::int64_t oh = (h + 2 * pad_ - kernel_) / stride_ + 1;
  const std::int64_t ow = (w + 2 * pad_ - kernel_) / stride_ + 1;
  const ag::Var cols = ag::im2col(input, kernel_, pad_, stride_);  // [C*k*k, N*OH*OW]
  ag::Var out = ag::matmul(weight_, cols);                          // [F, N*OH*OW]
  out = ag::reshape(out, {out_channels_, n, oh, ow});
  out = ag::permute(out, {1, 0, 2, 3});                             // [N,F,OH,OW]
  return ag::add(out, ag::reshape(bias_, {1, out_channels_, 1, 1}));
}

void Conv2d::collect_parameters(std::vector<ag::Var>& out) {
  out.push_back(weight_);
  out.push_back(bias_);
}

InstanceNorm2d::InstanceNorm2d(int channels, float eps)
    : eps_(eps),
      gamma_(ag::Var::leaf(Tensor::ones({1, channels, 1, 1}))),
      beta_(ag::Var::leaf(Tensor::zeros({1, channels, 1, 1}))) {
  if (channels <= 0) throw std::invalid_argument("InstanceNorm2d: channels must be positive");
}

ag::Var InstanceNorm2d::forward(const ag::Var& input) {
  const auto& s = input.shape();
  if (s.size() != 4) {
    throw std::invalid_argument("InstanceNorm2d: input must be [N,C,H,W], got " +
                                shape_to_string(s));
  }
  const std::int64_t n = s[0], c = s[1], h = s[2], w = s[3];
  const float inv_hw = 1.0f / static_cast<float>(h * w);
  const Shape stat_shape{n, c, 1, 1};
  const ag::Var mean = ag::mul_scalar(ag::reduce_sum_to(input, stat_shape), inv_hw);
  const ag::Var centered = ag::sub(input, mean);
  const ag::Var var = ag::mul_scalar(ag::reduce_sum_to(ag::square(centered), stat_shape), inv_hw);
  const ag::Var inv_std = ag::div(ag::scalar(1.0f), ag::sqrt(ag::add_scalar(var, eps_)));
  const ag::Var normalized = ag::mul(centered, inv_std);
  return ag::add(ag::mul(normalized, gamma_), beta_);
}

void InstanceNorm2d::collect_parameters(std::vector<ag::Var>& out) {
  out.push_back(gamma_);
  out.push_back(beta_);
}

AvgPool2d::AvgPool2d(int kernel) : kernel_(kernel) {
  if (kernel <= 0) throw std::invalid_argument("AvgPool2d: kernel must be positive");
}

ag::Var AvgPool2d::forward(const ag::Var& input) {
  const auto& s = input.shape();
  if (s.size() != 4 || s[2] % kernel_ != 0 || s[3] % kernel_ != 0) {
    throw std::invalid_argument("AvgPool2d: input " + shape_to_string(s) +
                                " not divisible by kernel " + std::to_string(kernel_));
  }
  return ag::mul_scalar(ag::sum_pool2d(input, kernel_),
                        1.0f / static_cast<float>(kernel_ * kernel_));
}

ag::Var Flatten::forward(const ag::Var& input) {
  const auto& s = input.shape();
  if (s.empty()) throw std::invalid_argument("Flatten: scalar input");
  std::int64_t features = 1;
  for (std::size_t i = 1; i < s.size(); ++i) features *= s[i];
  return ag::reshape(input, {s[0], features});
}

}  // namespace quickdrop::nn
