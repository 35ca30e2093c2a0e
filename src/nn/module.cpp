#include "nn/module.h"

namespace quickdrop::nn {

std::vector<ag::Var> Module::parameters() {
  std::vector<ag::Var> out;
  collect_parameters(out);
  return out;
}

std::int64_t Module::num_parameters() {
  std::int64_t n = 0;
  for (const auto& p : parameters()) n += p.value().numel();
  return n;
}

Tensor Module::predict(const Tensor& input) {
  const ag::NoGraphScope no_graph;
  return forward_tensor(input).value();
}

Sequential& Sequential::add(std::unique_ptr<Module> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

ag::Var Sequential::forward(const ag::Var& input) {
  ag::Var x = input;
  for (const auto& layer : layers_) x = layer->forward(x);
  return x;
}

void Sequential::collect_parameters(std::vector<ag::Var>& out) {
  for (const auto& layer : layers_) layer->collect_parameters(out);
}

}  // namespace quickdrop::nn
