// Neural-network module abstraction over the autograd engine.
//
// Parameters are persistent leaf Vars owned by their module; each forward()
// builds a fresh graph referencing those leaves, so `ag::grad(loss,
// module.parameters())` yields parameter gradients and an optimizer mutates
// the leaf tensors in place.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/var.h"

namespace quickdrop::nn {

/// Base class for layers and models.
class Module {
 public:
  virtual ~Module() = default;

  /// Builds the forward graph for a batch input.
  virtual ag::Var forward(const ag::Var& input) = 0;

  /// Appends this module's parameter leaves to `out` in a stable order.
  virtual void collect_parameters(std::vector<ag::Var>& out) = 0;

  /// All parameter leaves, in a stable order.
  [[nodiscard]] std::vector<ag::Var> parameters();

  /// Total number of scalar parameters.
  [[nodiscard]] std::int64_t num_parameters();

  /// Convenience: forward on a raw tensor treated as constant input.
  ag::Var forward_tensor(const Tensor& input) { return forward(ag::Var::constant(input)); }

  /// Read-only forward (evaluation): runs forward_tensor under an
  /// ag::NoGraphScope, so no graph is built behind the result.
  [[nodiscard]] Tensor predict(const Tensor& input);
};

/// A chain of modules applied in order. Owns its children.
class Sequential final : public Module {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for chaining.
  Sequential& add(std::unique_ptr<Module> layer);

  ag::Var forward(const ag::Var& input) override;
  void collect_parameters(std::vector<ag::Var>& out) override;

  [[nodiscard]] std::size_t size() const { return layers_.size(); }
  [[nodiscard]] Module& layer(std::size_t i) { return *layers_.at(i); }

 private:
  std::vector<std::unique_ptr<Module>> layers_;
};

}  // namespace quickdrop::nn
