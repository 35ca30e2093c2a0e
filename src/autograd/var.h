// Define-by-run automatic differentiation.
//
// A Var is a handle to a node in a dynamically built computation graph. Every
// primitive op (see ops.h) records a vector-Jacobian-product (VJP) closure
// that is itself expressed in terms of primitive ops, so gradients are
// ordinary graph nodes and can be differentiated again — the engine supports
// arbitrary-order differentiation (PyTorch's `create_graph=True` semantics).
// QuickDrop's gradient-matching distillation relies on this to differentiate
// a distance between parameter gradients with respect to synthetic pixels.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace quickdrop::ag {

class Var;

namespace detail {
struct Node;
}  // namespace detail

/// Gradients a VJP writes, slot i for parent i. A slot left undefined means
/// "no gradient for this parent".
using ParentGrads = std::array<Var, 2>;

/// Maps the gradient w.r.t. `node`'s output to gradients w.r.t. its parents,
/// read from node.parents. Bit i of `need` is set when parent i's gradient
/// is wanted; the VJP builds only those terms. grad() calls it only with a
/// non-zero `need`.
using VjpFn =
    std::function<void(const detail::Node& node, const Var& grad_output, unsigned need,
                        ParentGrads& out)>;

/// Handle to a graph node. Cheap to copy; the graph is reference counted and
/// freed when the last handle to it is dropped.
class Var {
 public:
  /// Null handle; defined() is false.
  Var() = default;

  /// Differentiable leaf wrapping the given tensor (storage is shared, so an
  /// optimizer update to the tensor is visible through the Var).
  static Var leaf(Tensor value);

  /// Non-differentiable constant.
  static Var constant(Tensor value);

  [[nodiscard]] bool defined() const { return node_ != nullptr; }
  [[nodiscard]] const Tensor& value() const;

  /// Mutable access to the underlying tensor. Only meaningful for leaves
  /// (parameters updated in place by an optimizer); mutating an op node's
  /// output would silently desynchronize the graph.
  [[nodiscard]] Tensor& mutable_value();
  [[nodiscard]] const Shape& shape() const { return value().shape(); }
  [[nodiscard]] bool requires_grad() const;

  /// A constant view of this value: gradients do not flow past it.
  [[nodiscard]] Var detach() const;

  /// Internal: constructs an op node with at most two parents. Used by
  /// ops.cpp.
  static Var make_op(const char* op, Tensor value, std::initializer_list<Var> parents, VjpFn vjp);

  [[nodiscard]] const std::shared_ptr<detail::Node>& node() const { return node_; }

 private:
  explicit Var(std::shared_ptr<detail::Node> node) : node_(std::move(node)) {}
  std::shared_ptr<detail::Node> node_;
};

namespace detail {
/// A graph node. Every primitive has one or two parents, held inline, so
/// building a node allocates the node and its value and nothing else.
struct Node {
  Node(Tensor v, const char* name, bool grad)
      : value(std::move(v)), requires_grad(grad), op(name) {}

  Tensor value;
  bool requires_grad = false;
  std::uint8_t arity = 0;  // parents[0, arity) are set
  std::array<Var, 2> parents;
  VjpFn vjp;            // empty for leaves and constants
  const char* op = "";  // op name, for diagnostics
};
}  // namespace detail

/// Options for grad().
struct GradOptions {
  /// When true, the returned gradients are themselves differentiable graph
  /// nodes (needed for higher-order derivatives). When false, gradient
  /// chains are cut eagerly to keep memory bounded.
  bool create_graph = false;
};

/// Reverse-mode gradient of a scalar `output` w.r.t. each of `inputs`.
/// Inputs that do not influence the output receive zero gradients of their
/// own shape. Throws std::invalid_argument if output is not a single element.
/// The backward visits only nodes that depend on an input, and asks each VJP
/// only for the parent terms that lead to one.
std::vector<Var> grad(const Var& output, std::span<const Var> inputs,
                      const GradOptions& options = {});

/// Convenience overload.
std::vector<Var> grad(const Var& output, std::initializer_list<Var> inputs,
                      const GradOptions& options = {});

}  // namespace quickdrop::ag
