#include "autograd/var.h"

#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "autograd/ops.h"

namespace quickdrop::ag {

namespace {
thread_local bool tls_no_graph = false;
}  // namespace

NoGraphScope::NoGraphScope() : outer_(tls_no_graph) { tls_no_graph = true; }

NoGraphScope::~NoGraphScope() { tls_no_graph = outer_; }

bool NoGraphScope::active() { return tls_no_graph; }

Var Var::leaf(Tensor value) {
  return Var(std::make_shared<detail::Node>(std::move(value), "leaf", true));
}

Var Var::constant(Tensor value) {
  return Var(std::make_shared<detail::Node>(std::move(value), "const", false));
}

const Tensor& Var::value() const {
  if (!node_) throw std::logic_error("Var::value: null Var");
  return node_->value;
}

Tensor& Var::mutable_value() {
  if (!node_) throw std::logic_error("Var::mutable_value: null Var");
  return node_->value;
}

bool Var::requires_grad() const { return node_ && node_->requires_grad; }

Var Var::detach() const { return constant(value()); }

Var Var::make_op(const char* op, Tensor value, std::initializer_list<Var> parents, VjpFn vjp) {
  if (parents.size() > 2) throw std::logic_error("Var::make_op: more than two parents");
  auto n = std::make_shared<detail::Node>(std::move(value), op, false);
  if (tls_no_graph) return Var(std::move(n));
  for (const auto& p : parents) {
    if (!p.defined()) throw std::logic_error("Var::make_op: null parent");
    n->requires_grad = n->requires_grad || p.requires_grad();
    n->parents[n->arity++] = p;
  }
  if (n->requires_grad) n->vjp = std::move(vjp);  // constants need no backward closure
  return Var(std::move(n));
}

namespace {

using detail::Node;

/// One requires_grad node of the backward, in topological order.
struct Entry {
  Node* node;
  /// Topological position of each parent, -1 where it takes no gradient.
  std::int32_t parent_pos[2];
  bool needed;  // an input, or a node with a needed parent
  bool input;   // its gradient is returned, so the sweep keeps it
};

/// Per-node lookup state of one grad() call.
struct Mark {
  std::int32_t pos = -1;  // position in the order once visited
  bool input = false;
};

/// Topological order (parents before children) of the requires_grad
/// subgraph reachable from `root`, by an iterative depth-first walk that
/// descends into parents in slot order. Each entry records its parents'
/// positions and whether it is needed. `marks` holds the inputs on entry.
std::vector<Entry> topo_order(Node* root, std::unordered_map<Node*, Mark>& marks) {
  std::vector<Entry> order;
  struct Frame {
    Node* node;
    std::uint8_t next_parent = 0;
    std::int32_t parent_pos[2] = {-1, -1};
  };
  std::vector<Frame> stack;
  stack.push_back({root});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    bool descended = false;
    while (frame.next_parent < frame.node->arity) {
      const int i = frame.next_parent++;
      Node* parent = frame.node->parents[static_cast<std::size_t>(i)].node().get();
      if (!parent->requires_grad) continue;
      const auto it = marks.find(parent);
      if (it != marks.end() && it->second.pos >= 0) {
        frame.parent_pos[i] = it->second.pos;
        continue;
      }
      stack.push_back({parent});
      descended = true;
      break;
    }
    if (descended) continue;
    // Every parent is placed: place this node after them.
    const auto pos = static_cast<std::int32_t>(order.size());
    Mark& mark = marks[frame.node];
    mark.pos = pos;
    Entry e{frame.node, {frame.parent_pos[0], frame.parent_pos[1]}, mark.input, mark.input};
    for (const std::int32_t p : e.parent_pos) {
      e.needed = e.needed || (p >= 0 && order[static_cast<std::size_t>(p)].needed);
    }
    order.push_back(e);
    stack.pop_back();
    // The frame below descended into this node from its last-visited slot.
    if (!stack.empty()) stack.back().parent_pos[stack.back().next_parent - 1] = pos;
  }
  return order;
}

}  // namespace

std::vector<Var> grad(const Var& output, std::span<const Var> inputs, const GradOptions& options) {
  if (!output.defined()) throw std::invalid_argument("grad: null output");
  if (output.value().numel() != 1) {
    throw std::invalid_argument("grad: output must be a single element, got shape " +
                                shape_to_string(output.shape()));
  }
  for (const auto& input : inputs) {
    if (!input.defined()) throw std::invalid_argument("grad: null input");
  }
  if (options.create_graph && NoGraphScope::active()) {
    throw std::logic_error("grad: create_graph inside a NoGraphScope");
  }

  // Lookup-only table. Accumulation is driven by the deterministic
  // topological sweep below, never by iterating this map — pointer-keyed hash
  // order varies with allocation addresses, so any range-for/begin() walk
  // here would break bitwise reproducibility (enforced statically by
  // qdlint det-unordered-iter; pinned by GradDeterminismTest).
  std::unordered_map<Node*, Mark> marks;
  for (const auto& input : inputs) marks[input.node().get()].input = true;

  std::vector<Entry> order;
  std::vector<Var> grads;  // by topological position
  if (output.requires_grad()) {
    order = topo_order(output.node().get(), marks);
    grads.resize(order.size());
    grads.back() = Var::constant(Tensor::full(output.shape(), 1.0f));  // the root is last

    // Children appear after their parents; sweep in reverse. A node that is
    // not needed leads to no input, so its VJP is skipped; a needed node's
    // contributors are all needed, so each needed gradient sums the same
    // terms in the same order as a full backward would. A first-order sweep
    // records no graph: the VJPs run the same kernels on the same values,
    // and every gradient they build is a constant.
    std::optional<NoGraphScope> no_graph;
    if (!options.create_graph) no_graph.emplace();
    ParentGrads parent_grads;
    for (std::size_t pos = order.size(); pos-- > 0;) {
      const Entry& e = order[pos];
      // Every contribution to this slot is in: the sweep reads it once, here,
      // and drops it unless it is returned.
      const Var gy = e.input ? grads[pos] : std::move(grads[pos]);
      if (!e.needed || !gy.defined() || !e.node->vjp) continue;
      unsigned need = 0;
      for (unsigned i = 0; i < 2; ++i) {
        const std::int32_t p = e.parent_pos[i];
        if (p >= 0 && order[static_cast<std::size_t>(p)].needed) need |= 1u << i;
      }
      if (need == 0) continue;
      parent_grads = {};
      e.node->vjp(*e.node, gy, need, parent_grads);
      for (unsigned i = 0; i < 2; ++i) {
        Var& pg = parent_grads[i];
        if ((need >> i & 1u) == 0 || !pg.defined()) continue;
        if (pg.shape() != e.node->parents[i].shape()) {
          check_same_shape(pg.shape(), e.node->parents[i].shape(),
                           (std::string("grad: vjp shape for op ") + e.node->op).c_str());
        }
        Var& slot = grads[static_cast<std::size_t>(e.parent_pos[i])];
        slot = slot.defined() ? add(slot, pg) : std::move(pg);
      }
    }
  }

  std::vector<Var> result;
  result.reserve(inputs.size());
  for (const auto& input : inputs) {
    const std::int32_t pos = marks.find(input.node().get())->second.pos;
    const Var* g = pos >= 0 ? &grads[static_cast<std::size_t>(pos)] : nullptr;
    result.push_back(g != nullptr && g->defined() ? *g
                                                  : Var::constant(Tensor::zeros(input.shape())));
  }
  return result;
}

std::vector<Var> grad(const Var& output, std::initializer_list<Var> inputs,
                      const GradOptions& options) {
  return grad(output, std::span<const Var>(inputs.begin(), inputs.size()), options);
}

}  // namespace quickdrop::ag
