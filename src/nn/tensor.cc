#include "nn/tensor.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/parallel.h"

namespace gnn4tdl {

namespace {

std::atomic<uint64_t> g_tensor_seq{0};

// Doubles per chunk of the first gradient write (tensor/matrix.cc's
// elementwise grain).
constexpr size_t kElemGrain = 16384;

// Innermost live TapeOpScope's name for this thread ("" = none).
thread_local const char* g_current_op = "";

// Installed by Tensor::ProbeBackward for the duration of one backward_fn
// dry-run. While active, AccumulateGrad validates instead of mutating.
struct ProbeState {
  bool active = false;
  std::string node_desc;                // the interior node being probed
  std::vector<const void*> parent_ids;  // its declared parents (Impl*)
  std::vector<std::string>* errors = nullptr;
};
thread_local ProbeState g_probe;

std::string ShapeString(size_t rows, size_t cols) {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

}  // namespace

TapeOpScope::TapeOpScope(const char* name) : prev_(g_current_op) {
  g_current_op = name;
}

TapeOpScope::~TapeOpScope() { g_current_op = prev_; }

Tensor Tensor::Leaf(Matrix value, bool requires_grad) {
  Tensor t;
  t.impl_ = std::make_shared<Impl>();
  t.impl_->value = std::move(value);
  t.impl_->requires_grad = requires_grad;
  t.impl_->seq = g_tensor_seq.fetch_add(1);
  return t;
}

Tensor Tensor::FromOp(Matrix value, std::vector<Tensor> parents,
                      std::function<void(const Matrix&)> backward_fn,
                      std::string op) {
  Tensor t;
  t.impl_ = std::make_shared<Impl>();
  t.impl_->value = std::move(value);
  // An op output needs grad iff any parent does.
  for (const Tensor& p : parents) {
    GNN4TDL_CHECK(p.defined());
    if (p.requires_grad()) t.impl_->requires_grad = true;
  }
  t.impl_->parents = std::move(parents);
  t.impl_->backward_fn = std::move(backward_fn);
  t.impl_->op = op.empty() ? std::string(g_current_op) : std::move(op);
  t.impl_->seq = g_tensor_seq.fetch_add(1);
  return t;
}

Tensor Tensor::FromOpWithOutput(
    Matrix value, std::vector<Tensor> parents,
    std::function<void(const Matrix& grad, const Matrix& output)>
        backward_fn) {
  Tensor t = FromOp(std::move(value), std::move(parents), nullptr);
  // The closure lives inside the node it points at, so `self` is valid
  // whenever it runs and adds no ownership cycle.
  const Impl* self = t.impl_.get();
  t.impl_->backward_fn = [self, fn = std::move(backward_fn)](
                             const Matrix& g) { fn(g, self->value); };
  return t;
}

uint64_t Tensor::NodesCreated() { return g_tensor_seq.load(); }

std::string Tensor::DescribeNode(const Impl* node) {
  std::string desc = "tape node #" + std::to_string(node->seq) + " (";
  if (node->backward_fn) {
    desc += "op=" + (node->op.empty() ? std::string("?") : node->op);
  } else {
    desc += node->op.empty() ? "leaf" : "leaf op=" + node->op;
  }
  desc += ", " + ShapeString(node->value.rows(), node->value.cols()) + ")";
  return desc;
}

void Tensor::ProbeBackward(Impl* node, std::vector<std::string>* errors) {
  if (!node->backward_fn) return;
  g_probe.active = true;
  g_probe.node_desc = DescribeNode(node);
  g_probe.parent_ids.clear();
  for (const Tensor& p : node->parents) {
    g_probe.parent_ids.push_back(p.impl_.get());
  }
  g_probe.errors = errors;
  node->backward_fn(Matrix::Zeros(node->value.rows(), node->value.cols()));
  g_probe.active = false;
  g_probe.errors = nullptr;
}

void Tensor::AccumulateGrad(const Matrix& g) const {
  GNN4TDL_CHECK(defined());
  if (g_probe.active) {
    // TapeVerifier dry-run: report problems, touch nothing.
    if (std::find(g_probe.parent_ids.begin(), g_probe.parent_ids.end(),
                  impl_.get()) == g_probe.parent_ids.end()) {
      g_probe.errors->push_back(
          g_probe.node_desc + ": backward_fn accumulates into " +
          DescribeNode(impl_.get()) + ", which is not a declared parent");
    }
    if (g.rows() != impl_->value.rows() || g.cols() != impl_->value.cols()) {
      g_probe.errors->push_back(
          g_probe.node_desc + ": backward_fn produced a " +
          ShapeString(g.rows(), g.cols()) + " gradient for " +
          DescribeNode(impl_.get()) + ", expected " +
          ShapeString(impl_->value.rows(), impl_->value.cols()));
    }
    return;
  }
  if (!impl_->grad.empty()) {
    impl_->grad += g;
    return;
  }
  // The first gradient is 0.0 + g, written in one parallel pass. It is not
  // a copy of g: the sum turns a -0.0 into +0.0, as accumulating into a
  // zero start does.
  GNN4TDL_CHECK_EQ(g.rows(), impl_->value.rows());
  GNN4TDL_CHECK_EQ(g.cols(), impl_->value.cols());
  Matrix grad = Matrix::Uninitialized(g.rows(), g.cols());
  const double* src = g.data();
  double* dst = grad.data();
  ParallelFor(0, grad.size(), kElemGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) dst[i] = 0.0 + src[i];
  });
  impl_->grad = std::move(grad);
}

void Tensor::ZeroGrad() const {
  GNN4TDL_CHECK(defined());
  impl_->grad = Matrix();
}

size_t Tensor::TapeSize() const {
  if (!defined()) return 0;
  // Unlike Backward(), count every reachable node (not just requires_grad
  // ones): the tape holds all of them alive, and memory is what this number
  // is observing.
  std::unordered_set<const Impl*> seen;
  std::vector<const Impl*> stack = {impl_.get()};
  while (!stack.empty()) {
    const Impl* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) continue;
    for (const Tensor& p : node->parents) {
      if (p.defined()) stack.push_back(p.impl_.get());
    }
  }
  return seen.size();
}

void Tensor::Backward() const { Backward(BackwardOptions{}); }

void Tensor::Backward(const BackwardOptions& options) const {
  GNN4TDL_CHECK(defined());
  GNN4TDL_CHECK_MSG(rows() == 1 && cols() == 1,
                    "Backward() requires a scalar (1x1) loss tensor");

  // Collect the reachable subgraph that requires grad.
  std::vector<Impl*> order;
  std::unordered_set<Impl*> seen;
  std::vector<Impl*> stack = {impl_.get()};
  while (!stack.empty()) {
    Impl* node = stack.back();
    stack.pop_back();
    if (!node->requires_grad || seen.count(node)) continue;
    seen.insert(node);
    order.push_back(node);
    for (const Tensor& p : node->parents) stack.push_back(p.impl_.get());
  }

  // Reverse creation order is a valid reverse-topological order: an op's
  // output is always created after all of its parents.
  std::sort(order.begin(), order.end(),
            [](const Impl* a, const Impl* b) { return a->seq > b->seq; });

  // Free-at-last-use bookkeeping (docs/MEMORY.md). In reverse-seq execution
  // every consumer of node X runs before X itself, and backward_fns read only
  // their parents' values and closure state — so X's value is dead the moment
  // X's own backward_fn returns. It may be freed then unless a handle outside
  // the tape still references X. That is detected by refcounting: once the
  // closures of X's children (processed earlier) have been torn down, the
  // only in-tape references left to X are its children's parent lists, which
  // we can count; any surplus use_count is an external holder (a model
  // caching an intermediate, a test asserting on it) and vetoes the release.
  std::unordered_map<Impl*, size_t> internal_refs;
  std::unordered_map<Impl*, Tensor> handle_of;  // one extra ref each, see below
  if (options.release_values) {
    for (Impl* node : order) {
      for (const Tensor& p : node->parents) {
        if (!p.impl_->requires_grad) continue;
        ++internal_refs[p.impl_.get()];
        handle_of.emplace(p.impl_.get(), p);
      }
    }
  }

  AccumulateGrad(Matrix::Ones(1, 1));
  for (Impl* node : order) {
    if (node->backward_fn && !node->grad.empty()) {
      node->backward_fn(node->grad);
    }
    if (!options.release_values || !node->backward_fn) continue;
    // This node's contribution is fully routed: its gradient and its closure
    // (captured parent handles plus forward temporaries such as dropout
    // masks and softmax caches) are dead now.
    node->backward_fn = nullptr;
    node->grad = Matrix();
    if (node == impl_.get()) continue;  // callers read the loss value
    auto it = handle_of.find(node);
    if (it == handle_of.end()) continue;
    // +1 accounts for the handle_of copy itself.
    if (static_cast<size_t>(it->second.impl_.use_count()) !=
        internal_refs[node] + 1) {
      continue;  // externally held: value must survive
    }
    if (options.poison_released) {
      Matrix& v = node->value;
      std::fill(v.data(), v.data() + v.size(),
                std::numeric_limits<double>::quiet_NaN());
    } else {
      node->value = Matrix();
    }
  }

  if (!options.release_values) {
    // Free interior gradient buffers (leaves keep theirs for the optimizer);
    // the tape itself is freed when the loss tensor goes out of scope.
    for (Impl* node : order) {
      if (node->backward_fn) node->grad = Matrix();
    }
  }
}

}  // namespace gnn4tdl
