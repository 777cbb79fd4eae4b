#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/matrix.h"

namespace gnn4tdl {

class TapeVerifier;
struct TapePlan;

/// Controls for Backward().
struct BackwardOptions {
  /// Test hook: poison released values with quiet NaNs in place instead of
  /// freeing them, so a use-after-release surfaces as the first non-finite
  /// node in a TapeVerifier check_finite sweep rather than as silent reuse.
  bool poison_released = false;
};

/// A node in the reverse-mode autodiff tape. Tensor is a cheap shared handle:
/// copying it copies the handle, not the data. Every op in nn/ops.h creates a
/// fresh Tensor whose `backward_fn` routes the incoming gradient to its
/// parents; Backward() on a scalar loss then runs the tape in reverse
/// creation order.
///
/// Parameters are "leaf" tensors created with requires_grad=true; their
/// gradients accumulate across Backward() calls until ZeroGrad().
class Tensor {
 public:
  /// Null handle; most code should use the factories below.
  Tensor() = default;

  /// Leaf tensor holding `value`.
  static Tensor Leaf(Matrix value, bool requires_grad = false);

  /// Leaf wrapper for constants (requires_grad=false).
  static Tensor Constant(Matrix value) { return Leaf(std::move(value), false); }

  /// Interior node produced by an op. `backward_fn(grad_out)` must accumulate
  /// into the parents' grads. Ops should only list parents that require grad
  /// flow (constants may be captured in the closure instead).
  ///
  /// `op` names the producing op in TapeVerifier diagnostics; when empty, the
  /// innermost live TapeOpScope on this thread supplies the name.
  static Tensor FromOp(Matrix value, std::vector<Tensor> parents,
                       std::function<void(const Matrix&)> backward_fn,
                       std::string op = {});

  /// FromOp for an op whose backward reads its own output (the fused
  /// activation epilogues): `backward_fn(grad_out, output)` receives this
  /// node's value, so the closure keeps no copy of it. The value is alive
  /// whenever the backward runs (Backward() frees it only afterwards).
  static Tensor FromOpWithOutput(
      Matrix value, std::vector<Tensor> parents,
      std::function<void(const Matrix& grad, const Matrix& output)>
          backward_fn);

  bool defined() const { return impl_ != nullptr; }

  const Matrix& value() const { return impl_->value; }
  /// Mutable access to the stored value. Tensor is a shared handle, so this is
  /// shallow-const (usable on const handles) — like shared_ptr::operator*.
  Matrix& mutable_value() const { return impl_->value; }

  /// Accumulated gradient. Zero-shaped until the first Backward() reaches
  /// this node.
  const Matrix& grad() const { return impl_->grad; }

  bool requires_grad() const { return impl_->requires_grad; }

  /// Name of the op that produced this node ("" for leaves and unnamed ops).
  const std::string& op_name() const { return impl_->op; }

  size_t rows() const { return impl_->value.rows(); }
  size_t cols() const { return impl_->value.cols(); }

  /// Runs reverse-mode autodiff from this node, which must be 1x1 (a scalar
  /// loss). Gradients accumulate into every reachable tensor with
  /// requires_grad (leaves keep them until ZeroGrad()).
  ///
  /// A tape walks backward once, freeing as it goes (docs/MEMORY.md): after
  /// a node's backward_fn has run, its gradient buffer, its closure (captured
  /// parent handles and forward temporaries) and, when no handle outside the
  /// tape still references the node, its value are released at that last
  /// use instead of surviving until the tape dies. Numerics do not depend on
  /// it; a node still held by a handle keeps its value, but no gradient flows
  /// through it again.
  void Backward() const;

  /// Backward() with the test hook of BackwardOptions.
  void Backward(const BackwardOptions& options) const;

  /// Clears this node's accumulated gradient.
  void ZeroGrad() const;

  /// Adds `g` into this node's gradient buffer (allocating it on first use).
  void AccumulateGrad(const Matrix& g) const;

  /// AccumulateGrad for a gradient the caller gives up: the first write
  /// turns `g` into 0.0 + g in place and moves it in, with no new buffer.
  void AccumulateGrad(Matrix&& g) const;

  /// Stable identity for use as a map key.
  const void* id() const { return impl_.get(); }

  /// Tensors (leaves and op outputs) created so far in this process: lets a
  /// test check that a forward records no tape.
  static uint64_t NodesCreated();

  /// Number of distinct tape nodes reachable from this one through parent
  /// edges, including this node — the size of the graph Backward() would
  /// walk. O(nodes) each call; intended for per-epoch observability, not
  /// inner loops.
  size_t TapeSize() const;

 private:
  friend class TapeVerifier;
  friend TapePlan BuildTapePlan(const Tensor& root);

  struct Impl {
    Matrix value;
    Matrix grad;  // empty until first accumulation
    bool requires_grad = false;
    uint64_t seq = 0;  // creation order; children always have larger seq
    std::string op;    // producing op, for diagnostics ("" = leaf/unnamed)
    std::vector<Tensor> parents;
    std::function<void(const Matrix&)> backward_fn;
  };

  /// "tape node #<seq> (op=<op>, RxC)" — how verifier messages name nodes.
  static std::string DescribeNode(const Impl* node);

  /// TapeVerifier's shape probe: dry-runs `node->backward_fn` with a zero
  /// upstream gradient while AccumulateGrad is redirected to validate — not
  /// mutate — so a backward_fn that emits a wrongly-shaped gradient or writes
  /// to an undeclared tensor is reported into `errors` instead of corrupting
  /// grads or aborting.
  static void ProbeBackward(Impl* node, std::vector<std::string>* errors);

  std::shared_ptr<Impl> impl_;
};

/// RAII op-name annotation for the tape. While alive, FromOp calls on this
/// thread that pass no explicit name tag their nodes with `name`; scopes nest,
/// innermost wins (an op composed of other ops labels only the nodes it
/// creates directly). Every op in nn/ops.cc opens one, so TapeVerifier errors
/// can say "op=MatMul" instead of just a node number.
class TapeOpScope {
 public:
  explicit TapeOpScope(const char* name);
  ~TapeOpScope();

  TapeOpScope(const TapeOpScope&) = delete;
  TapeOpScope& operator=(const TapeOpScope&) = delete;

 private:
  const char* prev_;
};

}  // namespace gnn4tdl
