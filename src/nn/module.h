#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kernels/kernels.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace gnn4tdl {

/// Base class for anything holding trainable parameters. Subclasses register
/// their parameter tensors (and submodules) in the constructor; optimizers
/// consume Parameters().
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters of this module and its registered submodules.
  std::vector<Tensor> Parameters() const;

  /// Total number of trainable scalars.
  size_t NumParameters() const;

  /// Clears accumulated gradients on all parameters.
  void ZeroGrad() const;

 protected:
  /// Registers a parameter created from `init`; returns the tensor handle.
  Tensor RegisterParameter(Matrix init);

  /// Registers a submodule whose parameters are included in Parameters().
  /// The submodule must outlive this module (typically a member).
  void RegisterSubmodule(Module* submodule);

 private:
  std::vector<Tensor> params_;
  std::vector<Module*> submodules_;
};

/// Activation functions selectable by config.
enum class Activation { kRelu, kLeakyRelu, kSigmoid, kTanh, kNone };

/// Fully connected layer: Y = X W + b (bias optional).
class Linear : public Module {
 public:
  /// Glorot-uniform weight init; zero bias.
  Linear(size_t in_dim, size_t out_dim, Rng& rng, bool bias = true);

  Tensor Forward(const Tensor& x) const;

  /// act(x W + b) as one fused tape node (nn/fused.h), bit-identical to
  /// the MatMul, bias add and activation composition.
  Tensor Forward(const Tensor& x, Activation act) const;

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  size_t in_dim_;
  size_t out_dim_;
  Tensor weight_;
  Tensor bias_;  // undefined if bias == false
};

/// Applies `act` to `x` as one tape node named after the activation (the
/// ops::Relu, LeakyRelu, Sigmoid or Tanh node); `x` itself for kNone.
Tensor Activate(const Tensor& x, Activation act);

/// Parses "relu" / "leaky_relu" / "sigmoid" / "tanh" / "none".
Activation ActivationFromName(const std::string& name);

/// Maps a training-tier activation to the f32 kernel tier's activation table
/// (kernels::BiasAct) — the single shared vocabulary both tiers select from,
/// so a frozen model's activation config means the same function in f64 and
/// f32 serving.
kernels::FAct ToKernelActivation(Activation act);

/// Multilayer perceptron: Linear -> act -> [dropout] -> ... -> Linear.
/// `dims` = {in, hidden..., out}; the final layer has no activation.
class Mlp : public Module {
 public:
  Mlp(const std::vector<size_t>& dims, Rng& rng,
      Activation act = Activation::kRelu, double dropout = 0.0);

  /// `training` enables dropout; `rng` draws the dropout masks. `last` is
  /// an activation applied to the output, fused into the final layer's node.
  Tensor Forward(const Tensor& x, Rng& rng, bool training = false,
                 Activation last = Activation::kNone) const;

  /// Convenience inference pass (no dropout).
  Tensor Forward(const Tensor& x, Activation last = Activation::kNone) const;

  size_t in_dim() const { return layers_.front()->in_dim(); }
  size_t out_dim() const { return layers_.back()->out_dim(); }
  const std::vector<std::unique_ptr<Linear>>& layers() const { return layers_; }
  /// The activation between layers (none after the last).
  Activation activation() const { return act_; }
  /// The dropout rate between layers, applied only when training.
  double dropout() const { return dropout_; }

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
  Activation act_;
  double dropout_;
};

}  // namespace gnn4tdl
