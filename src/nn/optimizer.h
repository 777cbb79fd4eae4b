#pragma once

#include <vector>

#include "nn/tensor.h"

namespace gnn4tdl {

/// Adam (Kingma & Ba) over a fixed set of parameter tensors, with the
/// paper's default moments: β1 = 0.9, β2 = 0.999, ε = 1e-8. Callers run
/// ZeroGrad() -> forward -> Backward() -> Step().
class Adam {
 public:
  static constexpr double kBeta1 = 0.9;
  static constexpr double kBeta2 = 0.999;
  static constexpr double kEpsilon = 1e-8;

  Adam(std::vector<Tensor> params, double learning_rate);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update using the gradients currently accumulated on the
  /// parameters. Parameters with empty gradients are skipped.
  void Step();

  /// Clears gradients on all parameters.
  void ZeroGrad();

 private:
  std::vector<Tensor> params_;
  double lr_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  int64_t t_ = 0;
};

}  // namespace gnn4tdl
