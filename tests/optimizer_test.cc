#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include "nn/module.h"
#include "nn/ops.h"

namespace gnn4tdl {
namespace {

// Minimizes f(x) = ||x - target||^2 and returns the final x.
Matrix MinimizeQuadratic(Adam& opt, const Tensor& x, const Matrix& target,
                         int steps) {
  for (int i = 0; i < steps; ++i) {
    opt.ZeroGrad();
    Tensor diff = ops::Sub(x, Tensor::Constant(target));
    ops::SumSquares(diff).Backward();
    opt.Step();
  }
  return x.value();
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  Tensor x = Tensor::Leaf(Matrix::Zeros(2, 2), true);
  Matrix target = Matrix::FromRows({{1, -2}, {3, 0.5}});
  Adam opt({x}, 0.1);
  Matrix final = MinimizeQuadratic(opt, x, target, 500);
  EXPECT_TRUE(final.AllClose(target, 1e-4));
}

TEST(OptimizerTest, ParametersWithEmptyGradAreSkipped) {
  Tensor used = Tensor::Leaf(Matrix::Ones(1, 1), true);
  Tensor unused = Tensor::Leaf(Matrix::Ones(1, 1), true);
  Adam opt({used, unused}, 0.5);
  opt.ZeroGrad();
  ops::SumSquares(used).Backward();
  opt.Step();
  EXPECT_NE(used.value()(0, 0), 1.0);
  EXPECT_EQ(unused.value()(0, 0), 1.0);
}

TEST(OptimizerTest, TrainsMlpOnLinearlySeparableData) {
  Rng rng(9);
  // Two Gaussian blobs, labels by x-coordinate sign.
  Matrix x_data(40, 2);
  std::vector<int> labels(40);
  for (size_t i = 0; i < 40; ++i) {
    double cls = i < 20 ? -2.0 : 2.0;
    x_data(i, 0) = cls + rng.Normal(0, 0.4);
    x_data(i, 1) = rng.Normal(0, 0.4);
    labels[i] = i < 20 ? 0 : 1;
  }
  Mlp mlp({2, 8, 2}, rng);
  Adam opt(mlp.Parameters(), 0.05);
  Tensor x = Tensor::Constant(x_data);
  for (int epoch = 0; epoch < 100; ++epoch) {
    opt.ZeroGrad();
    ops::SoftmaxCrossEntropy(mlp.Forward(x), labels).Backward();
    opt.Step();
  }
  Tensor logits = mlp.Forward(x);
  int correct = 0;
  for (size_t i = 0; i < 40; ++i)
    if (static_cast<int>(logits.value().ArgMaxRow(i)) == labels[i]) ++correct;
  EXPECT_GE(correct, 38);
}

}  // namespace
}  // namespace gnn4tdl
