#include <cmath>

#include <gtest/gtest.h>

#include "nn/ops.h"
#include "nn/tensor.h"

namespace gnn4tdl {
namespace {

TEST(AutogradTest, LeafHoldsValue) {
  Tensor t = Tensor::Leaf(Matrix::FromRows({{1, 2}}), true);
  EXPECT_TRUE(t.requires_grad());
  EXPECT_EQ(t.value()(0, 1), 2.0);
  EXPECT_TRUE(t.grad().empty());
}

TEST(AutogradTest, ConstantDoesNotRequireGrad) {
  Tensor t = Tensor::Constant(Matrix::Ones(2, 2));
  EXPECT_FALSE(t.requires_grad());
}

TEST(AutogradTest, BackwardThroughSum) {
  Tensor x = Tensor::Leaf(Matrix::FromRows({{1, 2}, {3, 4}}), true);
  Tensor loss = ops::SumAll(x);
  loss.Backward();
  EXPECT_TRUE(x.grad().AllClose(Matrix::Ones(2, 2), 0.0));
}

TEST(AutogradTest, GradientsAccumulateAcrossBackwardCalls) {
  Tensor x = Tensor::Leaf(Matrix::Ones(1, 2), true);
  ops::SumAll(x).Backward();
  ops::SumAll(x).Backward();
  EXPECT_TRUE(x.grad().AllClose(Matrix::Full(1, 2, 2.0), 0.0));
  x.ZeroGrad();
  EXPECT_TRUE(x.grad().empty());
}

// A gradient handed over as a temporary lands as 0.0 + g, as a kept one
// does: -0.0 turns into +0.0. A second write adds into it.
TEST(AutogradTest, TemporaryFirstGradientIsZeroPlusG) {
  const Matrix g = Matrix::FromRows({{-0.0, 1.5}, {0.0, -2.0}});
  for (bool temporary : {false, true}) {
    SCOPED_TRACE(temporary ? "temporary" : "kept");
    Tensor x = Tensor::Leaf(Matrix::Zeros(2, 2), true);
    if (temporary) {
      x.AccumulateGrad(Matrix(g));
    } else {
      x.AccumulateGrad(g);
    }
    EXPECT_FALSE(std::signbit(x.grad()(0, 0)));
    EXPECT_EQ(x.grad()(0, 1), 1.5);
    EXPECT_EQ(x.grad()(1, 1), -2.0);
    x.AccumulateGrad(Matrix(g));
    EXPECT_EQ(x.grad()(0, 1), 3.0);
    EXPECT_EQ(x.grad()(1, 1), -4.0);
  }
}

TEST(AutogradTest, DiamondDependencyGradientsSum) {
  // loss = sum(x + x) => dloss/dx = 2.
  Tensor x = Tensor::Leaf(Matrix::Ones(2, 2), true);
  Tensor loss = ops::SumAll(ops::Add(x, x));
  loss.Backward();
  EXPECT_TRUE(x.grad().AllClose(Matrix::Full(2, 2, 2.0), 0.0));
}

TEST(AutogradTest, ChainRuleThroughScale) {
  // loss = sum(3 * x * x) => d/dx = 6x.
  Tensor x = Tensor::Leaf(Matrix::FromRows({{2.0}}), true);
  Tensor loss = ops::SumAll(ops::Scale(ops::CwiseMul(x, x), 3.0));
  loss.Backward();
  EXPECT_NEAR(x.grad()(0, 0), 12.0, 1e-12);
}

TEST(AutogradTest, NoGradFlowsToConstants) {
  Tensor x = Tensor::Leaf(Matrix::Ones(1, 1), true);
  Tensor c = Tensor::Constant(Matrix::Ones(1, 1));
  Tensor loss = ops::SumAll(ops::CwiseMul(x, c));
  loss.Backward();
  EXPECT_TRUE(c.grad().empty());
  EXPECT_EQ(x.grad()(0, 0), 1.0);
}

TEST(AutogradTest, MatMulForwardValue) {
  Tensor a = Tensor::Leaf(Matrix::FromRows({{1, 2}}), true);
  Tensor b = Tensor::Leaf(Matrix::FromRows({{3}, {4}}), true);
  Tensor c = ops::MatMul(a, b);
  EXPECT_EQ(c.value()(0, 0), 11.0);
}

TEST(AutogradTest, MatMulBackwardHandComputed) {
  // loss = sum(A B); dA = ones * B^T, dB = A^T * ones.
  Tensor a = Tensor::Leaf(Matrix::FromRows({{1, 2}, {3, 4}}), true);
  Tensor b = Tensor::Leaf(Matrix::FromRows({{5, 6}, {7, 8}}), true);
  ops::SumAll(ops::MatMul(a, b)).Backward();
  EXPECT_TRUE(a.grad().AllClose(Matrix::FromRows({{11, 15}, {11, 15}}), 1e-12));
  EXPECT_TRUE(b.grad().AllClose(Matrix::FromRows({{4, 4}, {6, 6}}), 1e-12));
}

TEST(AutogradTest, ReluMasksNegativeGradient) {
  Tensor x = Tensor::Leaf(Matrix::FromRows({{-1.0, 2.0}}), true);
  ops::SumAll(ops::Relu(x)).Backward();
  EXPECT_EQ(x.grad()(0, 0), 0.0);
  EXPECT_EQ(x.grad()(0, 1), 1.0);
}

TEST(AutogradTest, SoftmaxRowsSumToOne) {
  Tensor x = Tensor::Leaf(Matrix::FromRows({{1, 2, 3}, {0, 0, 0}}), true);
  Tensor s = ops::SoftmaxRows(x);
  for (size_t r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < 3; ++c) sum += s.value()(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  EXPECT_NEAR(s.value()(1, 0), 1.0 / 3.0, 1e-12);
}

TEST(AutogradTest, SoftmaxCrossEntropyValueMatchesManual) {
  // Uniform logits over 4 classes -> loss = log(4).
  Tensor logits = Tensor::Leaf(Matrix::Zeros(3, 4), true);
  Tensor loss = ops::SoftmaxCrossEntropy(logits, {0, 1, 2});
  EXPECT_NEAR(loss.value()(0, 0), std::log(4.0), 1e-12);
}

TEST(AutogradTest, SoftmaxCrossEntropyMaskedRowsGetNoGradient) {
  Rng rng(5);
  Tensor logits = Tensor::Leaf(Matrix::Randn(3, 2, rng), true);
  std::vector<double> w = {1.0, 0.0, 1.0};
  ops::SoftmaxCrossEntropy(logits, {0, 1, 1}, w).Backward();
  for (size_t c = 0; c < 2; ++c) EXPECT_EQ(logits.grad()(1, c), 0.0);
}

TEST(AutogradTest, EdgeSoftmaxNormalizesPerGroup) {
  Tensor logits = Tensor::Leaf(Matrix::FromRows({{1}, {1}, {2}, {5}}), true);
  std::vector<size_t> dst = {0, 0, 1, 1};
  Tensor w = ops::EdgeSoftmax(logits, dst, 2);
  EXPECT_NEAR(w.value()(0, 0) + w.value()(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(w.value()(2, 0) + w.value()(3, 0), 1.0, 1e-12);
  EXPECT_NEAR(w.value()(0, 0), 0.5, 1e-12);
  EXPECT_GT(w.value()(3, 0), w.value()(2, 0));
}

TEST(AutogradTest, GatherScatterRoundTrip) {
  Tensor x = Tensor::Leaf(Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}}), true);
  std::vector<size_t> idx = {0, 2, 2};
  Tensor g = ops::GatherRows(x, idx);
  EXPECT_EQ(g.value()(2, 0), 3.0);
  Tensor s = ops::ScatterAddRows(g, idx, 3);
  EXPECT_EQ(s.value()(2, 0), 6.0);  // row 2 gathered twice
  EXPECT_EQ(s.value()(1, 0), 0.0);
}

TEST(AutogradTest, SpMMMatchesDense) {
  Rng rng(3);
  SparseMatrix sp =
      SparseMatrix::FromTriplets(3, 3, {{0, 1, 2.0}, {1, 2, 1.0}, {2, 0, 0.5}});
  Tensor x = Tensor::Leaf(Matrix::Randn(3, 2, rng), true);
  Tensor out = ops::SpMM(sp, x);
  EXPECT_TRUE(out.value().AllClose(sp.ToDense().Matmul(x.value()), 1e-12));
}

TEST(AutogradTest, DropoutIdentityAtInference) {
  Rng rng(4);
  Tensor x = Tensor::Leaf(Matrix::Ones(5, 5), true);
  Tensor out = ops::Dropout(x, 0.5, rng, /*training=*/false);
  EXPECT_TRUE(out.value().AllClose(x.value(), 0.0));
}

TEST(AutogradTest, DropoutPreservesExpectation) {
  Rng rng(4);
  Tensor x = Tensor::Leaf(Matrix::Ones(200, 200), true);
  Tensor out = ops::Dropout(x, 0.3, rng, /*training=*/true);
  EXPECT_NEAR(out.value().Mean(), 1.0, 0.05);
}

TEST(AutogradTest, SegmentMeanAveragesWithinSegments) {
  Tensor x = Tensor::Leaf(Matrix::FromRows({{2}, {4}, {10}}), true);
  Tensor m = ops::SegmentMeanRows(x, {0, 0, 1}, 2);
  EXPECT_EQ(m.value()(0, 0), 3.0);
  EXPECT_EQ(m.value()(1, 0), 10.0);
}

TEST(AutogradTest, SegmentMaxTakesColumnwiseMax) {
  Tensor x = Tensor::Leaf(Matrix::FromRows({{2, 9}, {4, 1}, {10, 0}}), true);
  Tensor m = ops::SegmentMaxRows(x, {0, 0, 1}, 2);
  EXPECT_EQ(m.value()(0, 0), 4.0);
  EXPECT_EQ(m.value()(0, 1), 9.0);
  EXPECT_EQ(m.value()(1, 0), 10.0);
}

TEST(AutogradTest, RowL2NormalizeMakesUnitRows) {
  Tensor x = Tensor::Leaf(Matrix::FromRows({{3, 4}}), true);
  Tensor n = ops::RowL2Normalize(x);
  EXPECT_NEAR(n.value()(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(n.value()(0, 1), 0.8, 1e-12);
}

TEST(AutogradTest, BceWithLogitsMatchesManual) {
  Tensor z = Tensor::Leaf(Matrix::Zeros(2, 1), true);
  Tensor loss = ops::BceWithLogits(z, {1.0, 0.0});
  EXPECT_NEAR(loss.value()(0, 0), std::log(2.0), 1e-12);
}

TEST(AutogradTest, MseLossMatchesManual) {
  Tensor p = Tensor::Leaf(Matrix::FromRows({{1.0}, {3.0}}), true);
  Matrix target = Matrix::FromRows({{0.0}, {0.0}});
  Tensor loss = ops::MseLoss(p, target);
  EXPECT_NEAR(loss.value()(0, 0), (1.0 + 9.0) / 2.0, 1e-12);
}

}  // namespace
}  // namespace gnn4tdl
