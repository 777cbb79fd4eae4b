#include "tensor/matrix.h"

#include <cmath>

#include <gtest/gtest.h>

namespace gnn4tdl {
namespace {

TEST(MatrixTest, ConstructsZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (size_t r = 0; r < 3; ++r)
    for (size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0);
}

TEST(MatrixTest, FullFillsValue) {
  Matrix m = Matrix::Full(2, 2, 3.5);
  EXPECT_EQ(m(0, 0), 3.5);
  EXPECT_EQ(m(1, 1), 3.5);
}

TEST(MatrixTest, IdentityHasOnesOnDiagonal) {
  Matrix id = Matrix::Identity(3);
  for (size_t r = 0; r < 3; ++r)
    for (size_t c = 0; c < 3; ++c) EXPECT_EQ(id(r, c), r == c ? 1.0 : 0.0);
}

TEST(MatrixTest, FromRowsRoundTrips) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 6.0);
}

TEST(MatrixTest, AddSubtractElementwise) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  Matrix sum = a + b;
  Matrix diff = b - a;
  EXPECT_EQ(sum(0, 1), 22.0);
  EXPECT_EQ(diff(1, 0), 27.0);
}

TEST(MatrixTest, CwiseMulAndDiv) {
  Matrix a = Matrix::FromRows({{2, 3}});
  Matrix b = Matrix::FromRows({{4, 6}});
  EXPECT_EQ(a.CwiseMul(b)(0, 1), 18.0);
  EXPECT_EQ(b.CwiseDiv(a)(0, 0), 2.0);
}

TEST(MatrixTest, ScalarMultiply) {
  Matrix a = Matrix::FromRows({{1, -2}});
  Matrix s = a * 3.0;
  EXPECT_EQ(s(0, 0), 3.0);
  EXPECT_EQ(s(0, 1), -6.0);
  Matrix s2 = -a;
  EXPECT_EQ(s2(0, 1), 2.0);
}

TEST(MatrixTest, MatmulMatchesHandComputation) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a.Matmul(b);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, TransposeMatmulAgreesWithExplicitTranspose) {
  Rng rng(1);
  Matrix a = Matrix::Randn(4, 3, rng);
  Matrix b = Matrix::Randn(4, 5, rng);
  EXPECT_TRUE(a.TransposeMatmul(b).AllClose(a.Transpose().Matmul(b), 1e-12));
}

TEST(MatrixTest, MatmulTransposeAgreesWithExplicitTranspose) {
  Rng rng(2);
  Matrix a = Matrix::Randn(4, 3, rng);
  Matrix b = Matrix::Randn(5, 3, rng);
  EXPECT_TRUE(a.MatmulTranspose(b).AllClose(a.Matmul(b.Transpose()), 1e-12));
}

TEST(MatrixTest, TransposeSwapsIndices) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = a.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, Reductions) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, -4}});
  EXPECT_EQ(a.Sum(), 2.0);
  EXPECT_EQ(a.Mean(), 0.5);
  EXPECT_EQ(a.MaxAbs(), 4.0);
  EXPECT_NEAR(a.Norm(), std::sqrt(1.0 + 4 + 9 + 16), 1e-12);
  // A NaN anywhere makes MaxAbs NaN, so magnitude checks cannot pass on it.
  Matrix with_nan = Matrix::FromRows({{1, std::nan("")}, {-7, 2}});
  EXPECT_TRUE(std::isnan(with_nan.MaxAbs()));
}

TEST(MatrixTest, RowAndColSums) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix rs = a.RowSum();
  EXPECT_EQ(rs.rows(), 2u);
  EXPECT_EQ(rs(0, 0), 3.0);
  EXPECT_EQ(rs(1, 0), 7.0);
  Matrix cs = a.ColSum();
  EXPECT_EQ(cs.cols(), 2u);
  EXPECT_EQ(cs(0, 0), 4.0);
  EXPECT_EQ(cs(0, 1), 6.0);
  Matrix cm = a.ColMean();
  EXPECT_EQ(cm(0, 0), 2.0);
}

TEST(MatrixTest, ArgMaxRow) {
  Matrix a = Matrix::FromRows({{1, 5, 3}, {9, 2, 4}});
  EXPECT_EQ(a.ArgMaxRow(0), 1u);
  EXPECT_EQ(a.ArgMaxRow(1), 0u);
}

TEST(MatrixTest, GatherRowsCopiesInOrder) {
  Matrix a = Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}});
  Matrix g = a.GatherRows({2, 0, 2});
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_EQ(g(0, 0), 3.0);
  EXPECT_EQ(g(1, 0), 1.0);
  EXPECT_EQ(g(2, 1), 3.0);
}

TEST(MatrixTest, ConcatColsAndRows) {
  Matrix a = Matrix::FromRows({{1}, {2}});
  Matrix b = Matrix::FromRows({{3}, {4}});
  Matrix cc = a.ConcatCols(b);
  EXPECT_EQ(cc.cols(), 2u);
  EXPECT_EQ(cc(1, 1), 4.0);
  Matrix cr = a.ConcatRows(b);
  EXPECT_EQ(cr.rows(), 4u);
  EXPECT_EQ(cr(3, 0), 4.0);
}

TEST(MatrixTest, ReshapePreservesRowMajorOrder) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix r = a.Reshape(3, 2);
  EXPECT_EQ(r(0, 0), 1.0);
  EXPECT_EQ(r(0, 1), 2.0);
  EXPECT_EQ(r(1, 0), 3.0);
  EXPECT_EQ(r(2, 1), 6.0);
}

TEST(MatrixTest, AxpyAddsScaled) {
  Matrix a = Matrix::FromRows({{1, 1}});
  Matrix b = Matrix::FromRows({{2, 3}});
  a.Axpy(2.0, b);
  EXPECT_EQ(a(0, 0), 5.0);
  EXPECT_EQ(a(0, 1), 7.0);
}

TEST(MatrixTest, RandnIsDeterministicGivenSeed) {
  Rng rng1(7);
  Rng rng2(7);
  Matrix a = Matrix::Randn(3, 3, rng1);
  Matrix b = Matrix::Randn(3, 3, rng2);
  EXPECT_TRUE(a.AllClose(b, 0.0));
}

TEST(MatrixTest, GlorotUniformWithinBound) {
  Rng rng(3);
  Matrix w = Matrix::GlorotUniform(10, 20, rng);
  double bound = std::sqrt(6.0 / 30.0);
  for (size_t r = 0; r < w.rows(); ++r)
    for (size_t c = 0; c < w.cols(); ++c) {
      EXPECT_LE(w(r, c), bound);
      EXPECT_GE(w(r, c), -bound);
    }
}

TEST(MatrixTest, AllCloseRespectsTolerance) {
  Matrix a = Matrix::FromRows({{1.0}});
  Matrix b = Matrix::FromRows({{1.0 + 1e-10}});
  EXPECT_TRUE(a.AllClose(b, 1e-9));
  EXPECT_FALSE(a.AllClose(b, 1e-11));
  Matrix c(2, 1);
  EXPECT_FALSE(a.AllClose(c));
}

}  // namespace
}  // namespace gnn4tdl
