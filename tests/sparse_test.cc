#include "tensor/sparse.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace gnn4tdl {
namespace {

TEST(SparseTest, FromTripletsBuildsSortedCsr) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      3, 3, {{2, 1, 5.0}, {0, 2, 1.0}, {0, 0, 2.0}});
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.At(0, 0), 2.0);
  EXPECT_EQ(m.At(0, 2), 1.0);
  EXPECT_EQ(m.At(2, 1), 5.0);
  EXPECT_EQ(m.At(1, 1), 0.0);
}

TEST(SparseTest, DuplicateTripletsAreSummed) {
  SparseMatrix m =
      SparseMatrix::FromTriplets(2, 2, {{0, 1, 1.0}, {0, 1, 2.5}});
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_EQ(m.At(0, 1), 3.5);
}

TEST(SparseTest, MultiplyMatchesDense) {
  Rng rng(11);
  std::vector<Triplet> trips;
  for (int i = 0; i < 20; ++i)
    trips.push_back({static_cast<size_t>(rng.Int(0, 4)),
                     static_cast<size_t>(rng.Int(0, 5)), rng.Normal()});
  SparseMatrix sp = SparseMatrix::FromTriplets(5, 6, trips);
  Matrix x = Matrix::Randn(6, 3, rng);
  EXPECT_TRUE(sp.Multiply(x).AllClose(sp.ToDense().Matmul(x), 1e-12));
}

TEST(SparseTest, TransposedProductMatchesDense) {
  Rng rng(12);
  std::vector<Triplet> trips;
  for (int i = 0; i < 15; ++i)
    trips.push_back({static_cast<size_t>(rng.Int(0, 3)),
                     static_cast<size_t>(rng.Int(0, 6)), rng.Normal()});
  SparseMatrix sp = SparseMatrix::FromTriplets(4, 7, trips);
  Matrix x = Matrix::Randn(4, 2, rng);
  EXPECT_TRUE(sp.Transpose().Multiply(x).AllClose(
      sp.ToDense().Transpose().Matmul(x), 1e-12));
}

TEST(SparseTest, TransposeRoundTrip) {
  SparseMatrix m =
      SparseMatrix::FromTriplets(2, 3, {{0, 2, 1.0}, {1, 0, -2.0}});
  SparseMatrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t.At(2, 0), 1.0);
  EXPECT_EQ(t.At(0, 1), -2.0);
  EXPECT_TRUE(t.Transpose().ToDense().AllClose(m.ToDense(), 0.0));
}

// The counting-sort transpose against a dense transpose: rectangular shapes
// with empty rows and columns, and nnz 0.
TEST(SparseTest, CountingSortTransposeMatchesDenseTranspose) {
  Rng rng(13);
  const size_t shapes[][2] = {{1, 1}, {3, 8}, {8, 3}, {17, 5}, {6, 6}};
  for (const auto& shape : shapes) {
    const size_t rows = shape[0], cols = shape[1];
    for (double density : {0.0, 0.2, 0.7}) {
      std::vector<Triplet> trips;
      // Row 0 and column cols - 1 stay empty whenever the shape has room.
      for (size_t r = rows > 1 ? 1 : 0; r < rows; ++r)
        for (size_t c = 0; c + (cols > 1 ? 1 : 0) < cols; ++c)
          if (rng.Uniform(0.0, 1.0) < density)
            trips.push_back({r, c, rng.Normal()});
      SparseMatrix m = SparseMatrix::FromTriplets(rows, cols, trips);
      SparseMatrix t = m.Transpose();
      SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols) +
                   " nnz=" + std::to_string(m.nnz()));
      EXPECT_EQ(t.rows(), cols);
      EXPECT_EQ(t.cols(), rows);
      EXPECT_EQ(t.nnz(), m.nnz());
      EXPECT_EQ(t.row_ptr().size(), cols + 1);
      EXPECT_TRUE(t.ToDense().AllClose(m.ToDense().Transpose(), 0.0));
      // Each row of the transpose lists its source rows ascending.
      for (size_t c = 0; c < cols; ++c)
        for (size_t k = t.row_ptr()[c] + 1; k < t.row_ptr()[c + 1]; ++k)
          EXPECT_LT(t.col_idx()[k - 1], t.col_idx()[k]);
      // A second transpose gives back the CSR arrays exactly.
      SparseMatrix back = t.Transpose();
      EXPECT_EQ(back.rows(), rows);
      EXPECT_EQ(back.cols(), cols);
      EXPECT_EQ(back.row_ptr(), m.row_ptr());
      EXPECT_EQ(back.col_idx(), m.col_idx());
      EXPECT_EQ(back.values(), m.values());
    }
  }
}

TEST(SparseTest, TransposeKeepsRepeatedEntries) {
  // Row 0 holds (0, 1) twice; the transpose keeps both, in CSR order.
  SparseMatrix m = SparseMatrix::FromCsr(2, 3, {0, 3, 4}, {1, 1, 2, 1},
                                         {1.5, -2.0, 4.0, 0.25});
  SparseMatrix t = m.Transpose();
  EXPECT_EQ(t.nnz(), 4u);
  EXPECT_EQ(t.row_ptr(), (std::vector<size_t>{0, 0, 3, 4}));
  EXPECT_EQ(t.col_idx(), (std::vector<size_t>{0, 0, 1, 0}));
  EXPECT_EQ(t.values(), (std::vector<double>{1.5, -2.0, 0.25, 4.0}));
  EXPECT_TRUE(t.ToDense().AllClose(m.ToDense().Transpose(), 0.0));
  SparseMatrix back = t.Transpose();
  EXPECT_EQ(back.row_ptr(), m.row_ptr());
  EXPECT_EQ(back.col_idx(), m.col_idx());
  EXPECT_EQ(back.values(), m.values());
}

TEST(SparseTest, RowNnzCountsEntries) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      3, 3, {{0, 0, 1.0}, {0, 1, 1.0}, {2, 2, 1.0}});
  EXPECT_EQ(m.RowNnz(0), 2u);
  EXPECT_EQ(m.RowNnz(1), 0u);
  EXPECT_EQ(m.RowNnz(2), 1u);
}

TEST(SparseTest, EmptyMatrixMultiplies) {
  SparseMatrix m = SparseMatrix::FromTriplets(3, 4, {});
  Matrix x = Matrix::Ones(4, 2);
  Matrix out = m.Multiply(x);
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.Sum(), 0.0);
}

TEST(SparseTest, FromCsrDirect) {
  SparseMatrix m = SparseMatrix::FromCsr(2, 2, {0, 1, 2}, {1, 0}, {3.0, 4.0});
  EXPECT_EQ(m.At(0, 1), 3.0);
  EXPECT_EQ(m.At(1, 0), 4.0);
}

}  // namespace
}  // namespace gnn4tdl
