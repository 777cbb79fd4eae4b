#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/rng.h"

namespace gnn4tdl {

/// Dense row-major matrix of doubles. The single numeric container used by the
/// autograd engine, the GNN layers, and the data pipeline. Deliberately
/// minimal: shapes are fixed at construction, all indexing is bounds-checked
/// via GNN4TDL_CHECK, and all factory methods that draw random numbers take an
/// explicit Rng.
///
/// Storage comes from a DoubleBuffer: heap-backed by default, slab-backed
/// when the constructing thread has an ArenaScope installed (the trainer
/// installs one around the epoch loop — see docs/MEMORY.md). The arena is
/// transparent to every Matrix operation and never changes numerics.
///
/// Threading & determinism contract (see docs/KERNELS.md): the arithmetic,
/// matmul-family, and Map kernels run on the shared ThreadPool (sized by
/// GNN4TDL_THREADS), partitioned over write-disjoint output blocks, so they
/// are bit-exact with serial execution at every thread count. The scalar
/// reductions Sum()/Mean()/Norm() are pairwise tree reductions over chunks
/// set by the size alone: bit-identical at every thread count, and exactly
/// the serial sum below two grains of data. The Rng-drawing factories and
/// ToString() are always serial. Map()'s callable must be pure — it is
/// invoked concurrently from pool threads.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix initialized to zero.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// rows x cols matrix filled with `value`.
  Matrix(size_t rows, size_t cols, double value)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  /// rows x cols matrix initialized from `data` (size must match).
  Matrix(size_t rows, size_t cols, std::vector<double> data);

  // --- Factories -----------------------------------------------------------

  static Matrix Zeros(size_t rows, size_t cols) { return Matrix(rows, cols); }
  static Matrix Ones(size_t rows, size_t cols) { return Matrix(rows, cols, 1.0); }
  static Matrix Full(size_t rows, size_t cols, double v) {
    return Matrix(rows, cols, v);
  }
  static Matrix Identity(size_t n);

  /// rows x cols matrix whose elements are left unwritten (a recycled arena
  /// slab keeps its old bits). Only for outputs that a kernel writes in full
  /// before anything reads them.
  static Matrix Uninitialized(size_t rows, size_t cols);

  /// Entries ~ N(0, stddev^2).
  static Matrix Randn(size_t rows, size_t cols, Rng& rng, double stddev = 1.0);

  /// Entries ~ U[lo, hi).
  static Matrix Rand(size_t rows, size_t cols, Rng& rng, double lo = 0.0,
                     double hi = 1.0);

  /// Glorot/Xavier uniform initialization: U[-a, a], a = sqrt(6/(fan_in+fan_out)).
  static Matrix GlorotUniform(size_t fan_in, size_t fan_out, Rng& rng);

  /// Builds from nested initializer-like rows (for tests).
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  // --- Shape & element access ----------------------------------------------

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    GNN4TDL_CHECK_LT(r, rows_);
    GNN4TDL_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    GNN4TDL_CHECK_LT(r, rows_);
    GNN4TDL_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row_data(size_t r) { return data_.data() + r * cols_; }
  const double* row_data(size_t r) const { return data_.data() + r * cols_; }

  // --- Elementwise arithmetic (shape-checked) ------------------------------

  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  /// Hadamard (elementwise) product.
  Matrix CwiseMul(const Matrix& other) const;
  Matrix CwiseDiv(const Matrix& other) const;
  Matrix operator*(double s) const;
  Matrix operator-() const { return *this * -1.0; }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  /// Adds `s * other` in place (axpy).
  void Axpy(double s, const Matrix& other);

  /// Applies `f` to every entry, returning a new matrix.
  Matrix Map(const std::function<double(double)>& f) const;

  // --- Linear algebra -------------------------------------------------------

  /// Matrix product: (r x k) * (k x c) -> (r x c).
  Matrix Matmul(const Matrix& other) const;

  /// this^T * other without materializing the transpose.
  Matrix TransposeMatmul(const Matrix& other) const;

  /// this * other^T without materializing the transpose.
  Matrix MatmulTranspose(const Matrix& other) const;

  Matrix Transpose() const;

  // --- Reductions & row/col ops ---------------------------------------------

  double Sum() const;
  double Mean() const;
  /// Largest |element|; NaN when any element is NaN, so a magnitude check
  /// on a NaN output fails.
  double MaxAbs() const;
  /// Frobenius norm.
  double Norm() const;

  /// Column vector (rows x 1) of row sums.
  Matrix RowSum() const;
  /// Row vector (1 x cols) of column sums.
  Matrix ColSum() const;
  /// Row vector (1 x cols) of column means.
  Matrix ColMean() const;

  /// Index of the maximum entry in row r.
  size_t ArgMaxRow(size_t r) const;

  /// Extracts row r as a 1 x cols matrix.
  Matrix Row(size_t r) const;

  /// Copies the rows listed in `idx` (in order) into a new matrix.
  Matrix GatherRows(const std::vector<size_t>& idx) const;

  /// Concatenates columns: [this | other] (same row count).
  Matrix ConcatCols(const Matrix& other) const;

  /// Concatenates rows: [this ; other] (same column count).
  Matrix ConcatRows(const Matrix& other) const;

  /// Reinterprets the contiguous buffer as new_rows x new_cols
  /// (new_rows * new_cols must equal size()).
  Matrix Reshape(size_t new_rows, size_t new_cols) const;

  /// True if shapes match and entries differ by at most `tol` (a NaN entry
  /// is never close).
  bool AllClose(const Matrix& other, double tol = 1e-9) const;

  /// Debug string, rows separated by newlines (small matrices only).
  std::string ToString() const;

 private:
  size_t rows_;
  size_t cols_;
  DoubleBuffer data_;
};

/// Scalar * matrix.
inline Matrix operator*(double s, const Matrix& m) { return m * s; }

}  // namespace gnn4tdl
