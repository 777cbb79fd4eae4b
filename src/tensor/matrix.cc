#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/parallel.h"
#include "kernels/kernels.h"
#include "obs/kernel_hooks.h"

namespace gnn4tdl {

namespace {

// Grain sizes for the parallel kernels (see docs/KERNELS.md). Elementwise
// chunks are at least kElemGrain doubles; row-partitioned kernels size their
// chunks so each holds roughly kFlopGrain multiply-adds. Both are far above
// the pool's per-chunk dispatch cost (~1us) at double-precision speeds.
constexpr size_t kElemGrain = 16384;
constexpr size_t kFlopGrain = 65536;

size_t RowGrain(size_t flops_per_row) {
  return std::max<size_t>(1, kFlopGrain / std::max<size_t>(flops_per_row, 1));
}

}  // namespace

Matrix::Matrix(size_t rows, size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(data) {
  GNN4TDL_CHECK_EQ(rows_ * cols_, data_.size());
}

Matrix Matrix::Uninitialized(size_t rows, size_t cols) {
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = DoubleBuffer::Uninitialized(rows * cols);
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Randn(size_t rows, size_t cols, Rng& rng, double stddev) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.Normal(0.0, stddev);
  return m;
}

Matrix Matrix::Rand(size_t rows, size_t cols, Rng& rng, double lo, double hi) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.Uniform(lo, hi);
  return m;
}

Matrix Matrix::GlorotUniform(size_t fan_in, size_t fan_out, Rng& rng) {
  double a = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  return Rand(fan_in, fan_out, rng, -a, a);
}

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  size_t cols = rows[0].size();
  Matrix m(rows.size(), cols);
  for (size_t r = 0; r < rows.size(); ++r) {
    GNN4TDL_CHECK_EQ(rows[r].size(), cols);
    std::copy(rows[r].begin(), rows[r].end(), m.row_data(r));
  }
  return m;
}

Matrix Matrix::operator+(const Matrix& other) const {
  GNN4TDL_CHECK_EQ(rows_, other.rows_);
  GNN4TDL_CHECK_EQ(cols_, other.cols_);
  Matrix out = Uninitialized(rows_, cols_);
  const double* a = data_.data();
  const double* b = other.data_.data();
  double* o = out.data_.data();
  ParallelFor(0, data_.size(), kElemGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) o[i] = a[i] + b[i];
  });
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  GNN4TDL_CHECK_EQ(rows_, other.rows_);
  GNN4TDL_CHECK_EQ(cols_, other.cols_);
  Matrix out = Uninitialized(rows_, cols_);
  const double* a = data_.data();
  const double* b = other.data_.data();
  double* o = out.data_.data();
  ParallelFor(0, data_.size(), kElemGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) o[i] = a[i] - b[i];
  });
  return out;
}

Matrix Matrix::CwiseMul(const Matrix& other) const {
  GNN4TDL_CHECK_EQ(rows_, other.rows_);
  GNN4TDL_CHECK_EQ(cols_, other.cols_);
  Matrix out = Uninitialized(rows_, cols_);
  const double* a = data_.data();
  const double* b = other.data_.data();
  double* o = out.data_.data();
  ParallelFor(0, data_.size(), kElemGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) o[i] = a[i] * b[i];
  });
  return out;
}

Matrix Matrix::CwiseDiv(const Matrix& other) const {
  GNN4TDL_CHECK_EQ(rows_, other.rows_);
  GNN4TDL_CHECK_EQ(cols_, other.cols_);
  Matrix out = Uninitialized(rows_, cols_);
  const double* a = data_.data();
  const double* b = other.data_.data();
  double* o = out.data_.data();
  ParallelFor(0, data_.size(), kElemGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) o[i] = a[i] / b[i];
  });
  return out;
}

Matrix Matrix::operator*(double s) const {
  Matrix out = Uninitialized(rows_, cols_);
  const double* a = data_.data();
  double* o = out.data_.data();
  ParallelFor(0, data_.size(), kElemGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) o[i] = a[i] * s;
  });
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  GNN4TDL_CHECK_EQ(rows_, other.rows_);
  GNN4TDL_CHECK_EQ(cols_, other.cols_);
  const double* b = other.data_.data();
  double* o = data_.data();
  ParallelFor(0, data_.size(), kElemGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) o[i] += b[i];
  });
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  GNN4TDL_CHECK_EQ(rows_, other.rows_);
  GNN4TDL_CHECK_EQ(cols_, other.cols_);
  const double* b = other.data_.data();
  double* o = data_.data();
  ParallelFor(0, data_.size(), kElemGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) o[i] -= b[i];
  });
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  double* o = data_.data();
  ParallelFor(0, data_.size(), kElemGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) o[i] *= s;
  });
  return *this;
}

void Matrix::Axpy(double s, const Matrix& other) {
  GNN4TDL_CHECK_EQ(rows_, other.rows_);
  GNN4TDL_CHECK_EQ(cols_, other.cols_);
  const double* b = other.data_.data();
  double* o = data_.data();
  ParallelFor(0, data_.size(), kElemGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) o[i] += s * b[i];
  });
}

Matrix Matrix::Map(const std::function<double(double)>& f) const {
  // Contract: f is applied concurrently from pool threads, so it must be
  // pure (no shared mutable state; RNG draws go through the serial
  // factories, never Map).
  Matrix out = Uninitialized(rows_, cols_);
  const double* a = data_.data();
  double* o = out.data_.data();
  ParallelFor(0, data_.size(), kElemGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) o[i] = f(a[i]);
  });
  return out;
}

Matrix Matrix::Matmul(const Matrix& other) const {
  GNN4TDL_CHECK_EQ(cols_, other.rows_);
  Matrix out = Uninitialized(rows_, other.cols_);
  const size_t k_dim = cols_;
  const size_t n = other.cols_;
  obs::KernelScope kernel(
      "matmul", 2.0 * static_cast<double>(rows_) * k_dim * n,
      8.0 * (static_cast<double>(rows_) * k_dim + k_dim * n + rows_ * n));
  // Parallel over blocks of output rows: each row's accumulation runs in the
  // same i-k-j order as the serial kernel (streams through `other` row-major,
  // friendly to cache), so results are bit-exact for every thread count.
  // Each chunk zeroes its own rows right before the kernel accumulates into
  // them, so every element still starts at +0.0.
  const auto& f64 = kernels::Dispatch().f64;
  ParallelFor(0, rows_, RowGrain(k_dim * n), [&](size_t lo, size_t hi) {
    std::fill(out.row_data(lo), out.row_data(hi), 0.0);
    f64.matmul(data(), other.data(), k_dim, n, lo, hi, out.data());
  });
  return out;
}

Matrix Matrix::TransposeMatmul(const Matrix& other) const {
  GNN4TDL_CHECK_EQ(rows_, other.rows_);
  Matrix out = Uninitialized(cols_, other.cols_);
  const size_t n = other.cols_;
  obs::KernelScope kernel(
      "matmul_tn", 2.0 * static_cast<double>(rows_) * cols_ * n,
      8.0 * (static_cast<double>(rows_) * cols_ + rows_ * n + cols_ * n));
  // Parallel over blocks of *output* rows (i indexes this->cols_): every
  // thread scans all input rows r but only touches its own output block, and
  // each out(i, j) accumulates in the same r-ascending order as the serial
  // kernel — write-disjoint and bit-exact for every thread count. Each
  // chunk zeroes its own output rows first.
  const auto& f64 = kernels::Dispatch().f64;
  ParallelFor(0, cols_, RowGrain(rows_ * n), [&](size_t lo, size_t hi) {
    std::fill(out.row_data(lo), out.row_data(hi), 0.0);
    f64.matmul_tn(data(), other.data(), rows_, cols_, n, lo, hi, out.data());
  });
  return out;
}

Matrix Matrix::MatmulTranspose(const Matrix& other) const {
  GNN4TDL_CHECK_EQ(cols_, other.cols_);
  // matmul_nt overwrites every output element (each dot product starts at
  // 0.0 in the kernel), so the output needs no fill.
  Matrix out = Uninitialized(rows_, other.rows_);
  obs::KernelScope kernel(
      "matmul_nt", 2.0 * static_cast<double>(rows_) * cols_ * other.rows_,
      8.0 * (static_cast<double>(rows_) * cols_ + other.rows_ * cols_ +
             static_cast<double>(rows_) * other.rows_));
  const auto& f64 = kernels::Dispatch().f64;
  ParallelFor(0, rows_, RowGrain(other.rows_ * cols_),
              [&](size_t lo, size_t hi) {
    f64.matmul_nt(data(), other.data(), cols_, other.rows_, lo, hi,
                  out.data());
  });
  return out;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  // Parallel over output rows: thread-disjoint writes, strided reads.
  ParallelFor(0, cols_, RowGrain(rows_), [&](size_t lo, size_t hi) {
    for (size_t c = lo; c < hi; ++c)
      for (size_t r = 0; r < rows_; ++r) out(c, r) = (*this)(r, c);
  });
  return out;
}

double Matrix::Sum() const {
  // Tree-reduced over a partition set by the size alone: the same bits at
  // every thread count; equals the serial left-to-right sum whenever one
  // chunk suffices (fewer than two grains of data).
  const double* d = data_.data();
  return ParallelReduceSum(0, data_.size(), kElemGrain,
                           [d](size_t lo, size_t hi) {
                             double s = 0.0;
                             for (size_t i = lo; i < hi; ++i) s += d[i];
                             return s;
                           });
}

double Matrix::Mean() const {
  GNN4TDL_CHECK(!data_.empty());
  return Sum() / static_cast<double>(data_.size());
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double v : data_) {
    if (std::isnan(v)) return v;
    m = std::max(m, std::fabs(v));
  }
  return m;
}

double Matrix::Norm() const {
  const double* d = data_.data();
  double s = ParallelReduceSum(0, data_.size(), kElemGrain,
                               [d](size_t lo, size_t hi) {
                                 double acc = 0.0;
                                 for (size_t i = lo; i < hi; ++i)
                                   acc += d[i] * d[i];
                                 return acc;
                               });
  return std::sqrt(s);
}

Matrix Matrix::RowSum() const {
  Matrix out(rows_, 1);
  // Row-disjoint writes, serial accumulation order per row: bit-exact.
  ParallelFor(0, rows_, RowGrain(cols_), [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      double s = 0.0;
      const double* row = row_data(r);
      for (size_t c = 0; c < cols_; ++c) s += row[c];
      out(r, 0) = s;
    }
  });
  return out;
}

Matrix Matrix::ColSum() const {
  Matrix out(1, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = row_data(r);
    for (size_t c = 0; c < cols_; ++c) out(0, c) += row[c];
  }
  return out;
}

Matrix Matrix::ColMean() const {
  GNN4TDL_CHECK_GT(rows_, 0u);
  Matrix out = ColSum();
  out *= 1.0 / static_cast<double>(rows_);
  return out;
}

size_t Matrix::ArgMaxRow(size_t r) const {
  GNN4TDL_CHECK_LT(r, rows_);
  GNN4TDL_CHECK_GT(cols_, 0u);
  const double* row = row_data(r);
  size_t best = 0;
  for (size_t c = 1; c < cols_; ++c)
    if (row[c] > row[best]) best = c;
  return best;
}

Matrix Matrix::Row(size_t r) const {
  GNN4TDL_CHECK_LT(r, rows_);
  Matrix out(1, cols_);
  std::copy(row_data(r), row_data(r) + cols_, out.data());
  return out;
}

Matrix Matrix::GatherRows(const std::vector<size_t>& idx) const {
  Matrix out(idx.size(), cols_);
  for (size_t i = 0; i < idx.size(); ++i) {
    GNN4TDL_CHECK_LT(idx[i], rows_);
    std::copy(row_data(idx[i]), row_data(idx[i]) + cols_, out.row_data(i));
  }
  return out;
}

Matrix Matrix::ConcatCols(const Matrix& other) const {
  GNN4TDL_CHECK_EQ(rows_, other.rows_);
  Matrix out(rows_, cols_ + other.cols_);
  for (size_t r = 0; r < rows_; ++r) {
    std::copy(row_data(r), row_data(r) + cols_, out.row_data(r));
    std::copy(other.row_data(r), other.row_data(r) + other.cols_,
              out.row_data(r) + cols_);
  }
  return out;
}

Matrix Matrix::ConcatRows(const Matrix& other) const {
  GNN4TDL_CHECK_EQ(cols_, other.cols_);
  Matrix out(rows_ + other.rows_, cols_);
  std::copy(data_.begin(), data_.end(), out.data());
  std::copy(other.data_.begin(), other.data_.end(), out.data() + data_.size());
  return out;
}

Matrix Matrix::Reshape(size_t new_rows, size_t new_cols) const {
  GNN4TDL_CHECK_EQ(new_rows * new_cols, data_.size());
  Matrix out(new_rows, new_cols);
  std::copy(data_.begin(), data_.end(), out.data());
  return out;
}

bool Matrix::AllClose(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i)
    if (!(std::fabs(data_[i] - other.data_[i]) <= tol)) return false;
  return true;
}

std::string Matrix::ToString() const {
  std::ostringstream os;
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) {
      if (c > 0) os << ' ';
      os << (*this)(r, c);
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace gnn4tdl
