#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"

namespace gnn4tdl::kernels {

/// Dense row-major matrix of floats: the storage layer of the single-precision
/// inference kernel tier (src/kernels). Serving is memory-bandwidth-bound
/// (BENCH_serving.json shows ~4.7 bytes moved per FLOP on the double path), so
/// halving the element width is a direct throughput lever. FMatrix is
/// deliberately *not* a second autograd container: it has no tape, no
/// gradients, and no arithmetic operators — all compute on FMatrix goes
/// through the dispatched kernels in kernels/kernels.h. Training stays on the
/// double-precision Matrix; weights are cast once when a FrozenModel loads
/// at f32 (serve/f32_scorer.h), and the few steps with no f32 kernel widen
/// to Matrix and narrow back (models/knn_gnn.cc).
class FMatrix {
 public:
  FMatrix() : rows_(0), cols_(0) {}
  FMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// Casts a double matrix down entry by entry (round-to-nearest).
  static FMatrix FromDouble(const Matrix& m);

  /// Widens back to double (exact: every float is representable).
  Matrix ToDouble() const;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(size_t r, size_t c) {
    GNN4TDL_CHECK_LT(r, rows_);
    GNN4TDL_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  float operator()(size_t r, size_t c) const {
    GNN4TDL_CHECK_LT(r, rows_);
    GNN4TDL_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row_data(size_t r) { return data_.data() + r * cols_; }
  const float* row_data(size_t r) const { return data_.data() + r * cols_; }

  /// Copies row r of a *double* matrix into row r_dst here, casting down.
  /// The per-row gather used when assembling an attached serving batch from
  /// the pre-cast training cache plus freshly cast request rows.
  void SetRowFromDouble(size_t r_dst, const double* src);

  /// Copies row r_src of `other` into row r_dst here (same column count).
  void SetRow(size_t r_dst, const FMatrix& other, size_t r_src);

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

/// Immutable CSR sparse matrix with float values and 32-bit indices — the
/// message-passing operator of the f32 tier. 32-bit indices are a deliberate
/// part of the bandwidth story: an SpMM touches one value + one column index
/// per nonzero, so shrinking both from 8 to 4 bytes halves the irregular
/// traffic, not just the dense traffic.
struct FCsr {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<uint32_t> row_ptr;  // rows + 1 entries
  std::vector<uint32_t> col_idx;
  std::vector<float> values;

  /// Casts a double CSR down. Checks that every dimension and nnz fits in
  /// 32-bit indices (serving graphs are far below 4B nodes/edges).
  static FCsr FromDouble(const SparseMatrix& m);

  size_t nnz() const { return col_idx.size(); }
};

}  // namespace gnn4tdl::kernels
