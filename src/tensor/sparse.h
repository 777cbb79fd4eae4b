#pragma once

#include <cstddef>
#include <vector>

#include "tensor/matrix.h"

namespace gnn4tdl {

/// A single weighted directed edge row -> col, used when assembling sparse
/// matrices and graphs.
struct Triplet {
  size_t row;
  size_t col;
  double value;
};

/// Immutable sparse matrix in compressed sparse row (CSR) format. This is the
/// message-passing operator of the library: normalized adjacency matrices,
/// bipartite incidence blocks, and hypergraph incidences are all stored as
/// SparseMatrix and applied to dense feature matrices via Multiply().
class SparseMatrix {
 public:
  /// Empty 0x0 matrix.
  SparseMatrix() : rows_(0), cols_(0), row_ptr_(1, 0) {}

  /// Builds from triplets. Duplicate (row, col) entries are summed. Column
  /// indices within each row are sorted ascending.
  static SparseMatrix FromTriplets(size_t rows, size_t cols,
                                   std::vector<Triplet> triplets);

  /// Builds directly from CSR arrays (row_ptr has rows+1 entries).
  static SparseMatrix FromCsr(size_t rows, size_t cols,
                              std::vector<size_t> row_ptr,
                              std::vector<size_t> col_idx,
                              std::vector<double> values);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return col_idx_.size(); }

  const std::vector<size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }

  /// Sparse-dense product: (this) * dense, dense has cols() rows.
  Matrix Multiply(const Matrix& dense) const;

  /// Transposed copy (CSR of the transpose), built in O(nnz) by counting
  /// sort. Every stored entry is kept (duplicates are not summed), and each
  /// row of the transpose lists its source rows in ascending order, so the
  /// transposed product Transpose().Multiply(dense) adds the terms of each
  /// output element in source-row order.
  SparseMatrix Transpose() const;

  /// Dense copy (tests / small matrices only).
  Matrix ToDense() const;

  /// Entry lookup (binary search within the row). Zero if absent.
  double At(size_t row, size_t col) const;

  /// Number of stored entries in `row`.
  size_t RowNnz(size_t row) const {
    GNN4TDL_CHECK_LT(row, rows_);
    return row_ptr_[row + 1] - row_ptr_[row];
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<size_t> row_ptr_;
  std::vector<size_t> col_idx_;
  std::vector<double> values_;
};

/// Segment (edge) softmax: given per-edge logits (e x 1) and each edge's
/// destination group in `seg`, returns max-shifted softmax weights normalized
/// within each group — the attention kernel of GAT-style layers and learned
/// graph construction. Parallelized with per-chunk partial group max/sum
/// arrays folded by a fixed pairwise tree. The chunks depend only on the
/// edge count, so the result is bit-identical at every thread count, and
/// bit-exact with the serial kernel when one chunk suffices.
Matrix SegmentSoftmax(const Matrix& logits, const std::vector<size_t>& seg,
                      size_t num_groups);

/// Gradient of SegmentSoftmax w.r.t. the logits: given the forward output
/// `softmax` and upstream gradient `grad` (both e x 1),
///   d l_e = w_e * (g_e - sum_{e' in group(e)} g_{e'} w_{e'}).
/// Same parallelization and determinism contract as the forward kernel.
Matrix SegmentSoftmaxBackward(const Matrix& softmax, const Matrix& grad,
                              const std::vector<size_t>& seg,
                              size_t num_groups);

}  // namespace gnn4tdl
