#include "tensor/sparse.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "kernels/kernels.h"
#include "obs/kernel_hooks.h"

namespace gnn4tdl {

namespace {

// Row-block grain for SpMM-family kernels: each chunk holds roughly this many
// multiply-adds (nnz_in_chunk * dense_cols). Rows vary in nnz, so the grain
// is derived from the average row cost — good enough for the 4x-per-thread
// oversubscription ParallelFor already applies.
size_t SpmmRowGrain(size_t nnz, size_t rows, size_t dense_cols) {
  constexpr size_t kFlopGrain = 65536;
  const size_t avg_row_cost =
      std::max<size_t>(1, (nnz / std::max<size_t>(rows, 1)) * dense_cols);
  return std::max<size_t>(1, kFlopGrain / avg_row_cost);
}

}  // namespace

SparseMatrix SparseMatrix::FromTriplets(size_t rows, size_t cols,
                                        std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    GNN4TDL_CHECK_LT(t.row, rows);
    GNN4TDL_CHECK_LT(t.col, cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  for (size_t i = 0; i < triplets.size();) {
    size_t j = i;
    double sum = 0.0;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    m.col_idx_.push_back(triplets[i].col);
    m.values_.push_back(sum);
    m.row_ptr_[triplets[i].row + 1]++;
    i = j;
  }
  for (size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

SparseMatrix SparseMatrix::FromCsr(size_t rows, size_t cols,
                                   std::vector<size_t> row_ptr,
                                   std::vector<size_t> col_idx,
                                   std::vector<double> values) {
  GNN4TDL_CHECK_EQ(row_ptr.size(), rows + 1);
  GNN4TDL_CHECK_EQ(col_idx.size(), values.size());
  GNN4TDL_CHECK_EQ(row_ptr.back(), col_idx.size());
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

Matrix SparseMatrix::Multiply(const Matrix& dense) const {
  GNN4TDL_CHECK_EQ(cols_, dense.rows());
  Matrix out = Matrix::Uninitialized(rows_, dense.cols());
  const size_t n = dense.cols();
  obs::KernelScope kernel(
      "spmm", 2.0 * static_cast<double>(nnz()) * n,
      8.0 * (static_cast<double>(nnz()) * (n + 2) +
             static_cast<double>(rows_) * n));
  // CSR rows are independent: parallel over output-row blocks, each row
  // accumulating in serial k-order from +0.0 (the chunk zeroes its own rows
  // first) — bit-exact for every thread count.
  const auto& f64 = kernels::Dispatch().f64;
  ParallelFor(0, rows_, SpmmRowGrain(nnz(), rows_, n),
              [&](size_t lo, size_t hi) {
    std::fill(out.row_data(lo), out.row_data(hi), 0.0);
    f64.spmm(row_ptr_.data(), col_idx_.data(), values_.data(), dense.data(),
             n, lo, hi, out.data());
  });
  return out;
}

SparseMatrix SparseMatrix::Transpose() const {
  // Counting sort by column: count each column's entries, prefix-sum into
  // the transpose's row_ptr, then place the entries with rows ascending (CSR
  // order inside a row). Row c of the transpose lists its source rows in
  // ascending order, so Transpose().Multiply(x) adds each output element's
  // terms in the order of a serial scatter over the rows of this matrix.
  SparseMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.assign(cols_ + 1, 0);
  for (size_t c : col_idx_) ++t.row_ptr_[c + 1];
  for (size_t c = 0; c < cols_; ++c) t.row_ptr_[c + 1] += t.row_ptr_[c];
  t.col_idx_.resize(nnz());
  t.values_.resize(nnz());
  std::vector<size_t> next(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const size_t at = next[col_idx_[k]]++;
      t.col_idx_[at] = r;
      t.values_[at] = values_[k];
    }
  }
  return t;
}

Matrix SparseMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r)
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      out(r, col_idx_[k]) += values_[k];
  return out;
}

namespace {

// Grain for per-edge segment kernels: scatter phases cost a handful of flops
// per edge, so chunks hold many edges; below this the per-chunk group arrays
// (num_groups doubles each) would dominate.
constexpr size_t kSegmentGrain = 8192;

// Folds per-edge contributions into per-group accumulators. The scatter is
// racy across threads, so each chunk fills its own group array (initialized
// to `init`) and the arrays are tree-combined with `fold`. The chunks depend
// only on num_edges (at most kReduceMaxChunks, so memory stays bounded at
// kReduceMaxChunks * num_groups doubles): the same bits at every thread
// count.
template <typename PerEdge, typename Fold>
std::vector<double> SegmentAccumulate(size_t num_edges, size_t num_groups,
                                      double init, const PerEdge& per_edge,
                                      const Fold& fold) {
  std::vector<Range> ranges =
      PartitionRange(0, num_edges, kSegmentGrain, kReduceMaxChunks);
  if (ranges.size() <= 1) {
    std::vector<double> acc(num_groups, init);
    for (size_t e = 0; e < num_edges; ++e) per_edge(e, acc);
    return acc;
  }
  std::vector<std::vector<double>> partials(ranges.size());
  ThreadPool::Global().Run(ranges.size(), [&](size_t c) {
    std::vector<double> acc(num_groups, init);
    for (size_t e = ranges[c].begin; e < ranges[c].end; ++e) per_edge(e, acc);
    partials[c] = std::move(acc);
  });
  TreeCombine(partials,
              [&](std::vector<double>& into, const std::vector<double>& from) {
                for (size_t g = 0; g < into.size(); ++g) fold(into[g], from[g]);
              });
  return std::move(partials[0]);
}

}  // namespace

Matrix SegmentSoftmax(const Matrix& logits, const std::vector<size_t>& seg,
                      size_t num_groups) {
  GNN4TDL_CHECK_EQ(logits.cols(), 1u);
  GNN4TDL_CHECK_EQ(logits.rows(), seg.size());
  const size_t e_count = seg.size();
  // ~5 flops per edge across the max/exp/sum/normalize phases.
  obs::KernelScope kernel("segment_softmax", 5.0 * static_cast<double>(e_count),
                          8.0 * (3.0 * e_count + 2.0 * num_groups));
  for (size_t e = 0; e < e_count; ++e) GNN4TDL_CHECK_LT(seg[e], num_groups);

  // Phase 1: per-group max (order-insensitive fold).
  std::vector<double> group_max = SegmentAccumulate(
      e_count, num_groups, -std::numeric_limits<double>::infinity(),
      [&](size_t e, std::vector<double>& acc) {
        acc[seg[e]] = std::max(acc[seg[e]], logits(e, 0));
      },
      [](double& into, double from) { into = std::max(into, from); });

  // Phase 2: shifted exponentials (elementwise, write-disjoint) ...
  Matrix out(e_count, 1);
  ParallelFor(0, e_count, kSegmentGrain, [&](size_t lo, size_t hi) {
    for (size_t e = lo; e < hi; ++e)
      out(e, 0) = std::exp(logits(e, 0) - group_max[seg[e]]);
  });
  // ... and per-group sums (tree-reduced, the same at every thread count).
  std::vector<double> group_sum = SegmentAccumulate(
      e_count, num_groups, 0.0,
      [&](size_t e, std::vector<double>& acc) { acc[seg[e]] += out(e, 0); },
      [](double& into, double from) { into += from; });

  // Phase 3: normalize (elementwise).
  ParallelFor(0, e_count, kSegmentGrain, [&](size_t lo, size_t hi) {
    for (size_t e = lo; e < hi; ++e) out(e, 0) /= group_sum[seg[e]];
  });
  return out;
}

Matrix SegmentSoftmaxBackward(const Matrix& softmax, const Matrix& grad,
                              const std::vector<size_t>& seg,
                              size_t num_groups) {
  GNN4TDL_CHECK_EQ(softmax.cols(), 1u);
  GNN4TDL_CHECK_EQ(grad.cols(), 1u);
  GNN4TDL_CHECK_EQ(softmax.rows(), seg.size());
  GNN4TDL_CHECK_EQ(grad.rows(), seg.size());
  const size_t e_count = seg.size();
  obs::KernelScope kernel("segment_softmax_bwd",
                          5.0 * static_cast<double>(e_count),
                          8.0 * (4.0 * e_count + num_groups));

  std::vector<double> group_dot = SegmentAccumulate(
      e_count, num_groups, 0.0,
      [&](size_t e, std::vector<double>& acc) {
        acc[seg[e]] += grad(e, 0) * softmax(e, 0);
      },
      [](double& into, double from) { into += from; });

  Matrix out(e_count, 1);
  ParallelFor(0, e_count, kSegmentGrain, [&](size_t lo, size_t hi) {
    for (size_t e = lo; e < hi; ++e)
      out(e, 0) = softmax(e, 0) * (grad(e, 0) - group_dot[seg[e]]);
  });
  return out;
}

double SparseMatrix::At(size_t row, size_t col) const {
  GNN4TDL_CHECK_LT(row, rows_);
  GNN4TDL_CHECK_LT(col, cols_);
  auto begin = col_idx_.begin() + static_cast<ptrdiff_t>(row_ptr_[row]);
  auto end = col_idx_.begin() + static_cast<ptrdiff_t>(row_ptr_[row + 1]);
  auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<size_t>(it - col_idx_.begin())];
}

}  // namespace gnn4tdl
