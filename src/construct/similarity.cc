#include "construct/similarity.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "common/check.h"
#include "common/parallel.h"
#include "kernels/kernels.h"

namespace gnn4tdl {

const char* SimilarityMetricName(SimilarityMetric m) {
  switch (m) {
    case SimilarityMetric::kEuclidean:
      return "euclidean";
    case SimilarityMetric::kManhattan:
      return "manhattan";
    case SimilarityMetric::kCosine:
      return "cosine";
    case SimilarityMetric::kRbf:
      return "rbf";
    case SimilarityMetric::kPearson:
      return "pearson";
    case SimilarityMetric::kInnerProduct:
      return "inner_product";
  }
  return "unknown";
}

StatusOr<SimilarityMetric> SimilarityMetricFromName(const std::string& name) {
  if (name == "euclidean") return SimilarityMetric::kEuclidean;
  if (name == "manhattan") return SimilarityMetric::kManhattan;
  if (name == "cosine") return SimilarityMetric::kCosine;
  if (name == "rbf" || name == "gaussian" || name == "heat")
    return SimilarityMetric::kRbf;
  if (name == "pearson") return SimilarityMetric::kPearson;
  if (name == "inner_product") return SimilarityMetric::kInnerProduct;
  return Status::InvalidArgument("unknown similarity metric: '" + name + "'");
}

namespace {

using kernels::KnnScanOp;
using kernels::kKnnLanes;

// The per-row constants. VectorSimilarity computes them inside each pair;
// KnnReference computes them once per reference row and TopK once per query,
// all through these functions, so every copy is the same value.

double SumOfSquares(const double* a, size_t d) {
  double s = 0.0;
  for (size_t j = 0; j < d; ++j) s += a[j] * a[j];
  return s;
}

double MeanOf(const double* a, size_t d) {
  double m = 0.0;
  for (size_t j = 0; j < d; ++j) m += a[j];
  return m / static_cast<double>(d);
}

double CenteredSumOfSquares(const double* a, double mean, size_t d) {
  double s = 0.0;
  for (size_t j = 0; j < d; ++j) {
    const double da = a[j] - mean;
    s += da * da;
  }
  return s;
}

/// The scan kernel's accumulation for each metric.
constexpr KnnScanOp ScanOpOf(SimilarityMetric m) {
  switch (m) {
    case SimilarityMetric::kEuclidean:
    case SimilarityMetric::kRbf:
      return KnnScanOp::kSquaredDiff;
    case SimilarityMetric::kManhattan:
      return KnnScanOp::kAbsDiff;
    case SimilarityMetric::kPearson:
      return KnnScanOp::kCenteredDot;
    case SimilarityMetric::kCosine:
    case SimilarityMetric::kInnerProduct:
      break;
  }
  return KnnScanOp::kDot;
}

/// Turns one pair's accumulation into its similarity. `a_norm` and `b_norm`
/// are the two rows' SumOfSquares (cosine) or CenteredSumOfSquares (Pearson).
template <SimilarityMetric M>
inline double Finalize(double acc, double a_norm, double b_norm,
                       double gamma) {
  if constexpr (M == SimilarityMetric::kEuclidean) {
    return -std::sqrt(acc);
  } else if constexpr (M == SimilarityMetric::kRbf) {
    return std::exp(-gamma * acc);
  } else if constexpr (M == SimilarityMetric::kManhattan) {
    return -acc;
  } else if constexpr (M == SimilarityMetric::kCosine ||
                       M == SimilarityMetric::kPearson) {
    const double denom = std::sqrt(a_norm) * std::sqrt(b_norm);
    return denom > 1e-12 ? acc / denom : 0.0;
  } else {
    static_assert(M == SimilarityMetric::kInnerProduct);
    return acc;
  }
}

/// The metric arithmetic for one pair: the kernel's per-lane sequence
/// (kernels::KnnScanOp) over the dimensions in order, then Finalize.
template <SimilarityMetric M>
double SimilarityOf(const double* a, const double* b, size_t d, double gamma) {
  double acc = 0.0;
  double a_norm = 0.0, b_norm = 0.0;
  if constexpr (ScanOpOf(M) == KnnScanOp::kSquaredDiff) {
    for (size_t j = 0; j < d; ++j) {
      const double diff = a[j] - b[j];
      acc += diff * diff;
    }
  } else if constexpr (ScanOpOf(M) == KnnScanOp::kAbsDiff) {
    for (size_t j = 0; j < d; ++j) acc += std::fabs(a[j] - b[j]);
  } else if constexpr (ScanOpOf(M) == KnnScanOp::kDot) {
    for (size_t j = 0; j < d; ++j) acc += a[j] * b[j];
    if constexpr (M == SimilarityMetric::kCosine) {
      a_norm = SumOfSquares(a, d);
      b_norm = SumOfSquares(b, d);
    }
  } else {
    const double ma = MeanOf(a, d);
    const double mb = MeanOf(b, d);
    for (size_t j = 0; j < d; ++j) acc += (a[j] - ma) * (b[j] - mb);
    a_norm = CenteredSumOfSquares(a, ma, d);
    b_norm = CenteredSumOfSquares(b, mb, d);
  }
  return Finalize<M>(acc, a_norm, b_norm, gamma);
}

/// Calls fn(std::integral_constant<SimilarityMetric, m>{}): the single
/// runtime-to-compile-time metric switch.
template <typename Fn>
decltype(auto) WithMetric(SimilarityMetric m, Fn&& fn) {
  using M = SimilarityMetric;
  switch (m) {
    case M::kEuclidean:
      return fn(std::integral_constant<M, M::kEuclidean>{});
    case M::kManhattan:
      return fn(std::integral_constant<M, M::kManhattan>{});
    case M::kCosine:
      return fn(std::integral_constant<M, M::kCosine>{});
    case M::kRbf:
      return fn(std::integral_constant<M, M::kRbf>{});
    case M::kPearson:
      return fn(std::integral_constant<M, M::kPearson>{});
    case M::kInnerProduct:
      break;
  }
  return fn(std::integral_constant<M, M::kInnerProduct>{});
}

/// The `take` best of the n accumulations `acc` (one query against every
/// reference row), skipping row `exclude`: a take-sized heap whose front is
/// the worst kept hit under BetterHit.
template <SimilarityMetric M>
std::vector<KnnHit> SelectTopK(const double* acc, size_t n, double a_norm,
                               const double* b_norm, double gamma,
                               size_t exclude, size_t take) {
  // A std heap keeps its greatest element at the front: with BetterHit as
  // the order, the worst kept hit. A lambda, not the function pointer, so
  // the comparison inlines.
  const auto better = [](const KnnHit& a, const KnnHit& b) {
    return BetterHit(a, b);
  };
  // Euclidean and Manhattan rank by a monotone function of the raw
  // accumulation, so a candidate whose accumulation is >= the worst kept
  // hit's cannot beat it (on a tie the later index loses) and is skipped
  // before Finalize. The bound is NaN until the heap fills, and a NaN
  // bound or accumulation rejects nothing.
  constexpr bool kQuickReject =
      M == SimilarityMetric::kEuclidean || M == SimilarityMetric::kManhattan;
  double bound = std::numeric_limits<double>::quiet_NaN();
  std::vector<KnnHit> heap;
  heap.reserve(take);
  for (size_t j = 0; j < n; ++j) {
    if (j == exclude) continue;
    if constexpr (kQuickReject) {
      if (acc[j] >= bound) continue;
    }
    const KnnHit hit{
        j, Finalize<M>(acc[j], a_norm, b_norm != nullptr ? b_norm[j] : 0.0,
                       gamma)};
    if (heap.size() < take) {
      heap.push_back(hit);
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (BetterHit(hit, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = hit;
      std::push_heap(heap.begin(), heap.end(), better);
    }
    if constexpr (kQuickReject) {
      if (heap.size() == take) bound = acc[heap.front().index];
    }
  }
  std::sort_heap(heap.begin(), heap.end(), better);
  return heap;
}

// Query rows per kernel call: the AVX2 tier's query tile.
constexpr size_t kQueryTile = 4;

// Minimum pair-dimensions of work per ParallelFor chunk (~30 us of scan):
// a few serving rows against a few thousand references stay on the caller.
constexpr size_t kScanGrain = size_t{1} << 18;

}  // namespace

double VectorSimilarity(const double* a, const double* b, size_t dim,
                        SimilarityMetric m, double gamma) {
  return WithMetric(m, [&](auto metric) {
    return SimilarityOf<metric.value>(a, b, dim, gamma);
  });
}

double RowSimilarity(const Matrix& x, size_t a, size_t b, SimilarityMetric m,
                     double gamma) {
  GNN4TDL_CHECK_LT(a, x.rows());
  GNN4TDL_CHECK_LT(b, x.rows());
  return VectorSimilarity(x.row_data(a), x.row_data(b), x.cols(), m, gamma);
}

KnnReference::KnnReference(const Matrix& rows, SimilarityMetric metric,
                           double gamma)
    : rows_(rows.rows()),
      cols_(rows.cols()),
      blocks_((rows_ + kKnnLanes - 1) / kKnnLanes),
      metric_(metric),
      gamma_(gamma),
      packed_(blocks_ * cols_ * kKnnLanes, 0.0) {
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = rows.row_data(r);
    double* lane = packed_.data() + (r / kKnnLanes) * cols_ * kKnnLanes +
                   r % kKnnLanes;
    for (size_t j = 0; j < cols_; ++j) lane[j * kKnnLanes] = row[j];
  }
  if (metric_ == SimilarityMetric::kCosine) {
    row_norm_.resize(rows_);
    for (size_t r = 0; r < rows_; ++r)
      row_norm_[r] = SumOfSquares(rows.row_data(r), cols_);
  } else if (metric_ == SimilarityMetric::kPearson) {
    row_mean_.assign(blocks_ * kKnnLanes, 0.0);
    row_norm_.resize(rows_);
    for (size_t r = 0; r < rows_; ++r) {
      row_mean_[r] = MeanOf(rows.row_data(r), cols_);
      row_norm_[r] =
          CenteredSumOfSquares(rows.row_data(r), row_mean_[r], cols_);
    }
  }
}

std::vector<std::vector<KnnHit>> KnnReference::TopK(const Matrix& queries,
                                                    size_t k,
                                                    bool exclude_self) const {
  GNN4TDL_CHECK_EQ(queries.cols(), cols_);
  if (exclude_self) GNN4TDL_CHECK_LE(queries.rows(), rows_);
  const size_t m = queries.rows();
  std::vector<std::vector<KnnHit>> out(m);
  const size_t candidates = exclude_self && rows_ > 0 ? rows_ - 1 : rows_;
  const size_t take = std::min(k, candidates);
  if (take == 0) return out;
  const size_t stride = blocks_ * kKnnLanes;
  const size_t grain =
      std::max<size_t>(1, kScanGrain / std::max<size_t>(1, rows_ * cols_));
  WithMetric(metric_, [&](auto metric) {
    constexpr SimilarityMetric M = metric.value;
    ParallelFor(0, m, grain, [&](size_t lo, size_t hi) {
      std::vector<double> acc(std::min(kQueryTile, hi - lo) * stride);
      std::vector<double> centred;  // Pearson: the tile's queries minus means
      if constexpr (M == SimilarityMetric::kPearson)
        centred.resize(kQueryTile * cols_);
      for (size_t q0 = lo; q0 < hi; q0 += kQueryTile) {
        const size_t nq = std::min(kQueryTile, hi - q0);
        const double* tile = queries.row_data(q0);
        double a_norm[kQueryTile] = {};
        for (size_t i = 0; i < nq; ++i) {
          const double* query = queries.row_data(q0 + i);
          if constexpr (M == SimilarityMetric::kCosine) {
            a_norm[i] = SumOfSquares(query, cols_);
          } else if constexpr (M == SimilarityMetric::kPearson) {
            const double mean = MeanOf(query, cols_);
            for (size_t j = 0; j < cols_; ++j)
              centred[i * cols_ + j] = query[j] - mean;
            a_norm[i] = CenteredSumOfSquares(query, mean, cols_);
          }
        }
        if constexpr (M == SimilarityMetric::kPearson) tile = centred.data();
        kernels::KnnScan(ScanOpOf(M), tile, nq, packed_.data(),
                         row_mean_.empty() ? nullptr : row_mean_.data(),
                         blocks_, cols_, acc.data());
        for (size_t i = 0; i < nq; ++i) {
          out[q0 + i] = SelectTopK<M>(
              acc.data() + i * stride, rows_, a_norm[i],
              row_norm_.empty() ? nullptr : row_norm_.data(), gamma_,
              exclude_self ? q0 + i : static_cast<size_t>(-1), take);
        }
      }
    });
  });
  return out;
}

Matrix PairwiseSimilarity(const Matrix& x, SimilarityMetric m, double gamma) {
  const size_t n = x.rows();
  Matrix sim(n, n);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a; b < n; ++b) {
      double s = RowSimilarity(x, a, b, m, gamma);
      sim(a, b) = s;
      sim(b, a) = s;
    }
  }
  return sim;
}

}  // namespace gnn4tdl
