#include "construct/similarity.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/check.h"

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

/// The metric arithmetic, instantiated per metric so a scan over many rows
/// runs one inlined loop with no per-row dispatch.
template <SimilarityMetric M>
inline double SimilarityOf(const double* a, const double* b, size_t d,
                           double gamma) {
  if constexpr (M == SimilarityMetric::kEuclidean ||
                M == SimilarityMetric::kRbf) {
    double s = 0.0;
    for (size_t j = 0; j < d; ++j) {
      double diff = a[j] - b[j];
      s += diff * diff;
    }
    if constexpr (M == SimilarityMetric::kEuclidean) {
      return -std::sqrt(s);
    } else {
      return std::exp(-gamma * s);
    }
  } else if constexpr (M == SimilarityMetric::kManhattan) {
    double s = 0.0;
    for (size_t j = 0; j < d; ++j) s += std::fabs(a[j] - b[j]);
    return -s;
  } else if constexpr (M == SimilarityMetric::kCosine) {
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (size_t j = 0; j < d; ++j) {
      dot += a[j] * b[j];
      na += a[j] * a[j];
      nb += b[j] * b[j];
    }
    double denom = std::sqrt(na) * std::sqrt(nb);
    return denom > 1e-12 ? dot / denom : 0.0;
  } else if constexpr (M == SimilarityMetric::kPearson) {
    double ma = 0.0, mb = 0.0;
    for (size_t j = 0; j < d; ++j) {
      ma += a[j];
      mb += b[j];
    }
    ma /= static_cast<double>(d);
    mb /= static_cast<double>(d);
    double cov = 0.0, va = 0.0, vb = 0.0;
    for (size_t j = 0; j < d; ++j) {
      double da = a[j] - ma;
      double db = b[j] - mb;
      cov += da * db;
      va += da * da;
      vb += db * db;
    }
    double denom = std::sqrt(va) * std::sqrt(vb);
    return denom > 1e-12 ? cov / denom : 0.0;
  } else {
    static_assert(M == SimilarityMetric::kInnerProduct);
    double dot = 0.0;
    for (size_t j = 0; j < d; ++j) dot += a[j] * b[j];
    return dot;
  }
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

// Aligned to 64 bytes so the scan loop's placement does not depend on how
// much code links before it. On a 4-core Xeon, the same instructions 32 bytes
// off that boundary made KnnGraph construction and serving's kNN search ~45%
// slower, a branch-placement effect of the kind the Intel jump conditional
// code erratum mitigation causes.
__attribute__((aligned(64))) std::vector<KnnHit> ExactTopK(
    const double* query, const Matrix& reference, size_t k,
    SimilarityMetric metric, double gamma, size_t exclude) {
  const size_t n = reference.rows();
  const size_t d = reference.cols();
  const double* rows = reference.data();
  std::vector<KnnHit> hits(exclude < n ? n - 1 : n);
  WithMetric(metric, [query, rows, n, d, gamma, exclude, out = hits.data()](
                         auto m) {
    KnnHit* hit = out;
    for (size_t j = 0; j < n; ++j) {
      if (j == exclude) continue;
      *hit++ = {j, SimilarityOf<m.value>(query, rows + j * d, d, gamma)};
    }
  });
  // A lambda, not the function pointer, so the heap selection inlines the
  // comparison it makes for every candidate row.
  const size_t take = std::min(k, hits.size());
  std::partial_sort(
      hits.begin(), hits.begin() + static_cast<ptrdiff_t>(take), hits.end(),
      [](const KnnHit& a, const KnnHit& b) { return BetterHit(a, b); });
  hits.resize(take);
  return hits;
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
