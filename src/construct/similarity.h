#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "tensor/matrix.h"

namespace gnn4tdl {

/// Similarity measures used by rule-based graph construction (Table 3 of the
/// survey). All are expressed as similarities: higher = more alike. Distance
/// metrics (Euclidean, Manhattan) are negated.
enum class SimilarityMetric {
  kEuclidean,     // -||a - b||_2
  kManhattan,     // -||a - b||_1
  kCosine,        // <a, b> / (||a|| ||b||)
  kRbf,           // exp(-gamma ||a - b||^2): the RBF / Gaussian / heat kernel
  kPearson,       // correlation of the two vectors
  kInnerProduct,  // <a, b>
};

const char* SimilarityMetricName(SimilarityMetric m);

/// Parses a metric name produced by SimilarityMetricName (plus the "gaussian"
/// / "heat" aliases for rbf). Unknown names are InvalidArgument.
StatusOr<SimilarityMetric> SimilarityMetricFromName(const std::string& name);

/// Similarity between the length-`dim` vectors `a` and `b`. `gamma` is the RBF
/// bandwidth (ignored by other metrics). This is the only implementation of
/// the metric arithmetic: every other similarity in the library (RowSimilarity,
/// ExactTopK, and through it kNN construction, inductive attachment and the
/// serving index) evaluates it with the query or first row as `a`.
double VectorSimilarity(const double* a, const double* b, size_t dim,
                        SimilarityMetric m, double gamma = 1.0);

/// Similarity between rows `a` and `b` of `x`.
double RowSimilarity(const Matrix& x, size_t a, size_t b, SimilarityMetric m,
                     double gamma = 1.0);

/// Dense n x n similarity matrix over the rows of `x` (diagonal = self
/// similarity). Quadratic; intended for rule-based construction on
/// laptop-scale data.
Matrix PairwiseSimilarity(const Matrix& x, SimilarityMetric m,
                          double gamma = 1.0);

/// A neighbor hit: reference row index and its similarity to the query.
struct KnnHit {
  size_t index;
  double similarity;
};

/// The one neighbor ranking: similarity descending, reference index ascending
/// on exact ties, NaN similarities after every number. A strict total order
/// over distinct indices, so top-k selection is deterministic even on
/// duplicate rows or non-finite input.
inline bool BetterHit(const KnnHit& a, const KnnHit& b) {
  if (a.similarity > b.similarity) return true;
  if (a.similarity < b.similarity) return false;
  if (a.similarity != b.similarity) {  // at least one is NaN
    const bool a_nan = std::isnan(a.similarity);
    if (a_nan != std::isnan(b.similarity)) return !a_nan;
  }
  return a.index < b.index;
}

/// Marks "no excluded row" for ExactTopK.
inline constexpr size_t kNoExcludedRow = static_cast<size_t>(-1);

/// The exact k-nearest-neighbor search every kNN rule shares: scores `query`
/// (length reference.cols()) against each row of `reference` with
/// VectorSimilarity and returns the min(k, candidates) best hits, ordered by
/// BetterHit. `exclude` drops one reference row from the candidates (the
/// query's own row when building a graph over `reference` itself).
std::vector<KnnHit> ExactTopK(const double* query, const Matrix& reference,
                              size_t k, SimilarityMetric metric,
                              double gamma = 1.0,
                              size_t exclude = kNoExcludedRow);

}  // namespace gnn4tdl
