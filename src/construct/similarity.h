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
/// bandwidth (ignored by other metrics). This is the definition of the metric
/// arithmetic: RowSimilarity evaluates it directly, and KnnReference::TopK
/// (kNN construction, inductive attachment, the serving index) reproduces it
/// bit for bit with the query as `a`.
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

/// Reference rows packed once for the exact kNN search, in the layout of the
/// f64 scan kernel (kernels::KnnScan: blocks of four rows, dimension-major
/// inside a block, so one SIMD lane scores one row). Also holds the per-row
/// constants the metric needs, computed with VectorSimilarity's own
/// sequence: ||b||^2 for cosine, the mean and ||b - mean||^2 for Pearson.
/// Immutable after construction; TopK may run from any number of threads.
class KnnReference {
 public:
  KnnReference(const Matrix& rows, SimilarityMetric metric,
               double gamma = 1.0);

  size_t cols() const { return cols_; }

  /// The exact k-nearest-neighbor search every kNN rule shares: scores each
  /// row of `queries` (cols() columns) against every reference row and
  /// returns out[i], the min(k, candidates) best hits for query i ordered by
  /// BetterHit. Every similarity is bit-identical to VectorSimilarity with
  /// the query as `a`. With `exclude_self`, query i never returns reference
  /// row i (a table searched against itself; no more queries than rows).
  ///
  /// Queries run across the thread pool, a small batch on the calling
  /// thread. A query's answer depends only on it and the reference, never on
  /// the thread count, the SIMD tier or the other queries in the call.
  std::vector<std::vector<KnnHit>> TopK(const Matrix& queries, size_t k,
                                        bool exclude_self = false) const;

 private:
  size_t rows_;
  size_t cols_;
  size_t blocks_;
  SimilarityMetric metric_;
  double gamma_;
  std::vector<double> packed_;    // blocks_ x cols_ x 4, zero-padded rows
  std::vector<double> row_mean_;  // Pearson: each packed row's mean
  std::vector<double> row_norm_;  // cosine ||b||^2, Pearson ||b - mean||^2
};

}  // namespace gnn4tdl
