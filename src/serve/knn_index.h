#pragma once

#include <utility>
#include <vector>

#include "common/status.h"
#include "construct/similarity.h"
#include "tensor/matrix.h"

namespace gnn4tdl {

/// Read-only exact k-nearest-neighbor index over the rows of a frozen
/// reference matrix (the featurized training table of a FrozenModel). Built
/// once at load time, queried per request by serve/InductiveAttacher.
///
/// Queries run construct/similarity KnnReference::TopK, the same search
/// InstanceGraphGnn::PredictInductive attaches new rows with, so the served
/// neighbor lists (indices, similarity bits and BetterHit order) are
/// identical to the training side's. The index keeps only the packed rows.
class KnnIndex {
 public:
  [[nodiscard]] static StatusOr<KnnIndex> Build(const Matrix& reference,
                                                SimilarityMetric metric,
                                                double gamma = 1.0);

  /// The k reference rows most similar to `query` (one value per reference
  /// column), best first. k is clamped to [1, reference rows].
  std::vector<KnnHit> Query(const double* query, size_t k) const;

  /// Queries every row of `x`; out[i] = hits for row i. k is clamped as in
  /// Query.
  std::vector<std::vector<KnnHit>> QueryBatch(const Matrix& x,
                                              size_t k) const;

 private:
  explicit KnnIndex(KnnReference reference)
      : reference_(std::move(reference)) {}

  KnnReference reference_;
};

}  // namespace gnn4tdl
