#include "serve/knn_index.h"

#include <algorithm>

#include "common/check.h"

namespace gnn4tdl {

StatusOr<KnnIndex> KnnIndex::Build(const Matrix& reference,
                                   SimilarityMetric metric, double gamma) {
  if (reference.rows() == 0 || reference.cols() == 0) {
    return Status::InvalidArgument("KnnIndex requires a non-empty reference");
  }
  return KnnIndex(KnnReference(reference, metric, gamma));
}

std::vector<KnnHit> KnnIndex::Query(const double* query, size_t k) const {
  const Matrix row(1, reference_.cols(),
                   std::vector<double>(query, query + reference_.cols()));
  return std::move(QueryBatch(row, k)[0]);
}

std::vector<std::vector<KnnHit>> KnnIndex::QueryBatch(const Matrix& x,
                                                      size_t k) const {
  GNN4TDL_CHECK_EQ(x.cols(), reference_.cols());
  return reference_.TopK(x, std::max<size_t>(k, 1));
}

}  // namespace gnn4tdl
