#include "serve/knn_index.h"

#include <algorithm>

#include "common/check.h"

namespace gnn4tdl {

StatusOr<KnnIndex> KnnIndex::Build(Matrix reference, SimilarityMetric metric,
                                   double gamma) {
  if (reference.rows() == 0 || reference.cols() == 0) {
    return Status::InvalidArgument("KnnIndex requires a non-empty reference");
  }
  return KnnIndex(std::move(reference), metric, gamma);
}

std::vector<KnnHit> KnnIndex::Query(const double* query, size_t k) const {
  return ExactTopK(query, reference_, std::max<size_t>(k, 1), metric_, gamma_);
}

std::vector<std::vector<KnnHit>> KnnIndex::QueryBatch(const Matrix& x,
                                                      size_t k) const {
  GNN4TDL_CHECK_EQ(x.cols(), reference_.cols());
  std::vector<std::vector<KnnHit>> out;
  out.reserve(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) out.push_back(Query(x.row_data(i), k));
  return out;
}

}  // namespace gnn4tdl
