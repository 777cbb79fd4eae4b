#include "models/knn_baseline.h"

namespace gnn4tdl {

KnnBaseline::KnnBaseline(KnnBaselineOptions options) : options_(options) {}

Status KnnBaseline::Fit(const TabularDataset& data, const Split& split) {
  task_ = data.task();
  if (task_ == TaskType::kNone) {
    return Status::FailedPrecondition("dataset has no labels");
  }
  GNN4TDL_RETURN_IF_ERROR(featurizer_.Fit(data, split.train));
  StatusOr<Matrix> x = featurizer_.Transform(data);
  if (!x.ok()) return x.status();
  x_train_ = x->GatherRows(split.train);
  if (task_ == TaskType::kRegression) {
    y_train_reg_.clear();
    for (size_t i : split.train)
      y_train_reg_.push_back(data.regression_labels()[i]);
  } else {
    num_classes_ = data.num_classes();
    y_train_cls_.clear();
    for (size_t i : split.train) y_train_cls_.push_back(data.class_labels()[i]);
  }
  return Status::OK();
}

StatusOr<Matrix> KnnBaseline::Predict(const TabularDataset& data) {
  if (task_ == TaskType::kNone) {
    return Status::FailedPrecondition("Predict before Fit");
  }
  StatusOr<Matrix> x = featurizer_.Transform(data);
  if (!x.ok()) return x.status();

  const size_t out_dim =
      task_ == TaskType::kRegression ? 1 : static_cast<size_t>(num_classes_);
  Matrix out(x->rows(), out_dim);
  const std::vector<std::vector<KnnHit>> hits =
      KnnReference(x_train_, options_.metric, options_.gamma)
          .TopK(*x, options_.k);
  for (size_t r = 0; r < x->rows(); ++r) {
    const std::vector<KnnHit>& nbrs = hits[r];
    if (task_ == TaskType::kRegression) {
      double sum = 0.0;
      for (const KnnHit& h : nbrs) sum += y_train_reg_[h.index];
      out(r, 0) = nbrs.empty() ? 0.0 : sum / static_cast<double>(nbrs.size());
    } else {
      for (const KnnHit& h : nbrs)
        out(r, static_cast<size_t>(y_train_cls_[h.index])) += 1.0;
    }
  }
  return out;
}

KnnDistanceDetector::KnnDistanceDetector(KnnBaselineOptions options)
    : options_(options) {}

Status KnnDistanceDetector::Fit(const TabularDataset& data,
                                const Split& split) {
  (void)split;  // unsupervised
  GNN4TDL_RETURN_IF_ERROR(featurizer_.Fit(data));
  fitted_ = true;
  return Status::OK();
}

StatusOr<Matrix> KnnDistanceDetector::Predict(const TabularDataset& data) {
  if (!fitted_) return Status::FailedPrecondition("Predict before Fit");
  StatusOr<Matrix> x = featurizer_.Transform(data);
  if (!x.ok()) return x.status();
  Matrix scores(x->rows(), 1);
  const std::vector<std::vector<KnnHit>> hits =
      KnnReference(*x, SimilarityMetric::kEuclidean)
          .TopK(*x, options_.k, /*exclude_self=*/true);
  for (size_t r = 0; r < x->rows(); ++r) {
    const std::vector<KnnHit>& nbrs = hits[r];
    double sum = 0.0;
    for (const KnnHit& h : nbrs) sum += -h.similarity;  // euclidean distance
    scores(r, 0) =
        nbrs.empty() ? 0.0 : sum / static_cast<double>(nbrs.size());
  }
  return scores;
}

}  // namespace gnn4tdl
