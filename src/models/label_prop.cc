#include "models/label_prop.h"

namespace gnn4tdl {

LabelPropagation::LabelPropagation(LabelPropagationOptions options)
    : options_(std::move(options)) {}

Status LabelPropagation::Fit(const TabularDataset& data, const Split& split) {
  if (data.task() != TaskType::kBinaryClassification &&
      data.task() != TaskType::kMultiClassification) {
    return Status::InvalidArgument("label propagation requires classification");
  }
  if (split.train.empty()) {
    return Status::InvalidArgument("no labeled rows to propagate from");
  }
  Featurizer featurizer(options_.featurizer);
  GNN4TDL_RETURN_IF_ERROR(featurizer.Fit(data, split.train));
  StatusOr<Matrix> x = featurizer.Transform(data);
  if (!x.ok()) return x.status();

  Graph graph = KnnGraph(*x, options_.knn);
  SparseMatrix s = graph.GcnNormalized(/*add_self_loops=*/false);

  const size_t n = data.NumRows();
  const size_t c_count = static_cast<size_t>(data.num_classes());
  Matrix y0(n, c_count);
  for (size_t i : split.train)
    y0(i, static_cast<size_t>(data.class_labels()[i])) = 1.0;

  Matrix f = y0;
  const double alpha = options_.alpha;
  for (size_t it = 0; it < options_.num_iters; ++it) {
    f = s.Multiply(f) * alpha + y0 * (1.0 - alpha);
    // Clamp seeds to their true labels.
    for (size_t i : split.train)
      for (size_t c = 0; c < c_count; ++c) f(i, c) = y0(i, c);
  }
  scores_ = std::move(f);
  fitted_ = true;
  return Status::OK();
}

StatusOr<Matrix> LabelPropagation::Predict(const TabularDataset& data) {
  GNN4TDL_RETURN_IF_ERROR(
      CheckTransductivePredict(fitted_, scores_.rows(), data));
  return scores_;
}

}  // namespace gnn4tdl
