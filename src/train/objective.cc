#include "train/objective.h"

#include "data/metrics.h"
#include "nn/ops.h"

namespace gnn4tdl {

StatusOr<SupervisedObjective> SupervisedObjective::Make(
    const TabularDataset& data, const Split& split) {
  if (data.task() == TaskType::kNone) {
    return Status::FailedPrecondition("dataset has no labels");
  }
  return SupervisedObjective(data, split);
}

SupervisedObjective::SupervisedObjective(const TabularDataset& data,
                                         const Split& split)
    : data_(&data),
      split_(&split),
      regression_(data.task() == TaskType::kRegression),
      train_mask_(Split::MaskFor(split.train, data.NumRows())) {
  if (regression_) regression_labels_ = data.RegressionLabelMatrix();
}

size_t SupervisedObjective::output_dim() const {
  return regression_ ? 1 : static_cast<size_t>(data_->num_classes());
}

Tensor SupervisedObjective::Loss(const Tensor& logits) const {
  return regression_ ? ops::MseLoss(logits, regression_labels_, train_mask_)
                     : ops::SoftmaxCrossEntropy(logits, data_->class_labels(),
                                                train_mask_);
}

std::function<double()> SupervisedObjective::Validation(
    std::function<Matrix()> logits) const {
  if (split_->val.empty()) return nullptr;
  // Captures the dataset and split, not `this`, so the closure does not
  // depend on where the objective lives.
  return [data = data_, val = &split_->val, regression = regression_,
          logits = std::move(logits)]() -> double {
    const Matrix out = logits();
    if (regression) return -Rmse(out, data->regression_labels(), *val);
    return Accuracy(out, data->class_labels(), *val);
  };
}

}  // namespace gnn4tdl
