#pragma once

#include <functional>
#include <vector>

#include "common/status.h"
#include "data/split.h"
#include "data/tabular.h"
#include "nn/tensor.h"

namespace gnn4tdl {

/// The supervised main task (§4.4) of a model that scores every row of the
/// dataset in one forward: the one place that turns the dataset's task into
/// a head width, a training loss masked to split.train and a validation
/// metric over split.val. Models add their auxiliary terms to Loss()'s
/// result themselves. Keeps pointers to `data` and `split`, which must
/// outlive the objective and its Validation() closure.
class SupervisedObjective {
 public:
  /// FailedPrecondition("dataset has no labels") for an unlabeled table.
  static StatusOr<SupervisedObjective> Make(const TabularDataset& data,
                                            const Split& split);

  /// Head width: 1 for regression, num_classes otherwise.
  size_t output_dim() const;

  /// Training loss of n x output_dim() logits over the split.train rows: MSE
  /// against the regression labels, softmax cross-entropy otherwise.
  Tensor Loss(const Tensor& logits) const;

  /// Trainer::Fit's validation closure: -RMSE (regression) or accuracy of
  /// the n x output_dim() `logits()` over the split.val rows. Null when
  /// split.val is empty.
  std::function<double()> Validation(std::function<Matrix()> logits) const;

 private:
  SupervisedObjective(const TabularDataset& data, const Split& split);

  const TabularDataset* data_;
  const Split* split_;
  bool regression_;
  std::vector<double> train_mask_;
  Matrix regression_labels_;  // n x 1; empty for classification
};

}  // namespace gnn4tdl
