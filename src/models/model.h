#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "data/split.h"
#include "data/tabular.h"
#include "tensor/matrix.h"

namespace gnn4tdl {

/// Common interface for every method family in the library (Table 2 rows and
/// baselines). The protocol is transductive-friendly: Fit() receives the
/// *whole* dataset plus the split (unlabeled rows are visible to graph
/// construction, labels are only read for split.train / split.val), and
/// Predict() scores every row of the dataset.
///
/// Transductive models (instance-graph GNNs) require Predict() to be called
/// with the same dataset used in Fit(); inductive models (MLP, GBDT, kNN,
/// feature-graph GNNs) accept any dataset with the same schema.
class TabularModel {
 public:
  virtual ~TabularModel() = default;

  TabularModel() = default;
  TabularModel(const TabularModel&) = delete;
  TabularModel& operator=(const TabularModel&) = delete;

  /// Trains on `data` using labels of split.train (split.val for early
  /// stopping where applicable).
  virtual Status Fit(const TabularDataset& data, const Split& split) = 0;

  /// Scores every row: n x num_classes logits for classification /
  /// anomaly-score column for anomaly detection / n x 1 predictions for
  /// regression.
  virtual StatusOr<Matrix> Predict(const TabularDataset& data) = 0;

  /// Short display name for experiment tables.
  virtual std::string Name() const = 0;
};

/// The Predict() precondition of a transductive model: FailedPrecondition
/// ("Predict before Fit") unless `fitted`, and InvalidArgument unless `data`
/// has the `fitted_rows` rows of the dataset passed to Fit().
Status CheckTransductivePredict(bool fitted, size_t fitted_rows,
                                const TabularDataset& data);

/// Metrics of one model on one row subset. Which fields are meaningful
/// depends on the task.
struct EvalResult {
  double accuracy = 0.0;
  double macro_f1 = 0.0;
  double auroc = 0.5;
  double rmse = 0.0;
  double mae = 0.0;
  double r2 = 0.0;
};

/// Fits `model`, predicts, and computes task-appropriate metrics over
/// `rows` (typically split.test).
StatusOr<EvalResult> FitAndEvaluate(TabularModel& model,
                                    const TabularDataset& data,
                                    const Split& split,
                                    const std::vector<size_t>& rows);

/// Computes metrics from existing predictions.
EvalResult EvaluatePredictions(const Matrix& predictions,
                               const TabularDataset& data,
                               const std::vector<size_t>& rows);

}  // namespace gnn4tdl
