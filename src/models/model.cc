#include "models/model.h"

#include "data/metrics.h"

namespace gnn4tdl {

EvalResult EvaluatePredictions(const Matrix& predictions,
                               const TabularDataset& data,
                               const std::vector<size_t>& rows) {
  EvalResult result;
  switch (data.task()) {
    case TaskType::kBinaryClassification:
    case TaskType::kMultiClassification: {
      const std::vector<int>& labels = data.class_labels();
      result.accuracy = Accuracy(predictions, labels, rows);
      result.macro_f1 = MacroF1(predictions, labels, data.num_classes(), rows);
      if (data.num_classes() == 2 && predictions.cols() <= 2) {
        result.auroc = Auroc(PositiveClassScores(predictions), labels, rows);
      }
      break;
    }
    case TaskType::kAnomalyDetection: {
      // Predictions are a single anomaly-score column (higher = more
      // anomalous) or two-class logits.
      std::vector<double> scores;
      if (predictions.cols() == 1) {
        scores.resize(predictions.rows());
        for (size_t r = 0; r < predictions.rows(); ++r)
          scores[r] = predictions(r, 0);
      } else {
        scores = PositiveClassScores(predictions);
      }
      result.auroc = Auroc(scores, data.class_labels(), rows);
      break;
    }
    case TaskType::kRegression: {
      const std::vector<double>& targets = data.regression_labels();
      result.rmse = Rmse(predictions, targets, rows);
      result.mae = Mae(predictions, targets, rows);
      result.r2 = R2(predictions, targets, rows);
      break;
    }
    case TaskType::kNone:
      break;
  }
  return result;
}

Status CheckTransductivePredict(bool fitted, size_t fitted_rows,
                                const TabularDataset& data) {
  if (!fitted) return Status::FailedPrecondition("Predict before Fit");
  if (data.NumRows() != fitted_rows) {
    return Status::InvalidArgument(
        "transductive model: Predict() requires the dataset used in Fit()");
  }
  return Status::OK();
}

StatusOr<EvalResult> FitAndEvaluate(TabularModel& model,
                                    const TabularDataset& data,
                                    const Split& split,
                                    const std::vector<size_t>& rows) {
  GNN4TDL_RETURN_IF_ERROR(model.Fit(data, split));
  StatusOr<Matrix> predictions = model.Predict(data);
  if (!predictions.ok()) return predictions.status();
  return EvaluatePredictions(*predictions, data, rows);
}

}  // namespace gnn4tdl
