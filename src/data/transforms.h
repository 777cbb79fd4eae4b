#pragma once

#include <vector>

#include "common/status.h"
#include "data/tabular.h"
#include "tensor/matrix.h"

namespace gnn4tdl {

class BoundedReader;
class TextWriter;

/// Options controlling how a TabularDataset is turned into a dense feature
/// matrix for model input.
struct FeaturizerOptions {
  /// Z-score numerical columns using statistics of the rows in `fit_rows`
  /// (typically the training split, to avoid leakage).
  bool standardize = true;

  /// One-hot encode categorical columns (otherwise raw codes are emitted as a
  /// single numeric column each).
  bool one_hot = true;

  /// Imputation value for missing numerical entries *after* standardization
  /// (0 = the column mean when standardizing).
  double missing_fill = 0.0;

  /// Append one 0/1 indicator column per input column that contains missing
  /// values.
  bool add_missing_indicators = false;
};

/// Converts typed tabular columns into a dense n x d feature matrix:
/// standardization for numeric columns, one-hot for categoricals, and
/// configurable missing-value handling. Fit on a row subset, apply to all.
class Featurizer {
 public:
  explicit Featurizer(FeaturizerOptions options = {}) : options_(options) {}

  /// Computes per-column statistics from `fit_rows` of `data` (empty = all
  /// rows) and freezes the output schema.
  Status Fit(const TabularDataset& data, const std::vector<size_t>& fit_rows = {});

  /// Applies the fitted transform to every row of `data` (same schema as the
  /// fit dataset).
  StatusOr<Matrix> Transform(const TabularDataset& data) const;

  /// Fit on all rows, then transform.
  StatusOr<Matrix> FitTransform(const TabularDataset& data);

  /// Output feature dimension (valid after Fit).
  size_t OutputDim() const { return output_dim_; }

  /// For output column j, the index of the source dataset column it came from
  /// (valid after Fit). One-hot blocks map every column back to their source.
  const std::vector<size_t>& OutputToSourceColumn() const {
    return output_to_source_;
  }

  /// Serializes the fitted transform (options + per-column statistics) as a
  /// self-delimiting text block, so a serving process can reproduce
  /// Transform() exactly without the training data.
  Status Save(TextWriter& out) const;

  /// Restores a featurizer saved by Save(). The result is fitted. Counts are
  /// held to what the rest of the input can back and the column widths must
  /// add up to the output dimension; every violation is IoError.
  static StatusOr<Featurizer> Load(BoundedReader& in);

 private:
  /// Output columns source column `c` fills: its one-hot block, or one.
  size_t FittedWidth(size_t c) const;

  struct NumericStats {
    double mean = 0.0;
    double stddev = 1.0;
  };

  FeaturizerOptions options_;
  bool fitted_ = false;
  size_t num_source_cols_ = 0;
  std::vector<NumericStats> numeric_stats_;   // per source column (unused slots for categoricals)
  std::vector<size_t> cardinalities_;         // per source column (0 for numeric)
  std::vector<bool> has_missing_;             // per source column at fit time
  size_t output_dim_ = 0;
  std::vector<size_t> output_to_source_;
};

/// Standardizes the columns of a plain matrix in place using rows `fit_rows`
/// for the statistics (empty = all rows). Returns the (mean, stddev) pairs.
std::vector<std::pair<double, double>> StandardizeColumns(
    Matrix& x, const std::vector<size_t>& fit_rows = {});

}  // namespace gnn4tdl
