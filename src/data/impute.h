#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/tabular.h"

namespace gnn4tdl {

// Classical missing-data imputers (Section 5.4's baselines). Each fills the
// missing cells of a TabularDataset in place; labels are untouched. The GNN
// alternative (GRAPE) lives in models/bipartite_imputer.h.

/// Column-statistic imputation: numeric columns get the mean (or median),
/// categorical columns the most frequent value.
enum class SimpleImputeStrategy { kMean, kMedian };
Status SimpleImpute(TabularDataset& data,
                    SimpleImputeStrategy strategy = SimpleImputeStrategy::kMean);

/// Row distances over the columns both rows observe, with no imputation:
/// numerical differences scaled by the column's standard deviation over its
/// observed cells, categorical cells 0 on a match and 1 otherwise, squared
/// terms averaged over the co-observed columns. Rows with no co-observed
/// column are maximally distant. KnnImpute and the GNN4MV-style
/// MissingAwareKnnGraph (construct/rule_based.h) both rank rows by it.
class CoObservedDistance {
 public:
  /// Keeps a reference to `data`, which must outlive this object.
  explicit CoObservedDistance(const TabularDataset& data);

  /// The min(k, rows - 1) rows nearest `row`, itself excluded, nearest
  /// first; equal distances rank by row index.
  std::vector<size_t> Nearest(size_t row, size_t k) const;

 private:
  double Distance(size_t a, size_t b) const;

  const TabularDataset& data_;
  std::vector<double> stddev_;  // 1 for categorical and unobserved columns
};

/// kNN imputation: each incomplete row copies the mean (numeric) / majority
/// (categorical) of its k nearest rows by CoObservedDistance.
struct KnnImputeOptions {
  size_t k = 10;
};
Status KnnImpute(TabularDataset& data, const KnnImputeOptions& options = {});

/// Iterative ridge imputation (MICE-lite): initialize with means, then
/// repeatedly regress each numeric column on all the others and overwrite its
/// missing entries with the regression predictions, until convergence.
/// Categorical columns are mode-imputed up front.
struct IterativeImputeOptions {
  size_t max_iters = 10;
  double ridge_lambda = 1.0;
  double tolerance = 1e-4;  // stop when max cell change drops below this
};
Status IterativeImpute(TabularDataset& data,
                       const IterativeImputeOptions& options = {});

/// A hidden ground-truth cell (numeric columns only).
struct HeldOutCell {
  size_t row;
  size_t col;
  double truth;
};

/// Hides ~`rate` of the observed numeric cells of `data` (sets them NaN) and
/// returns the ground truth for scoring. Deterministic in `seed`.
std::vector<HeldOutCell> HideNumericCells(TabularDataset& data, double rate,
                                          uint64_t seed);

/// RMSE of imputed values against held-out truth, with each column's error
/// scaled by the truth column's std (so columns are comparable). `imputed`
/// must have the same shape as the dataset the cells were hidden from.
StatusOr<double> ImputationRmse(const TabularDataset& imputed,
                                const std::vector<HeldOutCell>& cells);

}  // namespace gnn4tdl
