#include "data/impute.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/rng.h"
#include "tensor/linalg.h"

namespace gnn4tdl {

namespace {

struct ColumnStats {
  double mean = 0.0;
  double median = 0.0;
  int mode = 0;
  bool has_observed = false;
};

ColumnStats ComputeStats(const Column& col) {
  ColumnStats stats;
  if (col.type == ColumnType::kNumerical) {
    std::vector<double> observed;
    for (double v : col.numeric)
      if (!std::isnan(v)) observed.push_back(v);
    if (observed.empty()) return stats;
    stats.has_observed = true;
    double sum = 0.0;
    for (double v : observed) sum += v;
    stats.mean = sum / static_cast<double>(observed.size());
    std::sort(observed.begin(), observed.end());
    stats.median = observed[observed.size() / 2];
  } else {
    std::map<int, size_t> counts;
    for (int code : col.codes)
      if (code >= 0) ++counts[code];
    if (counts.empty()) return stats;
    stats.has_observed = true;
    size_t best = 0;
    for (const auto& [code, count] : counts) {
      if (count > best) {
        best = count;
        stats.mode = code;
      }
    }
  }
  return stats;
}

}  // namespace

CoObservedDistance::CoObservedDistance(const TabularDataset& data)
    : data_(data), stddev_(data.NumCols(), 1.0) {
  for (size_t c = 0; c < data.NumCols(); ++c) {
    const Column& col = data.column(c);
    if (col.type != ColumnType::kNumerical) continue;
    double sum = 0.0, sum_sq = 0.0;
    size_t count = 0;
    for (double v : col.numeric) {
      if (std::isnan(v)) continue;
      sum += v;
      sum_sq += v * v;
      ++count;
    }
    if (count > 0) {
      double mean = sum / static_cast<double>(count);
      double var = sum_sq / static_cast<double>(count) - mean * mean;
      stddev_[c] = var > 1e-12 ? std::sqrt(var) : 1.0;
    }
  }
}

double CoObservedDistance::Distance(size_t a, size_t b) const {
  double sum = 0.0;
  size_t overlap = 0;
  for (size_t c = 0; c < data_.NumCols(); ++c) {
    const Column& col = data_.column(c);
    if (col.IsMissing(a) || col.IsMissing(b)) continue;
    ++overlap;
    if (col.type == ColumnType::kNumerical) {
      double diff = (col.numeric[a] - col.numeric[b]) / stddev_[c];
      sum += diff * diff;
    } else {
      sum += col.codes[a] == col.codes[b] ? 0.0 : 1.0;
    }
  }
  if (overlap == 0) return 1e300;
  return sum / static_cast<double>(overlap);
}

std::vector<size_t> CoObservedDistance::Nearest(size_t row, size_t k) const {
  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(data_.NumRows());
  for (size_t j = 0; j < data_.NumRows(); ++j) {
    if (j != row) scored.push_back({Distance(row, j), j});
  }
  const size_t take = std::min(k, scored.size());
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<ptrdiff_t>(take),
                    scored.end());
  std::vector<size_t> nearest(take);
  for (size_t t = 0; t < take; ++t) nearest[t] = scored[t].second;
  return nearest;
}

Status SimpleImpute(TabularDataset& data, SimpleImputeStrategy strategy) {
  for (size_t c = 0; c < data.NumCols(); ++c) {
    Column& col = data.mutable_column(c);
    ColumnStats stats = ComputeStats(col);
    if (!stats.has_observed) {
      return Status::FailedPrecondition("column '" + col.name +
                                        "' has no observed values");
    }
    if (col.type == ColumnType::kNumerical) {
      double fill = strategy == SimpleImputeStrategy::kMean ? stats.mean
                                                            : stats.median;
      for (double& v : col.numeric)
        if (std::isnan(v)) v = fill;
    } else {
      for (int& code : col.codes)
        if (code < 0) code = stats.mode;
    }
  }
  return Status::OK();
}

Status KnnImpute(TabularDataset& data, const KnnImputeOptions& options) {
  const size_t n = data.NumRows();
  const size_t d = data.NumCols();
  if (options.k == 0) return Status::InvalidArgument("k must be positive");

  std::vector<ColumnStats> stats(d);
  for (size_t c = 0; c < d; ++c) {
    stats[c] = ComputeStats(data.column(c));
    if (!stats[c].has_observed) {
      return Status::FailedPrecondition("column '" + data.column(c).name +
                                        "' has no observed values");
    }
  }

  const CoObservedDistance distance(data);

  // Collect fills first, apply after (so imputation order has no effect).
  struct NumericFill {
    size_t row, col;
    double value;
  };
  struct CategoricalFill {
    size_t row, col;
    int code;
  };
  std::vector<NumericFill> numeric_fills;
  std::vector<CategoricalFill> categorical_fills;

  for (size_t r = 0; r < n; ++r) {
    bool incomplete = false;
    for (size_t c = 0; c < d; ++c)
      if (data.column(c).IsMissing(r)) incomplete = true;
    if (!incomplete) continue;

    const std::vector<size_t> nearest = distance.Nearest(r, options.k);

    for (size_t c = 0; c < d; ++c) {
      const Column& col = data.column(c);
      if (!col.IsMissing(r)) continue;
      if (col.type == ColumnType::kNumerical) {
        double sum = 0.0;
        size_t count = 0;
        for (size_t j : nearest) {
          if (!col.IsMissing(j)) {
            sum += col.numeric[j];
            ++count;
          }
        }
        numeric_fills.push_back(
            {r, c, count > 0 ? sum / static_cast<double>(count)
                             : stats[c].mean});
      } else {
        std::map<int, size_t> votes;
        for (size_t j : nearest) {
          if (!col.IsMissing(j)) ++votes[col.codes[j]];
        }
        int winner = stats[c].mode;
        size_t best = 0;
        for (const auto& [code, count] : votes) {
          if (count > best) {
            best = count;
            winner = code;
          }
        }
        categorical_fills.push_back({r, c, winner});
      }
    }
  }
  for (const NumericFill& f : numeric_fills)
    data.mutable_column(f.col).numeric[f.row] = f.value;
  for (const CategoricalFill& f : categorical_fills)
    data.mutable_column(f.col).codes[f.row] = f.code;
  return Status::OK();
}

Status IterativeImpute(TabularDataset& data,
                       const IterativeImputeOptions& options) {
  const size_t n = data.NumRows();
  std::vector<size_t> numeric_cols = data.ColumnsOfType(ColumnType::kNumerical);
  if (numeric_cols.size() < 2) {
    return SimpleImpute(data);  // nothing to regress against
  }

  // Remember which cells were originally missing; mode/mean-initialize all.
  std::vector<std::vector<bool>> missing(numeric_cols.size(),
                                         std::vector<bool>(n, false));
  for (size_t idx = 0; idx < numeric_cols.size(); ++idx) {
    const Column& col = data.column(numeric_cols[idx]);
    for (size_t r = 0; r < n; ++r) missing[idx][r] = col.IsMissing(r);
  }
  GNN4TDL_RETURN_IF_ERROR(SimpleImpute(data));

  const size_t d = numeric_cols.size();
  for (size_t iter = 0; iter < options.max_iters; ++iter) {
    double max_change = 0.0;
    for (size_t idx = 0; idx < d; ++idx) {
      Column& target = data.mutable_column(numeric_cols[idx]);
      // Predictors: all other numeric columns plus an intercept.
      std::vector<size_t> train_rows, fill_rows;
      for (size_t r = 0; r < n; ++r)
        (missing[idx][r] ? fill_rows : train_rows).push_back(r);
      if (fill_rows.empty() || train_rows.size() < d + 1) continue;

      auto build_x = [&](const std::vector<size_t>& rows) {
        Matrix x(rows.size(), d);  // d-1 predictors + intercept
        for (size_t i = 0; i < rows.size(); ++i) {
          size_t out_col = 0;
          for (size_t other = 0; other < d; ++other) {
            if (other == idx) continue;
            x(i, out_col++) = data.column(numeric_cols[other]).numeric[rows[i]];
          }
          x(i, d - 1) = 1.0;  // intercept
        }
        return x;
      };
      Matrix x_train = build_x(train_rows);
      Matrix y_train(train_rows.size(), 1);
      for (size_t i = 0; i < train_rows.size(); ++i)
        y_train(i, 0) = target.numeric[train_rows[i]];

      StatusOr<Matrix> w = SolveRidge(x_train, y_train, options.ridge_lambda);
      if (!w.ok()) continue;  // skip degenerate columns this round

      Matrix x_fill = build_x(fill_rows);
      Matrix pred = x_fill.Matmul(*w);
      for (size_t i = 0; i < fill_rows.size(); ++i) {
        double& cell = target.numeric[fill_rows[i]];
        max_change = std::max(max_change, std::fabs(cell - pred(i, 0)));
        cell = pred(i, 0);
      }
    }
    if (max_change < options.tolerance) break;
  }
  return Status::OK();
}

std::vector<HeldOutCell> HideNumericCells(TabularDataset& data, double rate,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<HeldOutCell> cells;
  for (size_t c : data.ColumnsOfType(ColumnType::kNumerical)) {
    Column& col = data.mutable_column(c);
    for (size_t r = 0; r < data.NumRows(); ++r) {
      if (std::isnan(col.numeric[r])) continue;
      if (rng.Bernoulli(rate)) {
        cells.push_back({r, c, col.numeric[r]});
        col.numeric[r] = std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  return cells;
}

StatusOr<double> ImputationRmse(const TabularDataset& imputed,
                                const std::vector<HeldOutCell>& cells) {
  if (cells.empty()) return Status::InvalidArgument("no held-out cells");

  // Per-column truth std for scale-free aggregation.
  std::map<size_t, std::pair<double, double>> col_moments;  // sum, sum_sq
  std::map<size_t, size_t> col_counts;
  for (const HeldOutCell& cell : cells) {
    col_moments[cell.col].first += cell.truth;
    col_moments[cell.col].second += cell.truth * cell.truth;
    col_counts[cell.col]++;
  }
  std::map<size_t, double> col_std;
  for (const auto& [c, m] : col_moments) {
    double count = static_cast<double>(col_counts[c]);
    double mean = m.first / count;
    double var = m.second / count - mean * mean;
    col_std[c] = var > 1e-12 ? std::sqrt(var) : 1.0;
  }

  double sum = 0.0;
  for (const HeldOutCell& cell : cells) {
    if (cell.col >= imputed.NumCols() || cell.row >= imputed.NumRows()) {
      return Status::OutOfRange("held-out cell outside the dataset");
    }
    const Column& col = imputed.column(cell.col);
    if (col.type != ColumnType::kNumerical) {
      return Status::InvalidArgument("held-out cell in non-numeric column");
    }
    double v = col.numeric[cell.row];
    if (std::isnan(v)) {
      return Status::FailedPrecondition("cell still missing after imputation");
    }
    double err = (v - cell.truth) / col_std[cell.col];
    sum += err * err;
  }
  return std::sqrt(sum / static_cast<double>(cells.size()));
}

}  // namespace gnn4tdl
