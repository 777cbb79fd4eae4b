#include "data/transforms.h"

#include <cmath>
#include <istream>
#include <ostream>

namespace gnn4tdl {

namespace {
constexpr char kFeaturizerMagic[] = "gnn4tdl-featurizer-v1";
}  // namespace

Status Featurizer::Fit(const TabularDataset& data,
                       const std::vector<size_t>& fit_rows) {
  num_source_cols_ = data.NumCols();
  if (num_source_cols_ == 0) {
    return Status::InvalidArgument("Featurizer::Fit on dataset with no columns");
  }
  numeric_stats_.assign(num_source_cols_, {});
  cardinalities_.assign(num_source_cols_, 0);
  has_missing_.assign(num_source_cols_, false);

  std::vector<size_t> rows = fit_rows;
  if (rows.empty()) {
    rows.resize(data.NumRows());
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  }

  for (size_t c = 0; c < num_source_cols_; ++c) {
    const Column& col = data.column(c);
    for (size_t r = 0; r < data.NumRows(); ++r)
      if (col.IsMissing(r)) has_missing_[c] = true;

    if (col.type == ColumnType::kNumerical) {
      double sum = 0.0, sum_sq = 0.0;
      size_t count = 0;
      for (size_t r : rows) {
        if (r >= data.NumRows()) {
          return Status::OutOfRange("fit row index out of range");
        }
        double v = col.numeric[r];
        if (std::isnan(v)) continue;
        sum += v;
        sum_sq += v * v;
        ++count;
      }
      NumericStats stats;
      if (count > 0) {
        stats.mean = sum / static_cast<double>(count);
        double var = sum_sq / static_cast<double>(count) - stats.mean * stats.mean;
        stats.stddev = var > 1e-12 ? std::sqrt(var) : 1.0;
      }
      numeric_stats_[c] = stats;
    } else {
      cardinalities_[c] = col.NumCategories();
    }
  }

  // Freeze the output schema.
  output_dim_ = 0;
  output_to_source_.clear();
  for (size_t c = 0; c < num_source_cols_; ++c) {
    const Column& col = data.column(c);
    size_t width = 1;
    if (col.type == ColumnType::kCategorical && options_.one_hot)
      width = std::max<size_t>(cardinalities_[c], 1);
    for (size_t k = 0; k < width; ++k) output_to_source_.push_back(c);
    output_dim_ += width;
  }
  if (options_.add_missing_indicators) {
    for (size_t c = 0; c < num_source_cols_; ++c) {
      if (has_missing_[c]) {
        output_to_source_.push_back(c);
        ++output_dim_;
      }
    }
  }
  fitted_ = true;
  return Status::OK();
}

StatusOr<Matrix> Featurizer::Transform(const TabularDataset& data) const {
  if (!fitted_) {
    return Status::FailedPrecondition("Featurizer::Transform before Fit");
  }
  if (data.NumCols() != num_source_cols_) {
    return Status::InvalidArgument("schema mismatch: fitted on " +
                                   std::to_string(num_source_cols_) +
                                   " columns, got " +
                                   std::to_string(data.NumCols()));
  }
  const size_t n = data.NumRows();
  Matrix x(n, output_dim_);

  size_t out_col = 0;
  for (size_t c = 0; c < num_source_cols_; ++c) {
    const Column& col = data.column(c);
    if (col.type == ColumnType::kNumerical) {
      const NumericStats& stats = numeric_stats_[c];
      for (size_t r = 0; r < n; ++r) {
        double v = col.numeric[r];
        if (std::isnan(v)) {
          x(r, out_col) = options_.missing_fill;
        } else if (options_.standardize) {
          x(r, out_col) = (v - stats.mean) / stats.stddev;
        } else {
          x(r, out_col) = v;
        }
      }
      ++out_col;
    } else if (options_.one_hot) {
      size_t width = std::max<size_t>(cardinalities_[c], 1);
      for (size_t r = 0; r < n; ++r) {
        int code = col.codes[r];
        if (code >= 0 && static_cast<size_t>(code) < width)
          x(r, out_col + static_cast<size_t>(code)) = 1.0;
        // Missing (-1) leaves the block all-zero.
      }
      out_col += width;
    } else {
      for (size_t r = 0; r < n; ++r)
        x(r, out_col) = col.codes[r] >= 0 ? static_cast<double>(col.codes[r])
                                          : options_.missing_fill;
      ++out_col;
    }
  }

  if (options_.add_missing_indicators) {
    for (size_t c = 0; c < num_source_cols_; ++c) {
      if (!has_missing_[c]) continue;
      const Column& col = data.column(c);
      for (size_t r = 0; r < n; ++r)
        x(r, out_col) = col.IsMissing(r) ? 1.0 : 0.0;
      ++out_col;
    }
  }
  GNN4TDL_CHECK_EQ(out_col, output_dim_);
  return x;
}

Status Featurizer::Save(std::ostream& out) const {
  if (!fitted_) {
    return Status::FailedPrecondition("Featurizer::Save before Fit");
  }
  if (!out) return Status::IoError("featurizer output stream is not writable");
  std::streamsize old_precision = out.precision(17);
  out << kFeaturizerMagic << '\n';
  out << options_.standardize << ' ' << options_.one_hot << ' '
      << options_.missing_fill << ' ' << options_.add_missing_indicators
      << '\n';
  out << num_source_cols_ << ' ' << output_dim_ << '\n';
  for (size_t c = 0; c < num_source_cols_; ++c) {
    out << numeric_stats_[c].mean << ' ' << numeric_stats_[c].stddev << ' '
        << cardinalities_[c] << ' ' << (has_missing_[c] ? 1 : 0) << '\n';
  }
  for (size_t j = 0; j < output_to_source_.size(); ++j) {
    out << output_to_source_[j] << (j + 1 < output_to_source_.size() ? ' ' : '\n');
  }
  out.precision(old_precision);
  if (!out) return Status::IoError("write failure on featurizer stream");
  return Status::OK();
}

StatusOr<Featurizer> Featurizer::Load(std::istream& in) {
  std::string magic;
  if (!(in >> magic) || magic != kFeaturizerMagic) {
    return Status::InvalidArgument("stream is not a gnn4tdl featurizer block");
  }
  FeaturizerOptions options;
  if (!(in >> options.standardize >> options.one_hot >> options.missing_fill >>
        options.add_missing_indicators)) {
    return Status::IoError("truncated featurizer block");
  }
  Featurizer f(options);
  if (!(in >> f.num_source_cols_ >> f.output_dim_)) {
    return Status::IoError("truncated featurizer block");
  }
  // Both counts are unchecked input: the vectors grow with what the stream
  // really holds instead of being resized to the counts, so an inflated
  // count ends as a truncated block rather than an allocation it sized.
  for (size_t c = 0; c < f.num_source_cols_; ++c) {
    NumericStats stats;
    size_t cardinality = 0;
    int missing = 0;
    if (!(in >> stats.mean >> stats.stddev >> cardinality >> missing)) {
      return Status::IoError("truncated featurizer block");
    }
    f.numeric_stats_.push_back(stats);
    f.cardinalities_.push_back(cardinality);
    f.has_missing_.push_back(missing != 0);
  }
  for (size_t j = 0; j < f.output_dim_; ++j) {
    size_t source = 0;
    if (!(in >> source)) return Status::IoError("truncated featurizer block");
    f.output_to_source_.push_back(source);
  }
  f.fitted_ = true;
  return f;
}

StatusOr<Matrix> Featurizer::FitTransform(const TabularDataset& data) {
  GNN4TDL_RETURN_IF_ERROR(Fit(data));
  return Transform(data);
}

std::vector<std::pair<double, double>> StandardizeColumns(
    Matrix& x, const std::vector<size_t>& fit_rows) {
  std::vector<size_t> rows = fit_rows;
  if (rows.empty()) {
    rows.resize(x.rows());
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  }
  std::vector<std::pair<double, double>> stats(x.cols());
  for (size_t c = 0; c < x.cols(); ++c) {
    double sum = 0.0, sum_sq = 0.0;
    for (size_t r : rows) {
      sum += x(r, c);
      sum_sq += x(r, c) * x(r, c);
    }
    double mean = sum / static_cast<double>(rows.size());
    double var = sum_sq / static_cast<double>(rows.size()) - mean * mean;
    double stddev = var > 1e-12 ? std::sqrt(var) : 1.0;
    stats[c] = {mean, stddev};
    for (size_t r = 0; r < x.rows(); ++r) x(r, c) = (x(r, c) - mean) / stddev;
  }
  return stats;
}

}  // namespace gnn4tdl
