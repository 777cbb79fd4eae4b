#include "models/feature_graph.h"

#include <cmath>

#include "nn/ops.h"
#include "train/objective.h"

namespace gnn4tdl {

/// Parameters: per-column tokenizers, the feature adjacency, shared
/// propagation weights, and the prediction head.
struct FeatureGraphModel::Net : public Module {
  Net(const TabularDataset& data, const FeatureGraphOptions& options,
      size_t out_dim, Rng& rng)
      : options_(options), num_cols_(data.NumCols()) {
    const size_t k = options.embed_dim;
    for (size_t c = 0; c < num_cols_; ++c) {
      const Column& col = data.column(c);
      if (col.type == ColumnType::kNumerical) {
        numeric_embed_.push_back(
            RegisterParameter(Matrix::GlorotUniform(1, k, rng)));
        numeric_bias_.push_back(RegisterParameter(Matrix::Zeros(1, k)));
        cat_table_.push_back(Tensor());
      } else {
        // One row per category plus a trailing "missing" row.
        cat_table_.push_back(RegisterParameter(
            Matrix::Randn(col.NumCategories() + 1, k, rng, 0.1)));
        numeric_embed_.push_back(Tensor());
        numeric_bias_.push_back(Tensor());
      }
    }
    if (options.adjacency == FeatureAdjacency::kLearned) {
      adj_logits_ = RegisterParameter(Matrix::Zeros(num_cols_, num_cols_));
    }
    prop_ = std::make_unique<Linear>(k, k, rng);
    RegisterSubmodule(prop_.get());
    const size_t head_in = options.fm_channel ? 2 * k : k;
    head_ = std::make_unique<Mlp>(
        std::vector<size_t>{head_in, options.head_hidden, out_dim}, rng,
        Activation::kRelu, options.dropout);
    RegisterSubmodule(head_.get());
  }

  FeatureGraphOptions options_;
  size_t num_cols_;
  std::vector<Tensor> numeric_embed_;  // 1 x k per numeric column
  std::vector<Tensor> numeric_bias_;   // 1 x k per numeric column
  std::vector<Tensor> cat_table_;      // (K_c + 1) x k per categorical column
  Tensor adj_logits_;                  // d x d (learned adjacency only)
  std::unique_ptr<Linear> prop_;
  std::unique_ptr<Mlp> head_;
};

FeatureGraphModel::FeatureGraphModel(FeatureGraphOptions options)
    : options_(std::move(options)), rng_(options_.seed) {}

FeatureGraphModel::~FeatureGraphModel() = default;

Tensor FeatureGraphModel::Forward(const TabularDataset& data,
                                  bool training) const {
  const size_t n = data.NumRows();
  const size_t d = net_->num_cols_;
  const size_t k = options_.embed_dim;

  // Token block per column, each reshaped to one row of the (d, n*k) layout.
  std::vector<Tensor> per_column_rows;
  std::vector<Tensor> raw_tokens;  // n x k per column (for the FM channel)
  per_column_rows.reserve(d);
  for (size_t c = 0; c < d; ++c) {
    const Column& col = data.column(c);
    Tensor tokens;  // n x k
    if (col.type == ColumnType::kNumerical) {
      Matrix values(n, 1);
      for (size_t r = 0; r < n; ++r) {
        double v = col.numeric[r];
        values(r, 0) = std::isnan(v)
                           ? 0.0
                           : (v - numeric_mean_[c]) / numeric_std_[c];
      }
      tokens = ops::AddRowBroadcast(
          ops::MatMul(Tensor::Constant(std::move(values)),
                      net_->numeric_embed_[c]),
          net_->numeric_bias_[c]);
    } else {
      const size_t missing_row = col.NumCategories();
      std::vector<size_t> idx(n);
      for (size_t r = 0; r < n; ++r)
        idx[r] = col.codes[r] >= 0 ? static_cast<size_t>(col.codes[r])
                                   : missing_row;
      tokens = ops::GatherRows(net_->cat_table_[c], idx);
    }
    if (options_.fm_channel) raw_tokens.push_back(tokens);
    per_column_rows.push_back(ops::Reshape(tokens, 1, n * k));
  }
  Tensor h = ops::ConcatRows(per_column_rows);  // d x (n*k)

  // Feature adjacency: row-stochastic mixing matrix.
  Tensor adj;
  if (options_.adjacency == FeatureAdjacency::kLearned) {
    adj = ops::SoftmaxRows(net_->adj_logits_);
  } else {
    adj = Tensor::Constant(
        Matrix::Full(d, d, 1.0 / static_cast<double>(d)));
  }

  for (size_t layer = 0; layer < options_.num_layers; ++layer) {
    Tensor mixed = ops::MatMul(adj, h);                  // d x (n*k)
    Tensor per_node = ops::Reshape(mixed, d * n, k);     // node-major
    per_node = ops::Relu(net_->prop_->Forward(per_node));
    per_node = ops::Dropout(per_node, options_.dropout, rng_, training);
    h = ops::Reshape(per_node, d, n * k);
  }

  // Readout over the d feature nodes of each instance. In the (d, n*k)
  // layout a mean over rows pools the features of every instance at once.
  Tensor pooled;
  if (options_.readout == ReadoutType::kMean ||
      options_.readout == ReadoutType::kSum) {
    double scale = options_.readout == ReadoutType::kMean
                       ? 1.0 / static_cast<double>(d)
                       : 1.0;
    Tensor ones = Tensor::Constant(Matrix::Full(1, d, scale));
    pooled = ops::Reshape(ops::MatMul(ones, h), n, k);
  } else {
    // Max readout needs the node-major layout with per-instance segments.
    // Rows of (d*n, k) are ordered feature-major: row c*n + i.
    Tensor per_node = ops::Reshape(h, d * n, k);
    std::vector<size_t> seg(d * n);
    for (size_t c = 0; c < d; ++c)
      for (size_t i = 0; i < n; ++i) seg[c * n + i] = i;
    pooled = SegmentReadout(per_node, seg, n, ReadoutType::kMax);
  }
  if (options_.fm_channel) {
    // FM pairwise pooling over the *input* tokens: 0.5 ((Σh)² - Σh²).
    Tensor sum = raw_tokens[0];
    Tensor sum_sq = ops::CwiseMul(raw_tokens[0], raw_tokens[0]);
    for (size_t c = 1; c < raw_tokens.size(); ++c) {
      sum = ops::Add(sum, raw_tokens[c]);
      sum_sq = ops::Add(sum_sq, ops::CwiseMul(raw_tokens[c], raw_tokens[c]));
    }
    Tensor fm = ops::Scale(ops::Sub(ops::CwiseMul(sum, sum), sum_sq), 0.5);
    pooled = ops::ConcatCols(pooled, fm);
  }
  return net_->head_->Forward(pooled, rng_, training);
}

Status FeatureGraphModel::Fit(const TabularDataset& data, const Split& split) {
  StatusOr<SupervisedObjective> objective =
      SupervisedObjective::Make(data, split);
  if (!objective.ok()) return objective.status();
  if (data.NumCols() == 0) {
    return Status::InvalidArgument("dataset has no feature columns");
  }

  // Numeric standardization statistics from the training rows.
  numeric_mean_.assign(data.NumCols(), 0.0);
  numeric_std_.assign(data.NumCols(), 1.0);
  for (size_t c = 0; c < data.NumCols(); ++c) {
    const Column& col = data.column(c);
    if (col.type != ColumnType::kNumerical) continue;
    double sum = 0.0, sum_sq = 0.0;
    size_t count = 0;
    for (size_t i : split.train) {
      double v = col.numeric[i];
      if (std::isnan(v)) continue;
      sum += v;
      sum_sq += v * v;
      ++count;
    }
    if (count > 0) {
      numeric_mean_[c] = sum / static_cast<double>(count);
      double var =
          sum_sq / static_cast<double>(count) - numeric_mean_[c] * numeric_mean_[c];
      numeric_std_[c] = var > 1e-12 ? std::sqrt(var) : 1.0;
    }
  }

  net_ = std::make_unique<Net>(data, options_, objective->output_dim(), rng_);

  Trainer trainer(net_->Parameters(), options_.train);
  auto loss_fn = [&] { return objective->Loss(Forward(data, true)); };
  const auto val_fn = objective->Validation(
      [&, this] { return Forward(data, false).value(); });
  Status trained = trainer.Fit(loss_fn, val_fn).tape_status;
  if (!trained.ok()) net_.reset();  // net_ doubles as the fitted flag
  return trained;
}

StatusOr<Matrix> FeatureGraphModel::Predict(const TabularDataset& data) {
  if (net_ == nullptr) return Status::FailedPrecondition("Predict before Fit");
  if (data.NumCols() != net_->num_cols_) {
    return Status::InvalidArgument("schema mismatch with fitted dataset");
  }
  return Forward(data, false).value();
}

StatusOr<Matrix> FeatureGraphModel::FeatureAdjacencyMatrix() const {
  if (net_ == nullptr) {
    return Status::FailedPrecondition("FeatureAdjacencyMatrix before Fit");
  }
  if (options_.adjacency != FeatureAdjacency::kLearned) {
    return Matrix::Full(net_->num_cols_, net_->num_cols_,
                        1.0 / static_cast<double>(net_->num_cols_));
  }
  return ops::SoftmaxRows(net_->adj_logits_).value();
}

}  // namespace gnn4tdl
