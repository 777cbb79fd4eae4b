#include "models/mlp.h"

#include "data/metrics.h"
#include "nn/ops.h"

namespace gnn4tdl {

MlpModel::MlpModel(MlpModelOptions options)
    : options_(std::move(options)),
      rng_(options_.seed),
      featurizer_(options_.featurizer) {}

Status MlpModel::Fit(const TabularDataset& data, const Split& split) {
  task_ = data.task();
  if (task_ == TaskType::kNone) {
    return Status::FailedPrecondition("dataset has no labels");
  }
  GNN4TDL_RETURN_IF_ERROR(featurizer_.Fit(data, split.train));
  StatusOr<Matrix> x = featurizer_.Transform(data);
  if (!x.ok()) return x.status();

  const bool regression = task_ == TaskType::kRegression;
  const size_t out_dim =
      regression ? 1 : static_cast<size_t>(data.num_classes());

  std::vector<size_t> dims;
  dims.push_back(x->cols());
  for (size_t h : options_.hidden_dims) dims.push_back(h);
  dims.push_back(out_dim);
  net_ = std::make_unique<Mlp>(dims, rng_,
                               Activation::kRelu, options_.dropout);

  // Inductive training: only the labeled training rows enter the loss.
  Matrix x_train = x->GatherRows(split.train);
  Tensor x_train_t = Tensor::Constant(x_train);
  Matrix x_val = split.val.empty() ? Matrix() : x->GatherRows(split.val);

  std::vector<int> y_train_cls;
  Matrix y_train_reg;
  if (regression) {
    y_train_reg = Matrix(split.train.size(), 1);
    for (size_t i = 0; i < split.train.size(); ++i)
      y_train_reg(i, 0) = data.regression_labels()[split.train[i]];
  } else {
    for (size_t i : split.train) y_train_cls.push_back(data.class_labels()[i]);
  }

  Trainer trainer(net_->Parameters(), options_.train);
  auto loss_fn = [&]() -> Tensor {
    if (options_.batch_size > 0 &&
        options_.batch_size < split.train.size()) {
      // Mini-batch step: a fresh uniform sample of training rows.
      std::vector<size_t> batch = rng_.SampleWithoutReplacement(
          split.train.size(), options_.batch_size);
      Matrix x_batch(batch.size(), x_train.cols());
      for (size_t i = 0; i < batch.size(); ++i)
        std::copy(x_train.row_data(batch[i]),
                  x_train.row_data(batch[i]) + x_train.cols(),
                  x_batch.row_data(i));
      Tensor out = net_->Forward(Tensor::Constant(std::move(x_batch)), rng_,
                                 /*training=*/true);
      if (regression) {
        Matrix y_batch(batch.size(), 1);
        for (size_t i = 0; i < batch.size(); ++i)
          y_batch(i, 0) = y_train_reg(batch[i], 0);
        return ops::MseLoss(out, y_batch);
      }
      std::vector<int> y_batch(batch.size());
      for (size_t i = 0; i < batch.size(); ++i)
        y_batch[i] = y_train_cls[batch[i]];
      return ops::SoftmaxCrossEntropy(out, y_batch);
    }
    Tensor out = net_->Forward(x_train_t, rng_, /*training=*/true);
    if (regression) return ops::MseLoss(out, y_train_reg);
    return ops::SoftmaxCrossEntropy(out, y_train_cls);
  };

  std::function<double()> val_fn = nullptr;
  if (!split.val.empty()) {
    val_fn = [&]() -> double {
      Tensor out = net_->Forward(Tensor::Constant(x_val));
      if (regression) {
        std::vector<double> y_val;
        for (size_t i : split.val)
          y_val.push_back(data.regression_labels()[i]);
        return -Rmse(out.value(), y_val);
      }
      std::vector<int> y_val;
      for (size_t i : split.val) y_val.push_back(data.class_labels()[i]);
      return Accuracy(out.value(), y_val);
    };
  }
  Status trained = trainer.Fit(loss_fn, val_fn).tape_status;
  if (!trained.ok()) net_.reset();  // net_ doubles as the fitted flag
  return trained;
}

StatusOr<Matrix> MlpModel::Predict(const TabularDataset& data) {
  if (net_ == nullptr) return Status::FailedPrecondition("Predict before Fit");
  StatusOr<Matrix> x = featurizer_.Transform(data);
  if (!x.ok()) return x.status();
  return net_->Forward(Tensor::Constant(*x)).value();
}

std::unique_ptr<MlpModel> MakeLinearModel(TrainOptions train, uint64_t seed) {
  MlpModelOptions options;
  options.hidden_dims = {};
  options.dropout = 0.0;
  options.train = train;
  options.seed = seed;
  return std::make_unique<MlpModel>(options);
}

}  // namespace gnn4tdl
