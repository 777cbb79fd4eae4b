#include "models/bipartite_imputer.h"

#include <cmath>

#include "nn/fused.h"
#include "nn/ops.h"
#include "train/objective.h"

namespace gnn4tdl {

struct GrapeModel::Net : public Module {
  Net(const GrapeOptions& options, size_t num_features, size_t out_dim,
      Rng& rng) {
    const size_t h = options.hidden_dim;
    // GRAPE node init: instances get a constant scalar, features one-hot;
    // both are projected into the hidden space.
    left_proj_ = std::make_unique<Linear>(1, h, rng);
    right_proj_ = std::make_unique<Linear>(num_features, h, rng);
    RegisterSubmodule(left_proj_.get());
    RegisterSubmodule(right_proj_.get());
    for (size_t l = 0; l < options.num_layers; ++l) {
      convs_.push_back(std::make_unique<GrapeConv>(h, h, h, rng));
      RegisterSubmodule(convs_.back().get());
    }
    edge_head_ = std::make_unique<Mlp>(std::vector<size_t>{2 * h, h, 1}, rng);
    RegisterSubmodule(edge_head_.get());
    label_head_ =
        std::make_unique<Mlp>(std::vector<size_t>{h, h, out_dim}, rng);
    RegisterSubmodule(label_head_.get());
  }

  std::unique_ptr<Linear> left_proj_;
  std::unique_ptr<Linear> right_proj_;
  std::vector<std::unique_ptr<GrapeConv>> convs_;
  std::unique_ptr<Mlp> edge_head_;
  std::unique_ptr<Mlp> label_head_;
};

GrapeModel::GrapeModel(GrapeOptions options)
    : options_(std::move(options)), rng_(options_.seed) {}

GrapeModel::~GrapeModel() = default;

std::pair<Tensor, Tensor> GrapeModel::Encode(bool training) const {
  (void)training;
  Tensor h_left = ops::Relu(net_->left_proj_->Forward(
      Tensor::Constant(Matrix::Ones(graph_.num_left(), 1))));
  Tensor h_right = ops::Relu(net_->right_proj_->Forward(
      Tensor::Constant(Matrix::Identity(graph_.num_right()))));
  for (const auto& conv : net_->convs_) {
    auto [nl, nr] = conv->Forward(h_left, h_right, graph_);
    h_left = ops::Relu(nl);
    h_right = ops::Relu(nr);
  }
  return {h_left, h_right};
}

Tensor GrapeModel::EdgePredictions(const Tensor& h_left, const Tensor& h_right,
                                   const std::vector<size_t>& lefts,
                                   const std::vector<size_t>& rights) const {
  // Fused gather→concat: one tape node instead of two gathers plus a concat
  // (nn/fused.h), bit-exact with the unfused chain.
  Tensor pair = fused::GatherConcat(h_left, lefts, h_right, rights);
  return net_->edge_head_->Forward(pair);
}

Status GrapeModel::Fit(const TabularDataset& data, const Split& split) {
  fitted_ = false;  // a failed (re)fit leaves no model behind
  StatusOr<SupervisedObjective> objective =
      SupervisedObjective::Make(data, split);
  if (!objective.ok()) return objective.status();
  graph_ = BipartiteFromTable(data, options_.bipartite);
  if (graph_.num_edges() == 0) {
    return Status::InvalidArgument("bipartite graph has no observed cells");
  }

  net_ = std::make_unique<Net>(options_, graph_.num_right(),
                               objective->output_dim(), rng_);

  // Observed edge values as imputation targets.
  Matrix edge_targets(graph_.num_edges(), 1);
  for (size_t e = 0; e < graph_.num_edges(); ++e)
    edge_targets(e, 0) = graph_.edge_values()[e];

  Trainer trainer(net_->Parameters(), options_.train);
  auto loss_fn = [&]() -> Tensor {
    auto [h_left, h_right] = Encode(true);
    Tensor loss = objective->Loss(net_->label_head_->Forward(h_left));
    if (options_.impute_weight > 0.0) {
      Tensor pred = EdgePredictions(h_left, h_right, graph_.edge_left(),
                                    graph_.edge_right());
      loss = ops::Add(loss, ops::Scale(ops::MseLoss(pred, edge_targets),
                                       options_.impute_weight));
    }
    return loss;
  };

  const auto val_fn = objective->Validation([this] {
    auto [h_left, h_right] = Encode(false);
    (void)h_right;
    return net_->label_head_->Forward(h_left).value();
  });
  GNN4TDL_RETURN_IF_ERROR(trainer.Fit(loss_fn, val_fn).tape_status);
  fitted_ = true;
  return Status::OK();
}

StatusOr<Matrix> GrapeModel::Predict(const TabularDataset& data) {
  GNN4TDL_RETURN_IF_ERROR(
      CheckTransductivePredict(fitted_, graph_.num_left(), data));
  auto [h_left, h_right] = Encode(false);
  (void)h_right;
  return net_->label_head_->Forward(h_left).value();
}

StatusOr<Matrix> GrapeModel::ImputeAll() const {
  if (!fitted_) return Status::FailedPrecondition("ImputeAll before Fit");
  auto [h_left, h_right] = Encode(false);
  const size_t n = graph_.num_left();
  const size_t m = graph_.num_right();
  std::vector<size_t> lefts, rights;
  lefts.reserve(n * m);
  rights.reserve(n * m);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < m; ++j) {
      lefts.push_back(i);
      rights.push_back(j);
    }
  Tensor pred = EdgePredictions(h_left, h_right, lefts, rights);
  return pred.value().Reshape(n, m);
}

StatusOr<double> GrapeModel::ImputationRmse(
    const std::vector<Triplet>& held_out_edges) const {
  if (!fitted_) return Status::FailedPrecondition("ImputationRmse before Fit");
  if (held_out_edges.empty()) {
    return Status::InvalidArgument("no held-out edges");
  }
  auto [h_left, h_right] = Encode(false);
  std::vector<size_t> lefts, rights;
  for (const Triplet& t : held_out_edges) {
    if (t.row >= graph_.num_left() || t.col >= graph_.num_right()) {
      return Status::OutOfRange("held-out edge outside the bipartite graph");
    }
    lefts.push_back(t.row);
    rights.push_back(t.col);
  }
  Tensor pred = EdgePredictions(h_left, h_right, lefts, rights);
  double sum = 0.0;
  for (size_t e = 0; e < held_out_edges.size(); ++e) {
    double d = pred.value()(e, 0) - held_out_edges[e].value;
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(held_out_edges.size()));
}

}  // namespace gnn4tdl
