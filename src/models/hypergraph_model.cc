#include "models/hypergraph_model.h"

#include "nn/module.h"
#include "nn/ops.h"
#include "train/objective.h"

namespace gnn4tdl {

struct HypergraphModel::Net : public Module {
  Net(const HypergraphModelOptions& options, size_t num_value_nodes,
      size_t out_dim, Rng& rng) {
    // Learnable embedding per feature-value node (the "one-hot initial
    // feature" of HCL passed through a first projection, fused here).
    node_embed_ =
        RegisterParameter(Matrix::Randn(num_value_nodes, options.embed_dim,
                                        rng, 0.1));
    for (size_t l = 0; l < options.num_layers; ++l) {
      convs_.push_back(std::make_unique<HypergraphConvLayer>(
          options.embed_dim, options.embed_dim, rng));
      RegisterSubmodule(convs_.back().get());
    }
    head_ = std::make_unique<Mlp>(
        std::vector<size_t>{options.embed_dim, options.embed_dim, out_dim},
        rng, Activation::kRelu, options.dropout);
    RegisterSubmodule(head_.get());
  }

  Tensor node_embed_;
  std::vector<std::unique_ptr<HypergraphConvLayer>> convs_;
  std::unique_ptr<Mlp> head_;
};

HypergraphModel::HypergraphModel(HypergraphModelOptions options)
    : options_(std::move(options)), rng_(options_.seed) {}

HypergraphModel::~HypergraphModel() = default;

Tensor HypergraphModel::Forward(bool training) const {
  Tensor h = net_->node_embed_;
  for (size_t l = 0; l < net_->convs_.size(); ++l) {
    if (l + 1 < net_->convs_.size()) {
      h = ops::Relu(net_->convs_[l]->Forward(h, operators_));
      h = ops::Dropout(h, options_.dropout, rng_, training);
    } else {
      // Final layer reads out hyperedge (= instance) embeddings.
      h = ops::Relu(net_->convs_[l]->EdgeEmbeddings(h, operators_));
    }
  }
  return net_->head_->Forward(h, rng_, training);
}

Status HypergraphModel::Fit(const TabularDataset& data, const Split& split) {
  fitted_ = false;  // a failed (re)fit leaves no model behind
  StatusOr<SupervisedObjective> objective =
      SupervisedObjective::Make(data, split);
  if (!objective.ok()) return objective.status();
  if (data.NumCols() == 0) {
    return Status::InvalidArgument("dataset has no feature columns");
  }
  hypergraph_ = HypergraphFromTable(
      data, HypergraphOptions{.numeric_bins = options_.numeric_bins});
  operators_ = HypergraphConvLayer::BuildOperators(hypergraph_);

  net_ = std::make_unique<Net>(options_, hypergraph_.num_nodes(),
                               objective->output_dim(), rng_);

  Trainer trainer(net_->Parameters(), options_.train);
  auto loss_fn = [&] { return objective->Loss(Forward(true)); };
  const auto val_fn =
      objective->Validation([this] { return Forward(false).value(); });
  GNN4TDL_RETURN_IF_ERROR(trainer.Fit(loss_fn, val_fn).tape_status);
  fitted_ = true;
  return Status::OK();
}

StatusOr<Matrix> HypergraphModel::Predict(const TabularDataset& data) {
  GNN4TDL_RETURN_IF_ERROR(CheckTransductivePredict(
      fitted_, hypergraph_.num_hyperedges(), data));
  return Forward(false).value();
}

}  // namespace gnn4tdl
