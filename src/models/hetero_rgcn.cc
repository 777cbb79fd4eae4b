#include "models/hetero_rgcn.h"

#include "nn/module.h"
#include "nn/ops.h"
#include "train/objective.h"

namespace gnn4tdl {

struct HeteroRgcnModel::Net : public Module {
  Net(const HeteroRgcnOptions& options, size_t instance_feat_dim,
      size_t num_value_nodes, size_t num_relations, size_t out_dim, Rng& rng) {
    const size_t h = options.hidden_dim;
    instance_proj_ = std::make_unique<Linear>(instance_feat_dim, h, rng);
    RegisterSubmodule(instance_proj_.get());
    value_embed_ =
        RegisterParameter(Matrix::Randn(num_value_nodes, h, rng, 0.1));
    for (size_t l = 0; l < options.num_layers; ++l) {
      layers_.push_back(std::make_unique<RgcnLayer>(h, h, num_relations, rng));
      RegisterSubmodule(layers_.back().get());
    }
    head_ = std::make_unique<Linear>(h, out_dim, rng);
    RegisterSubmodule(head_.get());
  }

  std::unique_ptr<Linear> instance_proj_;
  Tensor value_embed_;  // value-node embeddings (all non-instance nodes)
  std::vector<std::unique_ptr<RgcnLayer>> layers_;
  std::unique_ptr<Linear> head_;
};

HeteroRgcnModel::HeteroRgcnModel(HeteroRgcnOptions options)
    : options_(std::move(options)),
      rng_(options_.seed),
      featurizer_(options_.featurizer) {}

HeteroRgcnModel::~HeteroRgcnModel() = default;

Tensor HeteroRgcnModel::Forward(bool training) const {
  // Global node matrix: instances first (projected features), then all value
  // nodes (learned embeddings) — matching HeteroFromTable's id layout.
  Tensor inst = ops::Relu(
      net_->instance_proj_->Forward(Tensor::Constant(instance_features_)));
  Tensor h = ops::ConcatRows({inst, net_->value_embed_});
  for (size_t l = 0; l < net_->layers_.size(); ++l) {
    h = net_->layers_[l]->Forward(h, relation_ops_);
    h = ops::Relu(h);
    if (l + 1 < net_->layers_.size())
      h = ops::Dropout(h, options_.dropout, rng_, training);
  }
  // Read out the instance block.
  std::vector<size_t> instance_ids(num_instances_);
  for (size_t i = 0; i < num_instances_; ++i) instance_ids[i] = i;
  return net_->head_->Forward(ops::GatherRows(h, instance_ids));
}

Status HeteroRgcnModel::Fit(const TabularDataset& data, const Split& split) {
  fitted_ = false;  // a failed (re)fit leaves no model behind
  StatusOr<SupervisedObjective> objective =
      SupervisedObjective::Make(data, split);
  if (!objective.ok()) return objective.status();
  hetero_ = HeteroFromTable(data);
  if (hetero_.num_relations() == 0) {
    return Status::InvalidArgument(
        "hetero formulation requires categorical columns");
  }
  relation_ops_ = hetero_.RelationOperators();
  num_instances_ = data.NumRows();
  const size_t num_value_nodes = hetero_.num_nodes() - num_instances_;

  // Instance node features: numeric columns only (categorical information
  // flows through the value nodes — that is the point of the formulation).
  FeaturizerOptions feat_opts = options_.featurizer;
  feat_opts.one_hot = false;
  TabularDataset numeric_view(data.NumRows());
  for (size_t c : data.ColumnsOfType(ColumnType::kNumerical)) {
    const Column& col = data.column(c);
    GNN4TDL_RETURN_IF_ERROR(numeric_view.AddNumericColumn(col.name,
                                                          col.numeric));
  }
  if (numeric_view.NumCols() == 0) {
    // All-categorical table: constant instance feature.
    GNN4TDL_RETURN_IF_ERROR(numeric_view.AddNumericColumn(
        "bias", std::vector<double>(data.NumRows(), 1.0)));
  }
  featurizer_ = Featurizer(feat_opts);
  GNN4TDL_RETURN_IF_ERROR(featurizer_.Fit(numeric_view, split.train));
  StatusOr<Matrix> x = featurizer_.Transform(numeric_view);
  if (!x.ok()) return x.status();
  instance_features_ = *x;

  net_ = std::make_unique<Net>(options_, instance_features_.cols(),
                               num_value_nodes, hetero_.num_relations(),
                               objective->output_dim(), rng_);

  Trainer trainer(net_->Parameters(), options_.train);
  auto loss_fn = [&] { return objective->Loss(Forward(true)); };
  const auto val_fn =
      objective->Validation([this] { return Forward(false).value(); });
  GNN4TDL_RETURN_IF_ERROR(trainer.Fit(loss_fn, val_fn).tape_status);
  fitted_ = true;
  return Status::OK();
}

StatusOr<Matrix> HeteroRgcnModel::Predict(const TabularDataset& data) {
  GNN4TDL_RETURN_IF_ERROR(
      CheckTransductivePredict(fitted_, num_instances_, data));
  return Forward(false).value();
}

}  // namespace gnn4tdl
