#include "models/tabgnn.h"

#include "nn/ops.h"
#include "train/objective.h"

namespace gnn4tdl {

struct TabGnnModel::Net : public Module {
  Net(const TabGnnOptions& options, size_t in_dim, size_t num_relations,
      size_t out_dim, Rng& rng)
      : num_relations_(num_relations) {
    const size_t h = options.hidden_dim;
    for (size_t r = 0; r < num_relations; ++r) {
      std::vector<std::unique_ptr<SageLayer>> stack;
      size_t dim = in_dim;
      for (size_t l = 0; l < options.num_layers; ++l) {
        stack.push_back(std::make_unique<SageLayer>(dim, h, rng));
        RegisterSubmodule(stack.back().get());
        dim = h;
      }
      relation_stacks_.push_back(std::move(stack));
    }
    self_mlp_ = std::make_unique<Mlp>(std::vector<size_t>{in_dim, h, h}, rng,
                                      Activation::kRelu, options.dropout);
    RegisterSubmodule(self_mlp_.get());
    // Per-node channel attention: score = q^T tanh(W h_channel).
    attn_w_ = std::make_unique<Linear>(h, h, rng);
    RegisterSubmodule(attn_w_.get());
    attn_q_ = RegisterParameter(Matrix::GlorotUniform(h, 1, rng));
    head_ = std::make_unique<Linear>(h, out_dim, rng);
    RegisterSubmodule(head_.get());
  }

  size_t num_relations_;
  std::vector<std::vector<std::unique_ptr<SageLayer>>> relation_stacks_;
  std::unique_ptr<Mlp> self_mlp_;
  std::unique_ptr<Linear> attn_w_;
  Tensor attn_q_;
  std::unique_ptr<Linear> head_;
  // Filled on each forward pass for ChannelAttention().
  mutable Matrix last_attention_;
};

TabGnnModel::TabGnnModel(TabGnnOptions options)
    : options_(std::move(options)),
      rng_(options_.seed),
      featurizer_(options_.featurizer) {}

TabGnnModel::~TabGnnModel() = default;

Tensor TabGnnModel::Forward(bool training) const {
  const size_t n = x_cache_.rows();
  const size_t num_rel = relation_ops_.size();
  Tensor x = Tensor::Constant(x_cache_);

  // Channel embeddings: one per relation plus the self channel.
  std::vector<Tensor> channels;
  for (size_t r = 0; r < num_rel; ++r) {
    Tensor h = x;
    const auto& stack = net_->relation_stacks_[r];
    for (size_t l = 0; l < stack.size(); ++l) {
      h = stack[l]->Forward(h, relation_ops_[r]);
      h = ops::Relu(h);
      if (l + 1 < stack.size())
        h = ops::Dropout(h, options_.dropout, rng_, training);
    }
    channels.push_back(h);
  }
  channels.push_back(ops::Relu(net_->self_mlp_->Forward(x, rng_, training)));

  // Per-node attention over channels.
  Tensor scores;  // n x (num_rel + 1)
  for (size_t c = 0; c < channels.size(); ++c) {
    Tensor s = ops::MatMul(ops::Tanh(net_->attn_w_->Forward(channels[c])),
                           net_->attn_q_);
    scores = c == 0 ? s : ops::ConcatCols(scores, s);
  }
  Tensor alpha = ops::SoftmaxRows(scores);
  net_->last_attention_ = alpha.value();

  Tensor fused;
  for (size_t c = 0; c < channels.size(); ++c) {
    // Column c of alpha as an n x 1 selector.
    Matrix selector(channels.size(), 1);
    selector(c, 0) = 1.0;
    Tensor alpha_c = ops::MatMul(alpha, Tensor::Constant(selector));
    Tensor weighted = ops::MulColBroadcast(channels[c], alpha_c);
    fused = c == 0 ? weighted : ops::Add(fused, weighted);
  }
  (void)n;
  return net_->head_->Forward(fused);
}

Status TabGnnModel::Fit(const TabularDataset& data, const Split& split) {
  fitted_ = false;  // a failed (re)fit leaves no model behind
  StatusOr<SupervisedObjective> objective =
      SupervisedObjective::Make(data, split);
  if (!objective.ok()) return objective.status();
  multiplex_ = MultiplexFromCategoricals(data, {}, options_.max_group_size,
                                         options_.seed);
  if (multiplex_.num_layers() == 0) {
    return Status::InvalidArgument(
        "TabGNN requires at least one categorical column");
  }
  relation_ops_.clear();
  for (size_t r = 0; r < multiplex_.num_layers(); ++r)
    relation_ops_.push_back(multiplex_.layer(r).RowNormalized());

  GNN4TDL_RETURN_IF_ERROR(featurizer_.Fit(data, split.train));
  StatusOr<Matrix> x = featurizer_.Transform(data);
  if (!x.ok()) return x.status();
  x_cache_ = *x;

  net_ = std::make_unique<Net>(options_, x_cache_.cols(),
                               multiplex_.num_layers(),
                               objective->output_dim(), rng_);

  Trainer trainer(net_->Parameters(), options_.train);
  auto loss_fn = [&] { return objective->Loss(Forward(true)); };
  const auto val_fn =
      objective->Validation([this] { return Forward(false).value(); });
  GNN4TDL_RETURN_IF_ERROR(trainer.Fit(loss_fn, val_fn).tape_status);
  fitted_ = true;
  return Status::OK();
}

StatusOr<Matrix> TabGnnModel::Predict(const TabularDataset& data) {
  GNN4TDL_RETURN_IF_ERROR(
      CheckTransductivePredict(fitted_, x_cache_.rows(), data));
  return Forward(false).value();
}

StatusOr<std::vector<double>> TabGnnModel::ChannelAttention() const {
  if (!fitted_) return Status::FailedPrecondition("ChannelAttention before Fit");
  const Matrix& a = net_->last_attention_;
  std::vector<double> mean(a.cols(), 0.0);
  for (size_t r = 0; r < a.rows(); ++r)
    for (size_t c = 0; c < a.cols(); ++c) mean[c] += a(r, c);
  for (double& v : mean) v /= static_cast<double>(a.rows());
  return mean;
}

}  // namespace gnn4tdl
