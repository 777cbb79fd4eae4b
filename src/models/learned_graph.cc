#include "models/learned_graph.h"

#include "nn/ops.h"
#include "train/objective.h"

namespace gnn4tdl {

const char* GslStrategyName(GslStrategy s) {
  switch (s) {
    case GslStrategy::kMetric:
      return "metric";
    case GslStrategy::kNeural:
      return "neural";
    case GslStrategy::kDirect:
      return "direct";
  }
  return "unknown";
}

struct LearnedGraphGnn::Net : public Module {
  Net(const LearnedGraphOptions& options, size_t in_dim, size_t num_edges,
      size_t out_dim, Rng& rng) {
    switch (options.strategy) {
      case GslStrategy::kMetric:
        metric_ = std::make_unique<MetricGraphLearner>(in_dim, rng);
        RegisterSubmodule(metric_.get());
        break;
      case GslStrategy::kNeural:
        neural_ = std::make_unique<NeuralEdgeScorer>(in_dim,
                                                     options.hidden_dim, rng);
        RegisterSubmodule(neural_.get());
        break;
      case GslStrategy::kDirect:
        direct_ = std::make_unique<DirectAdjacency>(num_edges, rng);
        RegisterSubmodule(direct_.get());
        break;
    }
    const size_t h = options.hidden_dim;
    size_t dim = in_dim;
    for (size_t l = 0; l < options.num_layers; ++l) {
      self_.push_back(std::make_unique<Linear>(dim, h, rng));
      nbr_.push_back(std::make_unique<Linear>(dim, h, rng, /*bias=*/false));
      RegisterSubmodule(self_.back().get());
      RegisterSubmodule(nbr_.back().get());
      dim = h;
    }
    head_ = std::make_unique<Linear>(h, out_dim, rng);
    RegisterSubmodule(head_.get());
  }

  std::unique_ptr<MetricGraphLearner> metric_;
  std::unique_ptr<NeuralEdgeScorer> neural_;
  std::unique_ptr<DirectAdjacency> direct_;
  std::vector<std::unique_ptr<Linear>> self_;
  std::vector<std::unique_ptr<Linear>> nbr_;
  std::unique_ptr<Linear> head_;
  std::unique_ptr<FeatureReconstructionTask> recon_;
};

LearnedGraphGnn::LearnedGraphGnn(LearnedGraphOptions options)
    : options_(std::move(options)),
      rng_(options_.seed),
      featurizer_(options_.featurizer) {}

LearnedGraphGnn::~LearnedGraphGnn() = default;

Tensor LearnedGraphGnn::EdgeWeights(const Tensor& x) const {
  switch (options_.strategy) {
    case GslStrategy::kMetric:
      return net_->metric_->EdgeWeights(x, candidates_);
    case GslStrategy::kNeural:
      return net_->neural_->EdgeWeights(x, candidates_);
    case GslStrategy::kDirect:
      return net_->direct_->EdgeWeights();
  }
  GNN4TDL_CHECK_MSG(false, "unknown GSL strategy");
  return Tensor();
}

Tensor LearnedGraphGnn::Encode(const Tensor& x, const Tensor& weights,
                               bool training) const {
  const size_t n = x.rows();
  Tensor h = x;
  for (size_t l = 0; l < net_->self_.size(); ++l) {
    Tensor agg = WeightedAggregate(h, weights, candidates_, n);
    h = ops::Add(net_->self_[l]->Forward(h), net_->nbr_[l]->Forward(agg));
    h = ops::Relu(h);
    if (l + 1 < net_->self_.size())
      h = ops::Dropout(h, options_.dropout, rng_, training);
  }
  return h;
}

Status LearnedGraphGnn::Fit(const TabularDataset& data, const Split& split) {
  fitted_ = false;  // a failed (re)fit leaves no model behind
  StatusOr<SupervisedObjective> objective =
      SupervisedObjective::Make(data, split);
  if (!objective.ok()) return objective.status();
  GNN4TDL_RETURN_IF_ERROR(featurizer_.Fit(data, split.train));
  StatusOr<Matrix> x = featurizer_.Transform(data);
  if (!x.ok()) return x.status();
  x_cache_ = *x;
  candidates_ = KnnCandidates(x_cache_, options_.candidate_k);
  if (candidates_.src.empty()) {
    return Status::InvalidArgument("empty candidate edge set");
  }

  net_ = std::make_unique<Net>(options_, x_cache_.cols(),
                               candidates_.src.size(),
                               objective->output_dim(), rng_);
  if (options_.dae_weight > 0.0) {
    net_->recon_ = std::make_unique<FeatureReconstructionTask>(
        options_.hidden_dim, x_cache_.cols(), options_.hidden_dim, rng_);
  }

  Tensor x_t = Tensor::Constant(x_cache_);
  std::vector<Tensor> params = net_->Parameters();
  if (net_->recon_ != nullptr)
    for (const Tensor& p : net_->recon_->Parameters()) params.push_back(p);

  Trainer trainer(params, options_.train);
  auto loss_fn = [&]() -> Tensor {
    Tensor weights = EdgeWeights(x_t);
    Tensor emb = Encode(x_t, weights, true);
    Tensor loss = objective->Loss(net_->head_->Forward(emb));
    if (options_.smoothness_weight > 0.0) {
      // Dirichlet energy over the learned edges.
      Tensor diff = ops::Sub(ops::GatherRows(emb, candidates_.src),
                             ops::GatherRows(emb, candidates_.dst));
      Tensor energy = ops::MulColBroadcast(ops::CwiseMul(diff, diff), weights);
      loss = ops::Add(
          loss, ops::Scale(ops::MeanAll(energy), options_.smoothness_weight));
    }
    if (options_.sparsity_weight > 0.0) {
      loss = ops::Add(loss, ops::Scale(SparsityPenalty(weights),
                                       options_.sparsity_weight));
    }
    if (options_.connectivity_weight > 0.0) {
      loss = ops::Add(
          loss, ops::Scale(ConnectivityPenalty(weights, candidates_.dst,
                                               x_cache_.rows()),
                           options_.connectivity_weight));
    }
    if (options_.dae_weight > 0.0) {
      Matrix mask;
      constexpr double kDaeCorruptRate = 0.2;
      Matrix corrupted = MaskCorrupt(x_cache_, kDaeCorruptRate, rng_, &mask);
      Tensor emb_cor =
          Encode(Tensor::Constant(corrupted), weights, true);
      loss = ops::Add(loss,
                      ops::Scale(net_->recon_->Loss(emb_cor, x_cache_, &mask),
                                 options_.dae_weight));
    }
    return loss;
  };

  const auto val_fn = objective->Validation([&, this] {
    Tensor weights = EdgeWeights(x_t);
    return net_->head_->Forward(Encode(x_t, weights, false)).value();
  });
  GNN4TDL_RETURN_IF_ERROR(trainer.Fit(loss_fn, val_fn).tape_status);
  fitted_ = true;
  return Status::OK();
}

StatusOr<Matrix> LearnedGraphGnn::Predict(const TabularDataset& data) {
  GNN4TDL_RETURN_IF_ERROR(
      CheckTransductivePredict(fitted_, x_cache_.rows(), data));
  Tensor x_t = Tensor::Constant(x_cache_);
  Tensor weights = EdgeWeights(x_t);
  return net_->head_->Forward(Encode(x_t, weights, false)).value();
}

StatusOr<Matrix> LearnedGraphGnn::ExplainEdges(size_t node,
                                               int target_class) const {
  if (!fitted_) return Status::FailedPrecondition("ExplainEdges before Fit");
  if (node >= x_cache_.rows()) return Status::OutOfRange("node out of range");

  Tensor x_t = Tensor::Constant(x_cache_);
  // Freeze the learned weights into an independent differentiable leaf so the
  // saliency lands on the *edges*, not on the learner's parameters.
  Tensor w_leaf = Tensor::Leaf(EdgeWeights(x_t).value(), /*requires_grad=*/true);
  Tensor logits = net_->head_->Forward(Encode(x_t, w_leaf, false));

  int c = target_class;
  if (c < 0) c = static_cast<int>(logits.value().ArgMaxRow(node));
  if (c >= static_cast<int>(logits.cols())) {
    return Status::InvalidArgument("target class out of range");
  }
  Matrix selector(logits.cols(), 1);
  selector(static_cast<size_t>(c), 0) = 1.0;
  Tensor target = ops::MatMul(ops::GatherRows(logits, {node}),
                              Tensor::Constant(std::move(selector)));
  target.Backward();

  Matrix saliency = w_leaf.grad().empty()
                        ? Matrix(w_leaf.rows(), 1)
                        : w_leaf.grad().Map([](double v) {
                            return v < 0 ? -v : v;
                          });
  // Clear the gradients this pass accumulated on the model parameters.
  net_->ZeroGrad();
  if (net_->recon_ != nullptr) net_->recon_->ZeroGrad();
  return saliency;
}

StatusOr<Matrix> LearnedGraphGnn::LearnedEdgeWeights() const {
  if (!fitted_) {
    return Status::FailedPrecondition("LearnedEdgeWeights before Fit");
  }
  return EdgeWeights(Tensor::Constant(x_cache_)).value();
}

}  // namespace gnn4tdl
