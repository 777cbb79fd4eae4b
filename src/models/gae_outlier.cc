#include "models/gae_outlier.h"

#include "gnn/gcn.h"
#include "nn/ops.h"

namespace gnn4tdl {

struct GaeOutlierDetector::Net : public Module {
  Net(const GaeOutlierOptions& options, size_t in_dim, Rng& rng)
      : enc1_(std::make_unique<GcnLayer>(in_dim, options.hidden_dim, rng)),
        enc2_(std::make_unique<GcnLayer>(options.hidden_dim,
                                         options.bottleneck_dim, rng)),
        dec_(std::make_unique<Mlp>(
            std::vector<size_t>{options.bottleneck_dim, options.hidden_dim,
                                in_dim},
            rng, Activation::kRelu)) {
    RegisterSubmodule(enc1_.get());
    RegisterSubmodule(enc2_.get());
    RegisterSubmodule(dec_.get());
  }

  std::unique_ptr<GcnLayer> enc1_;
  std::unique_ptr<GcnLayer> enc2_;
  std::unique_ptr<Mlp> dec_;
};

GaeOutlierDetector::GaeOutlierDetector(GaeOutlierOptions options)
    : options_(std::move(options)),
      rng_(options_.seed),
      featurizer_(options_.featurizer) {}

GaeOutlierDetector::~GaeOutlierDetector() = default;

Tensor GaeOutlierDetector::ReconstructionErrors() const {
  Tensor x = Tensor::Constant(x_cache_);
  Tensor z = ops::Relu(net_->enc1_->Forward(x, norm_adj_));
  z = net_->enc2_->Forward(z, norm_adj_);
  Tensor decoded = net_->dec_->Forward(z);
  Tensor diff = ops::Sub(decoded, x);
  Tensor sq = ops::CwiseMul(diff, diff);
  // Row sums of the squared error (n x 1).
  Tensor ones = Tensor::Constant(Matrix::Ones(x_cache_.cols(), 1));
  return ops::MatMul(sq, ones);
}

Status GaeOutlierDetector::Fit(const TabularDataset& data, const Split& split) {
  (void)split;  // unsupervised
  fitted_ = false;  // a failed (re)fit leaves no model behind
  GNN4TDL_RETURN_IF_ERROR(featurizer_.Fit(data));
  StatusOr<Matrix> x = featurizer_.Transform(data);
  if (!x.ok()) return x.status();
  x_cache_ = *x;

  Graph graph = KnnGraph(x_cache_, options_.knn);
  norm_adj_ = graph.GcnNormalized();
  net_ = std::make_unique<Net>(options_, x_cache_.cols(), rng_);

  Trainer trainer(net_->Parameters(), options_.train);
  GNN4TDL_RETURN_IF_ERROR(
      trainer.Fit([&] { return ops::MeanAll(ReconstructionErrors()); })
          .tape_status);
  fitted_ = true;
  return Status::OK();
}

StatusOr<Matrix> GaeOutlierDetector::Predict(const TabularDataset& data) {
  GNN4TDL_RETURN_IF_ERROR(
      CheckTransductivePredict(fitted_, x_cache_.rows(), data));
  return ReconstructionErrors().value();
}

}  // namespace gnn4tdl
