#pragma once

#include <memory>
#include <string>
#include <vector>

#include "construct/intrinsic.h"
#include "data/transforms.h"
#include "gnn/rgcn.h"
#include "models/model.h"
#include "train/trainer.h"

namespace gnn4tdl {

/// Options for HeteroRgcnModel.
struct HeteroRgcnOptions {
  size_t hidden_dim = 32;
  size_t num_layers = 2;
  double dropout = 0.3;
  FeaturizerOptions featurizer;
  TrainOptions train;
  uint64_t seed = 12;
};

/// General heterogeneous formulation (GCT / GME / GraphFC family, Section
/// 4.1.2): instances plus one node per categorical feature value, one
/// relation per categorical column, RGCN message passing over the whole
/// typed graph. Value nodes get learnable embeddings; instance nodes carry
/// the featurized numeric columns. Classification reads the instance-node
/// embeddings.
///
/// Transductive: Predict() must receive the fitted dataset.
class HeteroRgcnModel : public TabularModel {
 public:
  explicit HeteroRgcnModel(HeteroRgcnOptions options = {});
  ~HeteroRgcnModel() override;

  Status Fit(const TabularDataset& data, const Split& split) override;
  StatusOr<Matrix> Predict(const TabularDataset& data) override;
  std::string Name() const override { return "hetero(rgcn)"; }

  const HeteroGraph& hetero_graph() const { return hetero_; }

 private:
  struct Net;

  Tensor Forward(bool training) const;

  HeteroRgcnOptions options_;
  mutable Rng rng_;
  Featurizer featurizer_;
  HeteroGraph hetero_;
  std::vector<SparseMatrix> relation_ops_;
  Matrix instance_features_;
  size_t num_instances_ = 0;
  std::unique_ptr<Net> net_;
  bool fitted_ = false;
};

}  // namespace gnn4tdl
