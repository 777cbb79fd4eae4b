#pragma once

#include <memory>
#include <string>
#include <vector>

#include "construct/rule_based.h"
#include "data/transforms.h"
#include "gnn/sage.h"
#include "models/model.h"
#include "train/trainer.h"

namespace gnn4tdl {

/// Options for TabGnnModel.
struct TabGnnOptions {
  size_t hidden_dim = 32;
  size_t num_layers = 2;
  /// Clique-size cap per shared value group (bounds edge count).
  size_t max_group_size = 30;
  double dropout = 0.3;
  FeaturizerOptions featurizer;
  TrainOptions train;
  uint64_t seed = 6;
};

/// TabGNN (Guo et al., DLP-KDD'21): the multiplex formulation. One
/// same-feature-value graph per categorical column, a GNN per relation
/// layer, and per-node attention over relation embeddings — so the model
/// learns *which* relation matters for each instance (Table 6,
/// feature-relation modeling). A self channel carries the instance's own
/// features, making the model degrade gracefully to an MLP when no relation
/// helps.
///
/// Transductive: Predict() must receive the fitted dataset.
class TabGnnModel : public TabularModel {
 public:
  explicit TabGnnModel(TabGnnOptions options = {});
  ~TabGnnModel() override;

  Status Fit(const TabularDataset& data, const Split& split) override;
  StatusOr<Matrix> Predict(const TabularDataset& data) override;
  std::string Name() const override { return "tabgnn(multiplex)"; }

  /// Mean attention weight per channel (relations..., self), after Fit —
  /// the interpretability readout TabGNN advertises.
  StatusOr<std::vector<double>> ChannelAttention() const;

 private:
  struct Net;

  Tensor Forward(bool training) const;

  TabGnnOptions options_;
  mutable Rng rng_;
  Featurizer featurizer_;
  MultiplexGraph multiplex_;
  std::vector<SparseMatrix> relation_ops_;
  Matrix x_cache_;
  std::unique_ptr<Net> net_;
  bool fitted_ = false;
};

}  // namespace gnn4tdl
