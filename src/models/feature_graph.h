#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gnn/readout.h"
#include "models/model.h"
#include "nn/module.h"
#include "train/trainer.h"

namespace gnn4tdl {

/// How the d x d feature adjacency is obtained (Section 4.1.1, feature
/// graphs).
enum class FeatureAdjacency {
  kFullyConnected,  // uniform 1/d attention over all features (Fi-GNN)
  kLearned,         // learnable logits, row-softmax (T2G-Former / Table2Graph)
};

/// Options for FeatureGraphModel.
struct FeatureGraphOptions {
  FeatureAdjacency adjacency = FeatureAdjacency::kLearned;
  size_t embed_dim = 16;    // per-feature token width
  size_t num_layers = 2;    // propagation steps over the feature graph
  ReadoutType readout = ReadoutType::kMean;
  /// Append a factorization-machine pooling channel to the readout:
  /// 0.5 * ((sum_j h_j)^2 - sum_j h_j^2), the sum of pairwise token inner
  /// products. Captures multiplicative feature interactions (CTR lineage,
  /// survey ref [111]) that additive mixing alone represents poorly.
  bool fm_channel = false;
  size_t head_hidden = 32;
  double dropout = 0.1;
  TrainOptions train;
  uint64_t seed = 4;
};

/// Feature-graph model (Fi-GNN / T2G-Former family, Table 2): each column of
/// the table becomes a node; a per-instance feature graph is processed with
/// shared weights and read out into an instance embedding.
///
/// Tokenization: numeric column j contributes x_ij * E_j + b_j; categorical
/// column j looks up a per-value embedding (missing values get a dedicated
/// row). All n instances are processed at once via a (d, n*k) layout so that
/// feature mixing is a single d x d matmul — which also makes the learned
/// adjacency (row-softmax of free logits) trainable end-to-end.
///
/// Inductive: Predict() accepts any dataset with the fitted schema.
class FeatureGraphModel : public TabularModel {
 public:
  explicit FeatureGraphModel(FeatureGraphOptions options = {});
  ~FeatureGraphModel() override;

  Status Fit(const TabularDataset& data, const Split& split) override;
  StatusOr<Matrix> Predict(const TabularDataset& data) override;
  std::string Name() const override {
    return options_.adjacency == FeatureAdjacency::kLearned
               ? "feature_graph(learned)"
               : "feature_graph(full)";
  }

  /// The learned feature adjacency (after Fit; row-softmax applied).
  StatusOr<Matrix> FeatureAdjacencyMatrix() const;

 private:
  struct Net;

  Tensor Forward(const TabularDataset& data, bool training) const;

  FeatureGraphOptions options_;
  mutable Rng rng_;
  std::unique_ptr<Net> net_;
  // Frozen schema info from Fit.
  std::vector<double> numeric_mean_;
  std::vector<double> numeric_std_;
};

}  // namespace gnn4tdl
