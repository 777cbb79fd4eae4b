#pragma once

#include <memory>
#include <string>
#include <vector>

#include "construct/intrinsic.h"
#include "gnn/bipartite_conv.h"
#include "models/model.h"
#include "train/trainer.h"

namespace gnn4tdl {

/// Options for GrapeModel.
struct GrapeOptions {
  size_t hidden_dim = 32;
  size_t num_layers = 2;
  /// Weight of the edge-value (imputation) loss next to the label loss.
  double impute_weight = 1.0;
  BipartiteOptions bipartite;
  TrainOptions train;
  uint64_t seed = 5;
};

/// GRAPE (You et al., NeurIPS'20): the bipartite instance-feature
/// formulation. Observed cells are edges; imputation is edge-value
/// regression; label prediction reads the instance-node embeddings. Both
/// heads train jointly, so imputation and prediction share representation —
/// the integration Section 5.4 highlights.
class GrapeModel : public TabularModel {
 public:
  explicit GrapeModel(GrapeOptions options = {});
  ~GrapeModel() override;

  Status Fit(const TabularDataset& data, const Split& split) override;
  StatusOr<Matrix> Predict(const TabularDataset& data) override;
  std::string Name() const override { return "grape(bipartite)"; }

  /// Predicted value for every (instance, feature-node) pair of the fitted
  /// bipartite graph, in the standardized edge-value space: n x m. Missing
  /// cells are read off this matrix (imputation).
  StatusOr<Matrix> ImputeAll() const;

  /// RMSE of predicted vs actual standardized values on the given held-out
  /// edges (e.g., cells hidden before Fit).
  StatusOr<double> ImputationRmse(
      const std::vector<Triplet>& held_out_edges) const;

 private:
  struct Net;

  /// Runs the conv stack; returns (instance, feature) embeddings.
  std::pair<Tensor, Tensor> Encode(bool training) const;
  Tensor EdgePredictions(const Tensor& h_left, const Tensor& h_right,
                         const std::vector<size_t>& lefts,
                         const std::vector<size_t>& rights) const;

  GrapeOptions options_;
  mutable Rng rng_;
  BipartiteGraph graph_;
  std::unique_ptr<Net> net_;
  bool fitted_ = false;
};

}  // namespace gnn4tdl
