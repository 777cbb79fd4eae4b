#pragma once

#include <memory>
#include <string>
#include <vector>

#include "construct/learned.h"
#include "data/transforms.h"
#include "models/model.h"
#include "train/aux_tasks.h"
#include "train/trainer.h"

namespace gnn4tdl {

/// Which graph-structure learner scores the candidate edges (Table 4).
enum class GslStrategy { kMetric, kNeural, kDirect };

const char* GslStrategyName(GslStrategy s);

/// Options for LearnedGraphGnn.
struct LearnedGraphOptions {
  GslStrategy strategy = GslStrategy::kMetric;
  /// Candidate edges = kNN superset of this size (IDGL/SLAPS init from kNN).
  size_t candidate_k = 15;
  size_t hidden_dim = 32;
  size_t num_layers = 2;
  double dropout = 0.4;

  // Regularizers on the learned structure (Table 7).
  double smoothness_weight = 0.0;
  double sparsity_weight = 0.0;
  double connectivity_weight = 0.0;
  /// SLAPS-style denoising-autoencoder auxiliary weight.
  double dae_weight = 0.0;

  FeaturizerOptions featurizer;
  TrainOptions train;
  uint64_t seed = 9;
};

/// Graph-structure-learning model (IDGL / SLAPS / LDS family, Section 4.2.3):
/// candidate kNN edges are re-weighted by a differentiable learner (metric,
/// neural, or direct), messages aggregate with the learned weights, and the
/// structure trains end-to-end with the task loss (plus optional structure
/// regularizers and a DAE auxiliary).
///
/// Transductive: Predict() must receive the fitted dataset.
class LearnedGraphGnn : public TabularModel {
 public:
  explicit LearnedGraphGnn(LearnedGraphOptions options = {});
  ~LearnedGraphGnn() override;

  Status Fit(const TabularDataset& data, const Split& split) override;
  StatusOr<Matrix> Predict(const TabularDataset& data) override;
  std::string Name() const override {
    return std::string("gsl(") + GslStrategyName(options_.strategy) + ")";
  }

  /// Learned weight of each candidate edge (after Fit), aligned with
  /// candidate_edges().
  StatusOr<Matrix> LearnedEdgeWeights() const;

  /// Gradient-based edge attribution (GNNExplainer-style saliency, Table 7
  /// "explanation preservation"): |d logit(node, class) / d w_e| for every
  /// candidate edge, holding the learned weights as an independent input.
  /// `target_class` = -1 explains the predicted class. E x 1, aligned with
  /// candidate_edges().
  StatusOr<Matrix> ExplainEdges(size_t node, int target_class = -1) const;
  const CandidateEdges& candidate_edges() const { return candidates_; }

 private:
  struct Net;

  Tensor EdgeWeights(const Tensor& x) const;
  Tensor Encode(const Tensor& x, const Tensor& weights, bool training) const;

  LearnedGraphOptions options_;
  mutable Rng rng_;
  Featurizer featurizer_;
  CandidateEdges candidates_;
  Matrix x_cache_;
  std::unique_ptr<Net> net_;
  bool fitted_ = false;
};

}  // namespace gnn4tdl
