#pragma once

#include <memory>
#include <string>
#include <vector>

#include "construct/similarity.h"
#include "core/taxonomy.h"
#include "models/knn_gnn.h"
#include "models/learned_graph.h"
#include "models/model.h"

namespace gnn4tdl {

/// The paper's pipeline (Figure 1) as one configuration object: Graph
/// Formulation -> Graph Construction -> Representation Learning -> Training
/// Plan. BuildModel() maps every valid combination onto the method family
/// that implements it.
struct PipelineConfig {
  // Axis 1 — formulation.
  GraphFormulation formulation = GraphFormulation::kInstanceGraph;
  /// Used only when formulation == kNoGraph.
  BaselineKind baseline = BaselineKind::kMlp;

  // Axis 2 — construction.
  ConstructionMethod construction = ConstructionMethod::kKnn;
  SimilarityMetric metric = SimilarityMetric::kEuclidean;
  size_t knn_k = 10;
  double threshold = 0.7;

  // Axis 3 — representation learning.
  GnnBackbone backbone = GnnBackbone::kGcn;
  size_t hidden_dim = 32;
  size_t num_layers = 2;

  // Axis 4 — training plan (Tables 7-8).
  double reconstruction_weight = 0.0;
  double dae_weight = 0.0;
  double contrastive_weight = 0.0;
  double smoothness_weight = 0.0;
  double edge_completion_weight = 0.0;
  TrainStrategy strategy = TrainStrategy::kEndToEnd;
  TrainOptions train;

  uint64_t seed = 42;

  /// One-line description for experiment tables.
  std::string Describe() const;
};

/// Instantiates the model a config describes. Returns InvalidArgument for
/// combinations the taxonomy does not support (e.g., feature graphs with kNN
/// construction).
StatusOr<std::unique_ptr<TabularModel>> BuildModel(const PipelineConfig& config);

/// Builds the model a config describes and fits it on (data, split): no
/// predict, no evaluation. For callers that only want the trained model.
StatusOr<std::unique_ptr<TabularModel>> FitPipeline(
    const PipelineConfig& config, const TabularDataset& data,
    const Split& split);

/// Outcome of one pipeline run.
struct PipelineResult {
  std::string model_name;
  EvalResult eval;
  /// Wall time of FitPipeline: model build plus Fit.
  double fit_seconds = 0.0;
  /// Instance-graph statistics where applicable (0 otherwise).
  size_t graph_edges = 0;
  double edge_homophily = 0.0;
  /// The fitted model, shared so callers can freeze or serve it without
  /// retraining. Null only when the run failed before fitting.
  std::shared_ptr<TabularModel> model;
};

/// FitPipeline, then predicts every row and evaluates on split.test.
StatusOr<PipelineResult> RunPipeline(const PipelineConfig& config,
                                     const TabularDataset& data,
                                     const Split& split);

}  // namespace gnn4tdl
