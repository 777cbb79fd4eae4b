#include "core/pipeline.h"

#include "models/bipartite_imputer.h"
#include "models/feature_graph.h"
#include "models/gbdt.h"
#include "models/hetero_rgcn.h"
#include "models/hypergraph_model.h"
#include "models/knn_baseline.h"
#include "models/mlp.h"
#include "models/tabgnn.h"
#include "obs/clock.h"
#include "obs/trace.h"

namespace gnn4tdl {

std::string PipelineConfig::Describe() const {
  std::string out = GraphFormulationName(formulation);
  if (formulation == GraphFormulation::kNoGraph) {
    out += std::string("/") + BaselineKindName(baseline);
    return out;
  }
  out += std::string("/") + ConstructionMethodName(construction);
  if (formulation == GraphFormulation::kInstanceGraph &&
      construction != ConstructionMethod::kLearnedMetric &&
      construction != ConstructionMethod::kLearnedNeural &&
      construction != ConstructionMethod::kLearnedDirect) {
    out += std::string("/") + GnnBackboneName(backbone);
  }
  if (strategy != TrainStrategy::kEndToEnd) {
    out += std::string("/") + TrainStrategyName(strategy);
  }
  return out;
}

StatusOr<std::unique_ptr<TabularModel>> BuildModel(
    const PipelineConfig& config) {
  switch (config.formulation) {
    case GraphFormulation::kNoGraph: {
      switch (config.baseline) {
        case BaselineKind::kMlp: {
          MlpModelOptions opts;
          opts.hidden_dims = {config.hidden_dim, config.hidden_dim};
          opts.train = config.train;
          opts.seed = config.seed;
          return std::unique_ptr<TabularModel>(
              std::make_unique<MlpModel>(opts));
        }
        case BaselineKind::kLinear:
          return std::unique_ptr<TabularModel>(
              MakeLinearModel(config.train, config.seed));
        case BaselineKind::kGbdt:
          return std::unique_ptr<TabularModel>(std::make_unique<GbdtModel>(
              GbdtOptions{.seed = config.seed}));
        case BaselineKind::kKnn:
          return std::unique_ptr<TabularModel>(std::make_unique<KnnBaseline>(
              KnnBaselineOptions{.k = config.knn_k, .metric = config.metric}));
      }
      return Status::InvalidArgument("unknown baseline kind");
    }

    case GraphFormulation::kInstanceGraph: {
      // Learning-based construction maps to the GSL model family.
      if (config.construction == ConstructionMethod::kLearnedMetric ||
          config.construction == ConstructionMethod::kLearnedNeural ||
          config.construction == ConstructionMethod::kLearnedDirect) {
        LearnedGraphOptions opts;
        opts.strategy =
            config.construction == ConstructionMethod::kLearnedMetric
                ? GslStrategy::kMetric
                : config.construction == ConstructionMethod::kLearnedNeural
                      ? GslStrategy::kNeural
                      : GslStrategy::kDirect;
        opts.candidate_k = config.knn_k + 5;
        opts.hidden_dim = config.hidden_dim;
        opts.num_layers = config.num_layers;
        opts.smoothness_weight = config.smoothness_weight;
        opts.dae_weight = config.dae_weight;
        opts.train = config.train;
        opts.seed = config.seed;
        return std::unique_ptr<TabularModel>(
            std::make_unique<LearnedGraphGnn>(opts));
      }
      InstanceGraphGnnOptions opts;
      switch (config.construction) {
        case ConstructionMethod::kKnn:
          opts.graph_source = GraphSource::kKnn;
          opts.knn.k = config.knn_k;
          opts.knn.metric = config.metric;
          break;
        case ConstructionMethod::kThreshold:
          opts.graph_source = GraphSource::kThreshold;
          opts.threshold.threshold = config.threshold;
          opts.threshold.metric = config.metric;
          break;
        case ConstructionMethod::kFullyConnected:
          opts.graph_source = GraphSource::kFullyConnected;
          break;
        case ConstructionMethod::kSameFeatureValue:
          opts.graph_source = GraphSource::kMultiplexFlatten;
          break;
        default:
          return Status::InvalidArgument(
              "instance graphs do not support construction method " +
              std::string(ConstructionMethodName(config.construction)));
      }
      opts.backbone = config.backbone;
      opts.hidden_dim = config.hidden_dim;
      opts.num_layers = config.num_layers;
      opts.reconstruction_weight = config.reconstruction_weight;
      opts.dae_weight = config.dae_weight;
      opts.contrastive_weight = config.contrastive_weight;
      opts.smoothness_weight = config.smoothness_weight;
      opts.edge_completion_weight = config.edge_completion_weight;
      opts.strategy = config.strategy;
      opts.train = config.train;
      opts.seed = config.seed;
      return std::unique_ptr<TabularModel>(
          std::make_unique<InstanceGraphGnn>(opts));
    }

    case GraphFormulation::kFeatureGraph: {
      FeatureGraphOptions opts;
      switch (config.construction) {
        case ConstructionMethod::kFullyConnected:
          opts.adjacency = FeatureAdjacency::kFullyConnected;
          break;
        case ConstructionMethod::kLearnedDirect:
          opts.adjacency = FeatureAdjacency::kLearned;
          break;
        default:
          return Status::InvalidArgument(
              "feature graphs support fully_connected or learned_direct "
              "construction only");
      }
      opts.embed_dim = config.hidden_dim / 2 > 0 ? config.hidden_dim / 2 : 8;
      opts.num_layers = config.num_layers;
      opts.train = config.train;
      opts.seed = config.seed;
      return std::unique_ptr<TabularModel>(
          std::make_unique<FeatureGraphModel>(opts));
    }

    case GraphFormulation::kBipartite: {
      if (config.construction != ConstructionMethod::kIntrinsic) {
        return Status::InvalidArgument(
            "bipartite formulation uses intrinsic construction");
      }
      GrapeOptions opts;
      opts.hidden_dim = config.hidden_dim;
      opts.num_layers = config.num_layers;
      opts.train = config.train;
      opts.seed = config.seed;
      return std::unique_ptr<TabularModel>(std::make_unique<GrapeModel>(opts));
    }

    case GraphFormulation::kMultiplex: {
      if (config.construction != ConstructionMethod::kSameFeatureValue &&
          config.construction != ConstructionMethod::kIntrinsic) {
        return Status::InvalidArgument(
            "multiplex formulation uses same_feature_value construction");
      }
      TabGnnOptions opts;
      opts.hidden_dim = config.hidden_dim;
      opts.num_layers = config.num_layers;
      opts.train = config.train;
      opts.seed = config.seed;
      return std::unique_ptr<TabularModel>(std::make_unique<TabGnnModel>(opts));
    }

    case GraphFormulation::kHeteroGraph: {
      if (config.construction != ConstructionMethod::kIntrinsic) {
        return Status::InvalidArgument(
            "hetero_graph formulation uses intrinsic construction");
      }
      HeteroRgcnOptions opts;
      opts.hidden_dim = config.hidden_dim;
      opts.num_layers = config.num_layers;
      opts.train = config.train;
      opts.seed = config.seed;
      return std::unique_ptr<TabularModel>(
          std::make_unique<HeteroRgcnModel>(opts));
    }

    case GraphFormulation::kHypergraph: {
      if (config.construction != ConstructionMethod::kIntrinsic) {
        return Status::InvalidArgument(
            "hypergraph formulation uses intrinsic construction");
      }
      HypergraphModelOptions opts;
      opts.embed_dim = config.hidden_dim;
      opts.num_layers = config.num_layers;
      opts.train = config.train;
      opts.seed = config.seed;
      return std::unique_ptr<TabularModel>(
          std::make_unique<HypergraphModel>(opts));
    }
  }
  return Status::InvalidArgument("unknown graph formulation");
}

StatusOr<std::unique_ptr<TabularModel>> FitPipeline(
    const PipelineConfig& config, const TabularDataset& data,
    const Split& split) {
  StatusOr<std::unique_ptr<TabularModel>> model = [&] {
    obs::TraceSpan span("pipeline/build_model");
    return BuildModel(config);
  }();
  if (!model.ok()) return model.status();
  obs::TraceSpan span("pipeline/fit");
  GNN4TDL_RETURN_IF_ERROR((*model)->Fit(data, split));
  return model;
}

StatusOr<PipelineResult> RunPipeline(const PipelineConfig& config,
                                     const TabularDataset& data,
                                     const Split& split) {
  obs::TraceSpan pipeline_span("pipeline/run");
  const obs::Clock* clock = obs::Tracer::Global().clock();

  int64_t fit_start_ns = clock->NowNanos();
  StatusOr<std::unique_ptr<TabularModel>> model =
      FitPipeline(config, data, split);
  if (!model.ok()) return model.status();
  int64_t fit_end_ns = clock->NowNanos();

  StatusOr<Matrix> predictions = [&] {
    obs::TraceSpan span("pipeline/predict");
    return (*model)->Predict(data);
  }();
  if (!predictions.ok()) return predictions.status();

  PipelineResult result;
  result.model_name = (*model)->Name();
  {
    obs::TraceSpan span("pipeline/evaluate");
    result.eval = EvaluatePredictions(*predictions, data, split.test);
  }
  result.fit_seconds = static_cast<double>(fit_end_ns - fit_start_ns) / 1e9;

  if (auto* gnn = dynamic_cast<InstanceGraphGnn*>(model->get())) {
    result.graph_edges = gnn->graph().num_edges();
    if (!data.class_labels().empty()) {
      result.edge_homophily = gnn->graph().EdgeHomophily(data.class_labels());
    }
  }
  result.model = std::shared_ptr<TabularModel>(std::move(*model));
  return result;
}

}  // namespace gnn4tdl
