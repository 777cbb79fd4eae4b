#include "core/pipeline.h"

#include <cstring>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "models/hypergraph_model.h"

namespace gnn4tdl {
namespace {

TrainOptions FastTrain(int epochs = 80) {
  TrainOptions t;
  t.max_epochs = epochs;
  t.learning_rate = 0.02;
  t.patience = 25;
  return t;
}

TEST(TaxonomyTest, FormulationNamesRoundTrip) {
  for (GraphFormulation f : AllGraphFormulations()) {
    auto parsed = GraphFormulationFromName(GraphFormulationName(f));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, f);
  }
  EXPECT_FALSE(GraphFormulationFromName("bogus").ok());
}

TEST(TaxonomyTest, ConstructionNamesRoundTrip) {
  for (ConstructionMethod m : AllConstructionMethods()) {
    auto parsed = ConstructionMethodFromName(ConstructionMethodName(m));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(ConstructionMethodFromName("bogus").ok());
}

TEST(TaxonomyTest, BaselineNamesRoundTrip) {
  for (BaselineKind b : {BaselineKind::kMlp, BaselineKind::kLinear,
                         BaselineKind::kGbdt, BaselineKind::kKnn}) {
    auto parsed = BaselineKindFromName(BaselineKindName(b));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, b);
  }
}

TEST(PipelineTest, RejectsInvalidCombinations) {
  PipelineConfig config;
  config.formulation = GraphFormulation::kFeatureGraph;
  config.construction = ConstructionMethod::kKnn;
  EXPECT_FALSE(BuildModel(config).ok());

  config.formulation = GraphFormulation::kBipartite;
  config.construction = ConstructionMethod::kKnn;
  EXPECT_FALSE(BuildModel(config).ok());

  config.formulation = GraphFormulation::kHypergraph;
  config.construction = ConstructionMethod::kThreshold;
  EXPECT_FALSE(BuildModel(config).ok());
}

TEST(PipelineTest, DescribeMentionsAxes) {
  PipelineConfig config;
  config.formulation = GraphFormulation::kInstanceGraph;
  config.construction = ConstructionMethod::kKnn;
  config.backbone = GnnBackbone::kGat;
  std::string desc = config.Describe();
  EXPECT_NE(desc.find("instance_graph"), std::string::npos);
  EXPECT_NE(desc.find("knn"), std::string::npos);
  EXPECT_NE(desc.find("gat"), std::string::npos);
}

TEST(PipelineTest, RunsEveryFormulationOnMixedData) {
  // A dataset with both numeric and categorical columns so every
  // formulation is applicable.
  TabularDataset data = MakeMultiRelational({.num_rows = 200,
                                             .num_relations = 2,
                                             .cardinality = 12,
                                             .numeric_signal = 0.8});
  Rng rng(1);
  Split split = StratifiedSplit(data.class_labels(), 0.5, 0.2, rng);

  struct Case {
    GraphFormulation formulation;
    ConstructionMethod construction;
  };
  std::vector<Case> cases = {
      {GraphFormulation::kInstanceGraph, ConstructionMethod::kKnn},
      {GraphFormulation::kFeatureGraph, ConstructionMethod::kLearnedDirect},
      {GraphFormulation::kBipartite, ConstructionMethod::kIntrinsic},
      {GraphFormulation::kMultiplex, ConstructionMethod::kSameFeatureValue},
      {GraphFormulation::kHeteroGraph, ConstructionMethod::kIntrinsic},
      {GraphFormulation::kHypergraph, ConstructionMethod::kIntrinsic},
      {GraphFormulation::kNoGraph, ConstructionMethod::kIntrinsic},
  };
  for (const Case& c : cases) {
    PipelineConfig config;
    config.formulation = c.formulation;
    config.construction = c.construction;
    config.hidden_dim = 16;
    config.train = FastTrain(50);
    auto result = RunPipeline(config, data, split);
    ASSERT_TRUE(result.ok()) << GraphFormulationName(c.formulation) << ": "
                             << result.status().ToString();
    EXPECT_GT(result->eval.accuracy, 0.5)
        << GraphFormulationName(c.formulation);
    EXPECT_GT(result->fit_seconds, 0.0);
  }
}

TEST(PipelineTest, InstanceGraphReportsGraphStats) {
  TabularDataset data = MakeClusters({.num_rows = 150, .num_classes = 2});
  Rng rng(2);
  Split split = StratifiedSplit(data.class_labels(), 0.5, 0.2, rng);
  PipelineConfig config;
  config.train = FastTrain(40);
  auto result = RunPipeline(config, data, split);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->graph_edges, 0u);
  EXPECT_GT(result->edge_homophily, 0.7);  // clustered data => homophilous kNN
}

TEST(PipelineTest, FitPipelineModelPredictsLikeRunPipeline) {
  TabularDataset data = MakeClusters({.num_rows = 150, .num_classes = 3});
  Rng rng(6);
  Split split = StratifiedSplit(data.class_labels(), 0.5, 0.2, rng);
  PipelineConfig config;
  config.backbone = GnnBackbone::kGat;
  config.train = FastTrain(20);
  auto fitted = FitPipeline(config, data, split);
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  auto run = RunPipeline(config, data, split);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto a = (*fitted)->Predict(data);
  auto b = run->model->Predict(data);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  EXPECT_EQ(std::memcmp(a->data(), b->data(), a->size() * sizeof(double)), 0);
}

TEST(PipelineTest, LearnedConstructionMapsToGslModels) {
  PipelineConfig config;
  config.construction = ConstructionMethod::kLearnedNeural;
  auto model = BuildModel(config);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->Name(), "gsl(neural)");
}

TEST(PipelineTest, BaselinesBuild) {
  for (BaselineKind b : {BaselineKind::kMlp, BaselineKind::kLinear,
                         BaselineKind::kGbdt, BaselineKind::kKnn}) {
    PipelineConfig config;
    config.formulation = GraphFormulation::kNoGraph;
    config.baseline = b;
    auto model = BuildModel(config);
    ASSERT_TRUE(model.ok()) << BaselineKindName(b);
  }
}

TEST(HypergraphModelTest, LearnsRelationalData) {
  TabularDataset data = MakeMultiRelational({.num_rows = 250,
                                             .num_relations = 2,
                                             .cardinality = 15});
  Rng rng(3);
  Split split = StratifiedSplit(data.class_labels(), 0.5, 0.2, rng);
  HypergraphModelOptions opts;
  opts.train = FastTrain(100);
  HypergraphModel model(opts);
  auto result = FitAndEvaluate(model, data, split, split.test);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->accuracy, 0.6);
  EXPECT_EQ(model.hypergraph().num_hyperedges(), 250u);
}

}  // namespace
}  // namespace gnn4tdl
