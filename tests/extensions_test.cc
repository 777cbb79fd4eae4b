// Tests for the Section 6 "future directions" implementations: graph
// perturbations, the structure-biased graph transformer, and the general
// heterogeneous RGCN model.

#include <memory>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/perturb.h"
#include "models/hetero_rgcn.h"
#include "models/knn_gnn.h"

namespace gnn4tdl {
namespace {

Graph Ring(size_t n) {
  std::vector<Edge> edges;
  for (size_t i = 0; i < n; ++i) edges.push_back({i, (i + 1) % n, 1.0});
  return Graph::FromEdges(n, edges);
}

TEST(PerturbTest, DropEdgesRemovesRequestedFraction) {
  Graph g = Ring(20);  // 20 undirected edges
  Graph dropped = DropEdges(g, 0.5, 1);
  EXPECT_EQ(dropped.num_edges(), 20u);  // 10 undirected = 20 directed
  EXPECT_TRUE(dropped.IsSymmetric());
}

TEST(PerturbTest, DropAllAndNone) {
  Graph g = Ring(10);
  EXPECT_EQ(DropEdges(g, 1.0, 2).num_edges(), 0u);
  EXPECT_EQ(DropEdges(g, 0.0, 2).num_edges(), g.num_edges());
}

TEST(PerturbTest, AddRandomEdgesGrowsEdgeSet) {
  Graph g = Ring(30);
  Graph grown = AddRandomEdges(g, 1.0, 3);
  EXPECT_GT(grown.num_edges(), g.num_edges());
  EXPECT_TRUE(grown.IsSymmetric());
}

TEST(PerturbTest, RewirePreservesEdgeCountApproximately) {
  Graph g = Ring(50);
  Graph rewired = RewireEdges(g, 0.5, 4);
  // Collapsing duplicates can shrink slightly; never grows.
  EXPECT_LE(rewired.num_edges(), g.num_edges());
  EXPECT_GE(rewired.num_edges(), g.num_edges() / 2);
  EXPECT_TRUE(rewired.IsSymmetric());
}

TEST(PerturbTest, RewireLowersHomophilyOnClusteredGraph) {
  // Two cliques: homophily 1.0; random rewiring must lower it.
  std::vector<Edge> edges;
  for (size_t i = 0; i < 10; ++i)
    for (size_t j = i + 1; j < 10; ++j) {
      edges.push_back({i, j, 1.0});
      edges.push_back({10 + i, 10 + j, 1.0});
    }
  Graph g = Graph::FromEdges(20, edges);
  std::vector<int> labels(20);
  for (size_t i = 10; i < 20; ++i) labels[i] = 1;
  ASSERT_NEAR(g.EdgeHomophily(labels), 1.0, 1e-12);
  Graph noisy = RewireEdges(g, 0.5, 5);
  EXPECT_LT(noisy.EdgeHomophily(labels), 0.9);
}

TEST(PerturbTest, SparsifyKeepsRequestedFraction) {
  Graph g = Ring(200);
  Graph sparse = SparsifyEdges(g, 0.3, 6);
  double kept = static_cast<double>(sparse.num_edges()) /
                static_cast<double>(g.num_edges());
  EXPECT_NEAR(kept, 0.3, 0.1);
}

// A one-layer graph transformer fitted briefly; the layer holds parameters
// only, so these checks run its forward through the model.
std::unique_ptr<InstanceGraphGnn> FitTransformer() {
  TabularDataset data = MakeClusters({.num_rows = 30,
                                      .num_classes = 2,
                                      .dim_informative = 4,
                                      .dim_noise = 0,
                                      .seed = 1});
  InstanceGraphGnnOptions opts;
  opts.backbone = GnnBackbone::kTransformer;
  opts.hidden_dim = 4;
  opts.num_layers = 1;
  opts.train.max_epochs = 5;
  auto model = std::make_unique<InstanceGraphGnn>(opts);
  Rng rng(2);
  EXPECT_TRUE(
      model->Fit(data, StratifiedSplit(data.class_labels(), 0.5, 0.2, rng))
          .ok());
  return model;
}

TEST(GraphTransformerTest, OutputShapeAndResidualPath) {
  std::unique_ptr<InstanceGraphGnn> model = FitTransformer();
  StatusOr<Matrix> emb = model->Embeddings();
  ASSERT_TRUE(emb.ok()) << emb.status().ToString();
  EXPECT_EQ(emb->rows(), 30u);
  EXPECT_EQ(emb->cols(), 4u);
}

TEST(GraphTransformerTest, StructureBiasChangesOutput) {
  std::unique_ptr<InstanceGraphGnn> model = FitTransformer();
  const Matrix x = model->feature_cache().GatherRows({0, 1, 2, 3, 4, 5});
  StatusOr<Matrix> with_structure = model->ScoreOnGraph(x, Ring(6));
  StatusOr<Matrix> without = model->ScoreOnGraph(x, Graph(6));
  ASSERT_TRUE(with_structure.ok() && without.ok());
  EXPECT_FALSE(with_structure->AllClose(*without, 1e-9));
}

TEST(GraphTransformerTest, BackboneTrainsOnClusters) {
  TabularDataset data = MakeClusters({.num_rows = 150, .num_classes = 2});
  Rng rng(4);
  Split split = StratifiedSplit(data.class_labels(), 0.5, 0.2, rng);
  InstanceGraphGnnOptions opts;
  opts.backbone = GnnBackbone::kTransformer;
  opts.hidden_dim = 16;
  opts.num_layers = 1;
  opts.train.max_epochs = 60;
  opts.train.learning_rate = 0.02;
  InstanceGraphGnn model(opts);
  auto result = FitAndEvaluate(model, data, split, split.test);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->accuracy, 0.8);
}

TEST(HeteroRgcnTest, LearnsRelationalData) {
  TabularDataset data = MakeMultiRelational({.num_rows = 300,
                                             .num_relations = 2,
                                             .cardinality = 20,
                                             .numeric_signal = 0.5});
  Rng rng(5);
  Split split = StratifiedSplit(data.class_labels(), 0.3, 0.2, rng);
  HeteroRgcnOptions opts;
  opts.train.max_epochs = 150;
  opts.train.learning_rate = 0.02;
  opts.train.patience = 40;
  HeteroRgcnModel model(opts);
  auto result = FitAndEvaluate(model, data, split, split.test);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->accuracy, 0.6);
  EXPECT_EQ(model.hetero_graph().num_relations(), 2u);
}

TEST(HeteroRgcnTest, RequiresCategoricalColumns) {
  TabularDataset data = MakeClusters({.num_rows = 50});
  Rng rng(6);
  Split split = StratifiedSplit(data.class_labels(), 0.5, 0.2, rng);
  HeteroRgcnModel model;
  EXPECT_FALSE(model.Fit(data, split).ok());
}

TEST(HeteroRgcnTest, AllCategoricalTableWorks) {
  TabularDataset data = MakeMultiRelational({.num_rows = 200,
                                             .num_relations = 2,
                                             .cardinality = 10,
                                             .dim_numeric = 0});
  Rng rng(7);
  Split split = StratifiedSplit(data.class_labels(), 0.5, 0.2, rng);
  HeteroRgcnOptions opts;
  opts.train.max_epochs = 100;
  HeteroRgcnModel model(opts);
  auto result = FitAndEvaluate(model, data, split, split.test);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->accuracy, 0.55);
}

}  // namespace
}  // namespace gnn4tdl
