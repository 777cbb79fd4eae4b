#include <cmath>

#include <gtest/gtest.h>

#include "construct/intrinsic.h"
#include "construct/learned.h"
#include "construct/rule_based.h"
#include "construct/similarity.h"
#include "data/synthetic.h"
#include "gradcheck_util.h"
#include "nn/optimizer.h"
#include "nn/ops.h"

namespace gnn4tdl {
namespace {

TEST(SimilarityTest, EuclideanIsNegativeDistance) {
  Matrix x = Matrix::FromRows({{0, 0}, {3, 4}});
  EXPECT_NEAR(RowSimilarity(x, 0, 1, SimilarityMetric::kEuclidean), -5.0,
              1e-12);
  EXPECT_NEAR(RowSimilarity(x, 0, 0, SimilarityMetric::kEuclidean), 0.0, 1e-12);
}

TEST(SimilarityTest, CosineOfParallelVectorsIsOne) {
  Matrix x = Matrix::FromRows({{1, 2}, {2, 4}, {-1, -2}});
  EXPECT_NEAR(RowSimilarity(x, 0, 1, SimilarityMetric::kCosine), 1.0, 1e-12);
  EXPECT_NEAR(RowSimilarity(x, 0, 2, SimilarityMetric::kCosine), -1.0, 1e-12);
}

TEST(SimilarityTest, RbfInUnitInterval) {
  Matrix x = Matrix::FromRows({{0, 0}, {1, 1}});
  double s = RowSimilarity(x, 0, 1, SimilarityMetric::kRbf, 0.5);
  EXPECT_NEAR(s, std::exp(-1.0), 1e-12);
  EXPECT_NEAR(RowSimilarity(x, 0, 0, SimilarityMetric::kRbf), 1.0, 1e-12);
}

TEST(SimilarityTest, PearsonInvariantToShiftScale) {
  Matrix x = Matrix::FromRows({{1, 2, 3}, {10, 20, 30}, {5, 7, 9}});
  EXPECT_NEAR(RowSimilarity(x, 0, 1, SimilarityMetric::kPearson), 1.0, 1e-12);
  EXPECT_NEAR(RowSimilarity(x, 0, 2, SimilarityMetric::kPearson), 1.0, 1e-12);
}

TEST(SimilarityTest, PairwiseMatrixSymmetric) {
  Rng rng(1);
  Matrix x = Matrix::Randn(6, 3, rng);
  Matrix sim = PairwiseSimilarity(x, SimilarityMetric::kRbf, 1.0);
  EXPECT_TRUE(sim.AllClose(sim.Transpose(), 1e-12));
  for (size_t i = 0; i < 6; ++i) EXPECT_NEAR(sim(i, i), 1.0, 1e-12);
}

TEST(SimilarityTest, MetricNamesRoundTrip) {
  for (SimilarityMetric m :
       {SimilarityMetric::kEuclidean, SimilarityMetric::kCosine,
        SimilarityMetric::kRbf, SimilarityMetric::kPearson,
        SimilarityMetric::kManhattan, SimilarityMetric::kInnerProduct}) {
    StatusOr<SimilarityMetric> parsed =
        SimilarityMetricFromName(SimilarityMetricName(m));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, m);
  }
}

TEST(SimilarityTest, UnknownMetricNameIsInvalidArgument) {
  StatusOr<SimilarityMetric> parsed = SimilarityMetricFromName("bogus");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(KnnGraphTest, ConnectsNearestNeighbors) {
  // Two tight pairs far apart.
  Matrix x = Matrix::FromRows({{0, 0}, {0.1, 0}, {10, 10}, {10.1, 10}});
  Graph g = KnnGraph(x, {.k = 1});
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.IsSymmetric());
}

TEST(KnnGraphTest, DegreeBoundedByUnionOfK) {
  Rng rng(2);
  Matrix x = Matrix::Randn(50, 4, rng);
  KnnGraphOptions opts;
  opts.k = 5;
  Graph g = KnnGraph(x, opts);
  // Union symmetrization: min degree >= k, and no self-loops.
  std::vector<double> deg = g.Degrees();
  for (size_t v = 0; v < 50; ++v) {
    EXPECT_GE(deg[v], 5.0);
    EXPECT_FALSE(g.HasEdge(v, v));
  }
}

TEST(KnnGraphTest, MutualSparserThanUnion) {
  Rng rng(3);
  Matrix x = Matrix::Randn(60, 4, rng);
  Graph u = KnnGraph(x, {.k = 5, .mutual = false});
  Graph m = KnnGraph(x, {.k = 5, .mutual = true});
  EXPECT_LT(m.num_edges(), u.num_edges());
}

TEST(KnnGraphTest, WeightedEdgesPositive) {
  Rng rng(4);
  Matrix x = Matrix::Randn(20, 3, rng);
  Graph g = KnnGraph(x, {.k = 3, .weighted = true});
  for (double v : g.adjacency().values()) EXPECT_GT(v, 0.0);
}

TEST(KnnGraphTest, HighHomophilyOnClusteredData) {
  TabularDataset data = MakeClusters({.num_rows = 200, .num_classes = 3});
  Matrix x(200, data.NumCols());
  for (size_t c = 0; c < data.NumCols(); ++c)
    for (size_t r = 0; r < 200; ++r) x(r, c) = data.column(c).numeric[r];
  Graph g = KnnGraph(x, {.k = 5});
  EXPECT_GT(g.EdgeHomophily(data.class_labels()), 0.8);
}

TEST(ThresholdGraphTest, KeepsOnlySimilarPairs) {
  Matrix x = Matrix::FromRows({{1, 0}, {1, 0.01}, {0, 1}});
  Graph g = ThresholdGraph(x, {.threshold = 0.95,
                               .metric = SimilarityMetric::kCosine});
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(FullyConnectedTest, AllPairsPresent) {
  Graph g = FullyConnectedGraph(4);
  EXPECT_EQ(g.num_edges(), 12u);  // 4*3 directed
  EXPECT_FALSE(g.HasEdge(1, 1));
}

TEST(FullyConnectedTest, WeightedBySimilarity) {
  Matrix x = Matrix::FromRows({{1, 0}, {1, 0}, {0, 1}});
  Graph g = FullyConnectedGraph(3, &x);
  EXPECT_GT(g.adjacency().At(0, 1), g.adjacency().At(0, 2));
}

TEST(SameFeatureValueTest, CliquesPerValue) {
  TabularDataset data(5);
  ASSERT_TRUE(data.AddCategoricalColumn("g", {0, 0, 1, 1, -1},
                                        {"a", "b"}).ok());
  Graph g = SameFeatureValueGraph(data, 0);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.HasEdge(1, 2));
  // Missing value row stays isolated.
  EXPECT_TRUE(g.Neighbors(4).empty());
}

TEST(SameFeatureValueTest, GroupSizeCapBoundsEdges) {
  TabularDataset data(100);
  std::vector<int> codes(100, 0);
  ASSERT_TRUE(data.AddCategoricalColumn("g", codes, {"a"}).ok());
  Graph capped = SameFeatureValueGraph(data, 0, /*max_group_size=*/10);
  EXPECT_LE(capped.num_edges(), 10u * 9u);
  Graph full = SameFeatureValueGraph(data, 0);
  EXPECT_EQ(full.num_edges(), 100u * 99u);
}

TEST(MultiplexTest, OneLayerPerCategoricalColumn) {
  TabularDataset data = MakeMultiRelational({.num_rows = 50,
                                             .num_relations = 3,
                                             .cardinality = 5});
  MultiplexGraph mg = MultiplexFromCategoricals(data);
  EXPECT_EQ(mg.num_layers(), 3u);
  EXPECT_EQ(mg.num_nodes(), 50u);
}

TEST(FeatureCorrelationTest, CorrelatedFeaturesConnected) {
  Rng rng(5);
  Matrix x(100, 3);
  for (size_t i = 0; i < 100; ++i) {
    double base = rng.Normal();
    x(i, 0) = base;
    x(i, 1) = base + rng.Normal(0, 0.1);  // highly correlated with 0
    x(i, 2) = rng.Normal();               // independent
  }
  Graph g = FeatureCorrelationGraph(x, 0.5);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(BipartiteFromTableTest, ObservedCellsBecomeEdges) {
  TabularDataset data(2);
  ASSERT_TRUE(data.AddNumericColumn("x", {1.0, std::nan("")}).ok());
  ASSERT_TRUE(data.AddCategoricalColumn("c", {1, 0}, {"a", "b"}).ok());
  std::vector<std::string> names;
  BipartiteGraph b = BipartiteFromTable(data, {}, &names);
  EXPECT_EQ(b.num_left(), 2u);
  EXPECT_EQ(b.num_right(), 3u);  // 1 numeric + 2 categories
  EXPECT_EQ(b.num_edges(), 3u);  // missing cell has no edge
  EXPECT_EQ(names[1], "c=a");
  EXPECT_EQ(names[2], "c=b");
}

TEST(BipartiteFromTableTest, StandardizedNumericEdgeWeights) {
  TabularDataset data(4);
  ASSERT_TRUE(data.AddNumericColumn("x", {0.0, 0.0, 10.0, 10.0}).ok());
  BipartiteGraph b = BipartiteFromTable(data);
  // Standardized values are symmetric around 0.
  EXPECT_NEAR(b.edge_values()[0] + b.edge_values()[2], 0.0, 1e-12);
}

TEST(HeteroFromTableTest, InstancePlusValueNodeTypes) {
  TabularDataset data(3);
  ASSERT_TRUE(data.AddCategoricalColumn("city", {0, 1, 0},
                                        {"tpe", "nyc"}).ok());
  ASSERT_TRUE(data.AddNumericColumn("age", {1, 2, 3}).ok());
  HeteroGraph hg = HeteroFromTable(data);
  EXPECT_EQ(hg.num_node_types(), 2u);  // instance + city (numeric skipped)
  EXPECT_EQ(hg.num_nodes(), 5u);
  EXPECT_EQ(hg.num_relations(), 1u);
  // Instances 0 and 2 both connect to value node "tpe" (global id 3).
  EXPECT_TRUE(hg.relation(0).HasEdge(0, 3));
  EXPECT_TRUE(hg.relation(0).HasEdge(2, 3));
  EXPECT_TRUE(hg.relation(0).HasEdge(1, 4));
}

TEST(HypergraphFromTableTest, RowsBecomeHyperedges) {
  TabularDataset data(3);
  ASSERT_TRUE(data.AddCategoricalColumn("c", {0, 1, 0}, {"a", "b"}).ok());
  ASSERT_TRUE(data.AddNumericColumn("x", {0.0, 5.0, 10.0}).ok());
  std::vector<std::string> names;
  Hypergraph h = HypergraphFromTable(data, {.numeric_bins = 2}, &names);
  EXPECT_EQ(h.num_hyperedges(), 3u);
  EXPECT_EQ(h.num_nodes(), 4u);  // 2 categories + 2 bins
  // Rows 0 and 2 share the category-"a" node.
  EXPECT_EQ(h.incidence().At(0, 0), 1.0);
  EXPECT_EQ(h.incidence().At(0, 2), 1.0);
}

TEST(LearnedTest, KnnCandidatesSymmetricNoSelf) {
  Rng rng(6);
  Matrix x = Matrix::Randn(30, 3, rng);
  CandidateEdges e = KnnCandidates(x, 4);
  ASSERT_EQ(e.src.size(), e.dst.size());
  EXPECT_EQ(e.src.size() % 2, 0u);
  for (size_t k = 0; k < e.src.size(); ++k) EXPECT_NE(e.src[k], e.dst[k]);
  // Symmetric: every (s,d) has matching (d,s) at the adjacent slot.
  for (size_t k = 0; k < e.src.size(); k += 2) {
    EXPECT_EQ(e.src[k], e.dst[k + 1]);
    EXPECT_EQ(e.dst[k], e.src[k + 1]);
  }
}

TEST(LearnedTest, FullCandidatesCount) {
  CandidateEdges e = FullCandidates(4);
  EXPECT_EQ(e.src.size(), 12u);
}

TEST(LearnedTest, MetricLearnerWeightsInRange) {
  Rng rng(7);
  Matrix x = Matrix::Randn(10, 4, rng);
  CandidateEdges edges = KnnCandidates(x, 3);
  MetricGraphLearner learner(4, rng);
  Tensor w = learner.EdgeWeights(Tensor::Constant(x), edges);
  EXPECT_EQ(w.rows(), edges.src.size());
  for (size_t e = 0; e < w.rows(); ++e) {
    EXPECT_GE(w.value()(e, 0), 0.0);
    EXPECT_LE(w.value()(e, 0), 1.0 + 1e-9);
  }
}

TEST(LearnedTest, MetricLearnerGradCheck) {
  Rng rng(8);
  Matrix x = Matrix::Randn(6, 3, rng);
  CandidateEdges edges = KnnCandidates(x, 2);
  MetricGraphLearner learner(3, rng);
  testing::ExpectGradientsMatch(learner.Parameters(), [&] {
    Tensor w = learner.EdgeWeights(Tensor::Constant(x), edges);
    // Keep away from the relu kink by shifting the loss.
    return ops::SumSquares(ops::AddScalar(w, 0.1));
  });
}

TEST(LearnedTest, NeuralScorerGradCheck) {
  Rng rng(9);
  Matrix x = Matrix::Randn(6, 3, rng);
  CandidateEdges edges = KnnCandidates(x, 2);
  NeuralEdgeScorer scorer(3, 5, rng);
  testing::ExpectGradientsMatch(scorer.Parameters(), [&] {
    return ops::SumSquares(scorer.EdgeWeights(Tensor::Constant(x), edges));
  });
}

TEST(LearnedTest, DirectAdjacencyLearnsToKillBadEdge) {
  Rng rng(10);
  DirectAdjacency adj(2, rng);
  // Push edge 0 weight to 1 and edge 1 weight to 0.
  Adam opt(adj.Parameters(), 0.5);
  Matrix target = Matrix::FromRows({{1.0}, {0.0}});
  for (int i = 0; i < 100; ++i) {
    opt.ZeroGrad();
    ops::MseLoss(adj.EdgeWeights(), target).Backward();
    opt.Step();
  }
  Tensor w = adj.EdgeWeights();
  EXPECT_GT(w.value()(0, 0), 0.9);
  EXPECT_LT(w.value()(1, 0), 0.1);
}

TEST(LearnedTest, WeightedAggregateIsConvexCombination) {
  Rng rng(11);
  Matrix h_val = Matrix::Randn(4, 2, rng);
  CandidateEdges edges;
  edges.src = {0, 1, 2};
  edges.dst = {3, 3, 3};
  Tensor h = Tensor::Constant(h_val);
  Tensor w = Tensor::Constant(Matrix::FromRows({{0.5}, {0.5}, {0.5}}));
  Tensor out = WeightedAggregate(h, w, edges, 4);
  // Equal weights -> node 3 receives the mean of rows 0..2.
  for (size_t c = 0; c < 2; ++c) {
    double mean = (h_val(0, c) + h_val(1, c) + h_val(2, c)) / 3.0;
    EXPECT_NEAR(out.value()(3, c), mean, 1e-9);
  }
}

}  // namespace
}  // namespace gnn4tdl
