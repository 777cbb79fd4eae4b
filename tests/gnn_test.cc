// Tests for every GNN layer: shape checks, semantic behaviors (message
// passing actually mixes neighbor information, permutation invariance of
// readouts), and finite-difference gradient checks through each layer.

#include <cmath>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "construct/rule_based.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "gnn/bipartite_conv.h"
#include "gnn/gcn.h"
#include "gnn/hypergraph_conv.h"
#include "gnn/readout.h"
#include "gnn/rgcn.h"
#include "gnn/sage.h"
#include "gradcheck_util.h"
#include "models/knn_gnn.h"
#include "nn/optimizer.h"
#include "nn/ops.h"

namespace gnn4tdl {
namespace {

Graph Path4() {
  // 0 - 1 - 2 - 3
  return Graph::FromEdges(4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}});
}

TEST(GcnLayerTest, OutputShape) {
  Rng rng(1);
  Graph g = Path4();
  GcnLayer layer(3, 5, rng);
  Tensor h = Tensor::Constant(Matrix::Randn(4, 3, rng));
  Tensor out = layer.Forward(h, g.GcnNormalized());
  EXPECT_EQ(out.rows(), 4u);
  EXPECT_EQ(out.cols(), 5u);
}

TEST(GcnLayerTest, MixesNeighborInformation) {
  Rng rng(2);
  Graph g = Path4();
  GcnLayer layer(2, 2, rng);
  // Node 3's input is zero; after one conv its output must be nonzero
  // because neighbor 2 has nonzero features (plus bias, so compare against a
  // disconnected graph instead).
  Matrix x(4, 2);
  x(2, 0) = 5.0;
  Tensor h = Tensor::Constant(x);
  Tensor connected = layer.Forward(h, g.GcnNormalized());
  Graph empty(4);
  Tensor isolated = layer.Forward(h, empty.GcnNormalized());
  // Node 3 differs between the two graphs only through message passing.
  EXPECT_FALSE(connected.value().Row(3).AllClose(isolated.value().Row(3), 1e-9));
}

TEST(GcnLayerTest, GradCheck) {
  Rng rng(3);
  Graph g = Path4();
  SparseMatrix adj = g.GcnNormalized();
  GcnLayer layer(3, 2, rng);
  Tensor h = Tensor::Constant(Matrix::Randn(4, 3, rng));
  testing::ExpectGradientsMatch(layer.Parameters(), [&] {
    return ops::SumSquares(ops::Tanh(layer.Forward(h, adj)));
  });
}

TEST(SageLayerTest, SelfTermSurvivesIsolation) {
  Rng rng(4);
  Graph empty(3);
  SageLayer layer(2, 2, rng);
  Tensor h = Tensor::Constant(Matrix::Randn(3, 2, rng));
  Tensor out = layer.Forward(h, empty.RowNormalized());
  // With no neighbors, output is the self transform only — not all zero.
  EXPECT_GT(out.value().MaxAbs(), 0.0);
}

TEST(SageLayerTest, GradCheck) {
  Rng rng(5);
  Graph g = Path4();
  SparseMatrix adj = g.RowNormalized();
  SageLayer layer(3, 2, rng);
  Tensor h = Tensor::Constant(Matrix::Randn(4, 3, rng));
  testing::ExpectGradientsMatch(layer.Parameters(), [&] {
    return ops::SumSquares(ops::Tanh(layer.Forward(h, adj)));
  });
}

// GAT, GIN and APPNP hold parameters only; their forward is one case of
// InstanceGraphGnn's encoder. These behaviour checks score a briefly fitted
// model through ScoreOnGraph on small hand-made graphs (the gradients are
// checked per backbone in gradcheck_test.cc).
std::unique_ptr<InstanceGraphGnn> FitSmall(
    GnnBackbone backbone, InstanceGraphGnnOptions options = {}) {
  TabularDataset data = MakeClusters({.num_rows = 40,
                                      .num_classes = 2,
                                      .dim_informative = 3,
                                      .dim_noise = 0,
                                      .seed = 5});
  options.backbone = backbone;
  options.knn.k = 4;
  options.train.max_epochs = 5;
  auto model = std::make_unique<InstanceGraphGnn>(options);
  Rng rng(6);
  EXPECT_TRUE(
      model->Fit(data, StratifiedSplit(data.class_labels(), 0.5, 0.2, rng))
          .ok());
  return model;
}

// The first `n` featurized training rows.
Matrix FirstRows(const InstanceGraphGnn& model, size_t n) {
  std::vector<size_t> rows(n);
  std::iota(rows.begin(), rows.end(), size_t{0});
  return model.feature_cache().GatherRows(rows);
}

TEST(GatLayerTest, OutputShapeMultiHead) {
  InstanceGraphGnnOptions options;
  options.hidden_dim = 6;
  options.gat_heads = 2;
  std::unique_ptr<InstanceGraphGnn> model =
      FitSmall(GnnBackbone::kGat, options);
  StatusOr<Matrix> emb = model->Embeddings();
  ASSERT_TRUE(emb.ok()) << emb.status().ToString();
  EXPECT_EQ(emb->rows(), 40u);
  EXPECT_EQ(emb->cols(), 6u);
}

TEST(GatLayerTest, SelfLoopsAddedForIsolatedNodes) {
  // With no edges every node attends to its self-loop alone.
  std::unique_ptr<InstanceGraphGnn> model = FitSmall(GnnBackbone::kGat);
  StatusOr<Matrix> scores = model->ScoreOnGraph(FirstRows(*model, 3), Graph(3));
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  for (size_t r = 0; r < scores->rows(); ++r) {
    for (size_t c = 0; c < scores->cols(); ++c) {
      EXPECT_TRUE(std::isfinite((*scores)(r, c))) << r << "," << c;
    }
    EXPECT_GT(scores->Row(r).MaxAbs(), 0.0) << r;
  }
}

TEST(GinLayerTest, SumAggregationDistinguishesDegree) {
  // Star vs path: node 0 has degree 3 vs degree 1. Sum aggregation must
  // score node 0 differently even with identical features.
  std::unique_ptr<InstanceGraphGnn> model = FitSmall(GnnBackbone::kGin);
  Graph star = Graph::FromEdges(4, {{0, 1, 1.0}, {0, 2, 1.0}, {0, 3, 1.0}});
  const Matrix x = Matrix::Ones(4, model->feature_cache().cols());
  StatusOr<Matrix> hub = model->ScoreOnGraph(x, star);
  StatusOr<Matrix> end = model->ScoreOnGraph(x, Path4());
  ASSERT_TRUE(hub.ok() && end.ok());
  EXPECT_FALSE(hub->Row(0).AllClose(end->Row(0), 1e-9));
}

TEST(AppnpTest, AlphaOneIsIdentity) {
  // Teleport probability 1 keeps the MLP's output: the graph is ignored.
  InstanceGraphGnnOptions options;
  options.appnp_alpha = 1.0;
  std::unique_ptr<InstanceGraphGnn> model =
      FitSmall(GnnBackbone::kAppnp, options);
  const Matrix x = FirstRows(*model, 4);
  StatusOr<Matrix> on_path = model->ScoreOnGraph(x, Path4());
  StatusOr<Matrix> isolated = model->ScoreOnGraph(x, Graph(4));
  ASSERT_TRUE(on_path.ok() && isolated.ok());
  EXPECT_TRUE(on_path->AllClose(*isolated, 0.0));
}

TEST(AppnpTest, SmoothsTowardNeighbors) {
  // At the default teleport probability node 3 mixes in node 2's output.
  std::unique_ptr<InstanceGraphGnn> model = FitSmall(GnnBackbone::kAppnp);
  const Matrix x = FirstRows(*model, 4);
  StatusOr<Matrix> on_path = model->ScoreOnGraph(x, Path4());
  StatusOr<Matrix> isolated = model->ScoreOnGraph(x, Graph(4));
  ASSERT_TRUE(on_path.ok() && isolated.ok());
  EXPECT_FALSE(on_path->Row(3).AllClose(isolated->Row(3), 1e-9));
}

TEST(RgcnLayerTest, RelationsContributeSeparately) {
  Rng rng(13);
  // Two relations with disjoint edges.
  Graph r0 = Graph::FromEdges(3, {{0, 1, 1.0}});
  Graph r1 = Graph::FromEdges(3, {{1, 2, 1.0}});
  RgcnLayer layer(2, 2, 2, rng);
  std::vector<SparseMatrix> rel_ops = {r0.RowNormalized(), r1.RowNormalized()};
  Matrix x(3, 2);
  x(0, 0) = 1.0;
  Tensor h = Tensor::Constant(x);
  Tensor out = layer.Forward(h, rel_ops);
  // Zeroing relation 0 changes node 1's output (its only incoming message).
  std::vector<SparseMatrix> no_r0 = {Graph(3).RowNormalized(),
                                     r1.RowNormalized()};
  Tensor out2 = layer.Forward(h, no_r0);
  EXPECT_FALSE(out.value().Row(1).AllClose(out2.value().Row(1), 1e-9));
}

TEST(RgcnLayerTest, GradCheck) {
  Rng rng(14);
  Graph r0 = Graph::FromEdges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  Graph r1 = Graph::FromEdges(4, {{0, 3, 1.0}});
  RgcnLayer layer(2, 3, 2, rng);
  std::vector<SparseMatrix> rel_ops = {r0.RowNormalized(), r1.RowNormalized()};
  Tensor h = Tensor::Constant(Matrix::Randn(4, 2, rng));
  testing::ExpectGradientsMatch(layer.Parameters(), [&] {
    return ops::SumSquares(ops::Tanh(layer.Forward(h, rel_ops)));
  });
}

TEST(GrapeConvTest, UpdatesBothSides) {
  Rng rng(15);
  BipartiteGraph g = BipartiteGraph::FromEdges(
      2, 3, {{0, 0, 1.0}, {0, 1, -2.0}, {1, 2, 0.5}});
  GrapeConv conv(4, 3, 5, rng);
  Tensor hl = Tensor::Constant(Matrix::Randn(2, 4, rng));
  Tensor hr = Tensor::Constant(Matrix::Randn(3, 3, rng));
  auto [nl, nr] = conv.Forward(hl, hr, g);
  EXPECT_EQ(nl.rows(), 2u);
  EXPECT_EQ(nl.cols(), 5u);
  EXPECT_EQ(nr.rows(), 3u);
  EXPECT_EQ(nr.cols(), 5u);
}

TEST(GrapeConvTest, EdgeValueInfluencesMessages) {
  Rng rng(16);
  GrapeConv conv(2, 2, 3, rng);
  Tensor hl = Tensor::Constant(Matrix::Ones(1, 2));
  Tensor hr = Tensor::Constant(Matrix::Ones(1, 2));
  BipartiteGraph g1 = BipartiteGraph::FromEdges(1, 1, {{0, 0, 1.0}});
  BipartiteGraph g2 = BipartiteGraph::FromEdges(1, 1, {{0, 0, 5.0}});
  auto [a1, r1] = conv.Forward(hl, hr, g1);
  auto [a2, r2] = conv.Forward(hl, hr, g2);
  (void)r1;
  (void)r2;
  EXPECT_FALSE(a1.value().AllClose(a2.value(), 1e-9));
}

TEST(GrapeConvTest, GradCheck) {
  Rng rng(17);
  BipartiteGraph g = BipartiteGraph::FromEdges(
      3, 2, {{0, 0, 1.0}, {1, 0, 2.0}, {1, 1, -1.0}, {2, 1, 0.5}});
  GrapeConv conv(2, 2, 3, rng);
  Tensor hl = Tensor::Constant(Matrix::Randn(3, 2, rng));
  Tensor hr = Tensor::Constant(Matrix::Randn(2, 2, rng));
  testing::ExpectGradientsMatch(conv.Parameters(), [&] {
    auto [nl, nr] = conv.Forward(hl, hr, g);
    return ops::Add(ops::SumSquares(ops::Tanh(nl)),
                    ops::SumSquares(ops::Tanh(nr)));
  });
}

TEST(HypergraphConvTest, ShapesAndGradCheck) {
  Rng rng(18);
  Hypergraph hg = Hypergraph::FromHyperedges(5, {{0, 1, 2}, {2, 3}, {3, 4}});
  auto operators = HypergraphConvLayer::BuildOperators(hg);
  HypergraphConvLayer layer(3, 2, rng);
  Tensor h = Tensor::Constant(Matrix::Randn(5, 3, rng));
  Tensor out = layer.Forward(h, operators);
  EXPECT_EQ(out.rows(), 5u);
  EXPECT_EQ(out.cols(), 2u);
  Tensor edge_emb = layer.EdgeEmbeddings(h, operators);
  EXPECT_EQ(edge_emb.rows(), 3u);
  testing::ExpectGradientsMatch(layer.Parameters(), [&] {
    return ops::SumSquares(ops::Tanh(layer.Forward(h, operators)));
  });
}

TEST(ReadoutTest, MeanSumMaxValues) {
  Tensor h = Tensor::Constant(Matrix::FromRows({{1, 4}, {3, 2}}));
  EXPECT_NEAR(Readout(h, ReadoutType::kMean).value()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(Readout(h, ReadoutType::kSum).value()(0, 1), 6.0, 1e-12);
  EXPECT_NEAR(Readout(h, ReadoutType::kMax).value()(0, 1), 4.0, 1e-12);
}

TEST(ReadoutTest, PermutationInvariance) {
  Rng rng(19);
  Matrix x = Matrix::Randn(6, 3, rng);
  std::vector<size_t> perm = rng.Permutation(6);
  Matrix xp = x.GatherRows(perm);
  for (ReadoutType t :
       {ReadoutType::kMean, ReadoutType::kSum, ReadoutType::kMax}) {
    Tensor a = Readout(Tensor::Constant(x), t);
    Tensor b = Readout(Tensor::Constant(xp), t);
    EXPECT_TRUE(a.value().AllClose(b.value(), 1e-12))
        << "readout " << ReadoutTypeName(t);
  }
}

TEST(ReadoutTest, SegmentReadoutRoutesBySegment) {
  Tensor h = Tensor::Constant(Matrix::FromRows({{1}, {3}, {10}}));
  Tensor out = SegmentReadout(h, {0, 0, 1}, 2, ReadoutType::kMean);
  EXPECT_NEAR(out.value()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(out.value()(1, 0), 10.0, 1e-12);
}

TEST(ReadoutTest, NamesRoundTrip) {
  for (ReadoutType t :
       {ReadoutType::kMean, ReadoutType::kSum, ReadoutType::kMax}) {
    EXPECT_EQ(ReadoutTypeFromName(ReadoutTypeName(t)), t);
  }
}

TEST(GnnIntegrationTest, TwoLayerGcnLearnsCommunityLabels) {
  // Two dense communities with a single bridge; features are pure noise, so
  // only the graph separates the classes. A 2-layer GCN trained on 2 labeled
  // nodes per community should classify the rest (semi-supervised learning,
  // Section 2.5d).
  Rng rng(20);
  std::vector<Edge> edges;
  const size_t half = 10;
  for (size_t i = 0; i < half; ++i)
    for (size_t j = i + 1; j < half; ++j) {
      edges.push_back({i, j, 1.0});
      edges.push_back({half + i, half + j, 1.0});
    }
  edges.push_back({0, half, 1.0});  // bridge
  Graph g = Graph::FromEdges(2 * half, edges);
  SparseMatrix adj = g.GcnNormalized();

  // One-hot node ids as features (standard featureless-GCN trick).
  Matrix x = Matrix::Identity(2 * half);
  Tensor h = Tensor::Constant(x);
  std::vector<int> labels(2 * half);
  for (size_t i = 0; i < 2 * half; ++i) labels[i] = i < half ? 0 : 1;
  std::vector<double> mask(2 * half, 0.0);
  mask[1] = mask[2] = mask[half + 1] = mask[half + 2] = 1.0;

  GcnLayer l1(2 * half, 8, rng);
  GcnLayer l2(8, 2, rng);
  std::vector<Tensor> params = l1.Parameters();
  for (const Tensor& p : l2.Parameters()) params.push_back(p);
  Adam opt(params, 0.05);

  for (int epoch = 0; epoch < 150; ++epoch) {
    opt.ZeroGrad();
    Tensor logits = l2.Forward(ops::Relu(l1.Forward(h, adj)), adj);
    ops::SoftmaxCrossEntropy(logits, labels, mask).Backward();
    opt.Step();
  }
  Tensor logits = l2.Forward(ops::Relu(l1.Forward(h, adj)), adj);
  size_t correct = 0;
  for (size_t i = 0; i < 2 * half; ++i)
    if (static_cast<int>(logits.value().ArgMaxRow(i)) == labels[i]) ++correct;
  EXPECT_GE(correct, 18u);
}

}  // namespace
}  // namespace gnn4tdl
