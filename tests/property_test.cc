// Property-based tests: invariants checked across parameterized sweeps of
// random instances (TEST_P / INSTANTIATE_TEST_SUITE_P), complementing the
// example-based suites.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "construct/rule_based.h"
#include "data/split.h"
#include "data/transforms.h"
#include "data/synthetic.h"
#include "gnn/readout.h"
#include "graph/graph.h"
#include "nn/optimizer.h"
#include "nn/ops.h"

namespace gnn4tdl {
namespace {

// --- kNN graph invariants across (k, metric) --------------------------------

class KnnGraphProperty
    : public ::testing::TestWithParam<std::tuple<size_t, SimilarityMetric>> {};

TEST_P(KnnGraphProperty, StructuralInvariants) {
  auto [k, metric] = GetParam();
  Rng rng(1234 + k);
  Matrix x = Matrix::Randn(60, 5, rng);
  Graph g = KnnGraph(x, {.k = k, .metric = metric});

  EXPECT_TRUE(g.IsSymmetric());
  std::vector<double> deg = g.Degrees();
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    EXPECT_FALSE(g.HasEdge(v, v));
    // Union symmetrization: every node keeps at least its own k neighbors.
    EXPECT_GE(deg[v], static_cast<double>(std::min<size_t>(k, 59)));
  }
  // Deterministic for identical inputs.
  Graph g2 = KnnGraph(x, {.k = k, .metric = metric});
  EXPECT_TRUE(
      g2.adjacency().ToDense().AllClose(g.adjacency().ToDense(), 0.0));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnGraphProperty,
    ::testing::Combine(::testing::Values(1u, 3u, 7u, 15u),
                       ::testing::Values(SimilarityMetric::kEuclidean,
                                         SimilarityMetric::kCosine,
                                         SimilarityMetric::kRbf)));

// --- GCN normalization spectral bound across random graphs ------------------

class GcnNormProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GcnNormProperty, SpectralRadiusAtMostOne) {
  Rng rng(GetParam());
  const size_t n = 40;
  std::vector<Edge> edges;
  for (int e = 0; e < 120; ++e) {
    size_t a = static_cast<size_t>(rng.Int(0, n - 1));
    size_t b = static_cast<size_t>(rng.Int(0, n - 1));
    if (a != b) edges.push_back({a, b, 1.0});
  }
  Graph g = Graph::FromEdges(n, edges);
  SparseMatrix norm = g.GcnNormalized();

  // Power iteration estimates the top eigenvalue of the symmetric operator.
  Matrix v = Matrix::Randn(n, 1, rng);
  v *= 1.0 / v.Norm();
  double eig = 0.0;
  for (int it = 0; it < 100; ++it) {
    Matrix w = norm.Multiply(v);
    eig = w.Norm();
    if (eig < 1e-12) break;
    v = w * (1.0 / eig);
  }
  EXPECT_LE(eig, 1.0 + 1e-9);
}

TEST_P(GcnNormProperty, OperatorIsSymmetric) {
  Rng rng(GetParam() + 1000);
  const size_t n = 25;
  std::vector<Edge> edges;
  for (int e = 0; e < 60; ++e) {
    size_t a = static_cast<size_t>(rng.Int(0, n - 1));
    size_t b = static_cast<size_t>(rng.Int(0, n - 1));
    if (a != b) edges.push_back({a, b, rng.Uniform(0.1, 2.0)});
  }
  Graph g = Graph::FromEdges(n, edges);
  Matrix dense = g.GcnNormalized().ToDense();
  EXPECT_TRUE(dense.AllClose(dense.Transpose(), 1e-12));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcnNormProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- Readout permutation invariance across types and seeds ------------------

class ReadoutProperty
    : public ::testing::TestWithParam<std::tuple<ReadoutType, uint64_t>> {};

TEST_P(ReadoutProperty, PermutationInvariant) {
  auto [type, seed] = GetParam();
  Rng rng(seed);
  Matrix x = Matrix::Randn(12, 4, rng);
  std::vector<size_t> perm = rng.Permutation(12);
  Tensor a = Readout(Tensor::Constant(x), type);
  Tensor b = Readout(Tensor::Constant(x.GatherRows(perm)), type);
  EXPECT_TRUE(a.value().AllClose(b.value(), 1e-12));
}

TEST_P(ReadoutProperty, SegmentReadoutMatchesPerSegmentWhole) {
  auto [type, seed] = GetParam();
  Rng rng(seed + 77);
  Matrix x = Matrix::Randn(9, 3, rng);
  // Segments: rows 0-2 -> 0, rows 3-8 -> 1.
  std::vector<size_t> seg = {0, 0, 0, 1, 1, 1, 1, 1, 1};
  Tensor combined = SegmentReadout(Tensor::Constant(x), seg, 2, type);
  Tensor first = Readout(Tensor::Constant(x.GatherRows({0, 1, 2})), type);
  EXPECT_TRUE(combined.value().Row(0).AllClose(first.value(), 1e-12));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReadoutProperty,
    ::testing::Combine(::testing::Values(ReadoutType::kMean, ReadoutType::kSum,
                                         ReadoutType::kMax),
                       ::testing::Values(10u, 20u, 30u)));

// --- Adam convergence across learning rates ---------------------------------

class OptimizerProperty : public ::testing::TestWithParam<double> {};

TEST_P(OptimizerProperty, ConvergesOnConvexQuadratic) {
  Rng rng(3);
  Tensor x = Tensor::Leaf(Matrix::Randn(2, 3, rng), true);
  Matrix target = Matrix::Randn(2, 3, rng);
  Adam opt({x}, GetParam());
  for (int i = 0; i < 2000; ++i) {
    opt.ZeroGrad();
    ops::SumSquares(ops::Sub(x, Tensor::Constant(target))).Backward();
    opt.Step();
  }
  EXPECT_TRUE(x.value().AllClose(target, 1e-2));
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptimizerProperty,
                         ::testing::Values(0.01, 0.05));

// --- Softmax cross-entropy properties across random logits ------------------

class SoftmaxProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SoftmaxProperty, ProbabilitiesFormDistribution) {
  Rng rng(GetParam());
  Tensor logits = Tensor::Constant(Matrix::Randn(8, 5, rng, 3.0));
  Tensor probs = ops::SoftmaxRows(logits);
  for (size_t r = 0; r < 8; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < 5; ++c) {
      EXPECT_GE(probs.value()(r, c), 0.0);
      sum += probs.value()(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST_P(SoftmaxProperty, LossDecreasesWhenTrueLogitGrows) {
  Rng rng(GetParam() + 50);
  Matrix base = Matrix::Randn(4, 3, rng);
  std::vector<int> labels = {0, 1, 2, 0};
  Tensor l1 = Tensor::Constant(base);
  Matrix boosted = base;
  for (size_t r = 0; r < 4; ++r)
    boosted(r, static_cast<size_t>(labels[r])) += 1.0;
  Tensor l2 = Tensor::Constant(boosted);
  EXPECT_LT(ops::SoftmaxCrossEntropy(l2, labels).value()(0, 0),
            ops::SoftmaxCrossEntropy(l1, labels).value()(0, 0));
}

TEST_P(SoftmaxProperty, ShiftInvariance) {
  Rng rng(GetParam() + 100);
  Matrix base = Matrix::Randn(4, 3, rng);
  Matrix shifted = base.Map([](double v) { return v + 100.0; });
  std::vector<int> labels = {2, 0, 1, 1};
  double a = ops::SoftmaxCrossEntropy(Tensor::Constant(base), labels)
                 .value()(0, 0);
  double b = ops::SoftmaxCrossEntropy(Tensor::Constant(shifted), labels)
                 .value()(0, 0);
  EXPECT_NEAR(a, b, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftmaxProperty,
                         ::testing::Values(1u, 2u, 3u, 4u));

// --- Split partition property across (n, fractions) -------------------------

class SplitProperty
    : public ::testing::TestWithParam<std::tuple<size_t, double, double>> {};

TEST_P(SplitProperty, PartitionsWithoutOverlap) {
  auto [n, train_frac, val_frac] = GetParam();
  Rng rng(7);
  Split s = RandomSplit(n, train_frac, val_frac, rng);
  std::vector<int> seen(n, 0);
  for (size_t i : s.train) seen[i]++;
  for (size_t i : s.val) seen[i]++;
  for (size_t i : s.test) seen[i]++;
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST_P(SplitProperty, StratifiedKeepsEveryClassInTrain) {
  auto [n, train_frac, val_frac] = GetParam();
  Rng rng(8);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 3);
  Split s = StratifiedSplit(labels, train_frac, val_frac, rng);
  std::vector<bool> present(3, false);
  for (size_t i : s.train) present[static_cast<size_t>(labels[i])] = true;
  for (bool p : present) EXPECT_TRUE(p);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SplitProperty,
    ::testing::Combine(::testing::Values(30u, 100u, 307u),
                       ::testing::Values(0.2, 0.6),
                       ::testing::Values(0.1, 0.2)));

// --- Featurizer determinism & schema stability ------------------------------

class FeaturizerProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FeaturizerProperty, TransformIsDeterministicAndSchemaStable) {
  TabularDataset data = MakeMultiRelational({.num_rows = 80,
                                             .num_relations = 2,
                                             .cardinality = 6,
                                             .seed = GetParam()});
  Featurizer f1, f2;
  auto a = f1.FitTransform(data);
  auto b = f2.FitTransform(data);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->AllClose(*b, 0.0));
  EXPECT_EQ(f1.OutputDim(), f2.OutputDim());
  EXPECT_EQ(f1.OutputToSourceColumn().size(), f1.OutputDim());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeaturizerProperty,
                         ::testing::Values(11u, 22u, 33u));

// --- Edge softmax is a per-group distribution, any grouping -----------------

class EdgeSoftmaxProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EdgeSoftmaxProperty, GroupsSumToOne) {
  Rng rng(GetParam());
  const size_t e_count = 30;
  const size_t groups = 5;
  std::vector<size_t> dst(e_count);
  for (size_t e = 0; e < e_count; ++e)
    dst[e] = static_cast<size_t>(rng.Int(0, groups - 1));
  Tensor logits = Tensor::Constant(Matrix::Randn(e_count, 1, rng, 5.0));
  Tensor w = ops::EdgeSoftmax(logits, dst, groups);
  std::vector<double> sums(groups, 0.0);
  std::vector<bool> nonempty(groups, false);
  for (size_t e = 0; e < e_count; ++e) {
    EXPECT_GE(w.value()(e, 0), 0.0);
    sums[dst[e]] += w.value()(e, 0);
    nonempty[dst[e]] = true;
  }
  for (size_t g = 0; g < groups; ++g) {
    if (nonempty[g]) {
      EXPECT_NEAR(sums[g], 1.0, 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdgeSoftmaxProperty,
                         ::testing::Values(5u, 6u, 7u, 8u));

}  // namespace
}  // namespace gnn4tdl
