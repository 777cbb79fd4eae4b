// Finite-difference gradient checks for every differentiable op in nn/ops.h
// and for the taped encoder of every served model configuration. These are
// the load-bearing correctness tests for the autograd engine: if a backward
// formula is wrong, training everywhere else silently degrades.

#include <vector>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "models/knn_gnn.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "gradcheck_util.h"
#include "served_configs.h"

namespace gnn4tdl {

/// Reaches the taped forward that InstanceGraphGnn trains through.
struct InstanceGraphGnnTestPeer {
  static std::vector<Tensor> Parameters(const InstanceGraphGnn& m) {
    return m.TrainedParameters();
  }
  /// Eval mode: no dropout masks, so repeated calls agree.
  static Tensor Logits(const InstanceGraphGnn& m, const Tensor& x) {
    return m.head_->Forward(m.Encode(x, /*training=*/false));
  }
};

namespace {

using testing::ExpectGradientsMatch;

Tensor RandLeaf(size_t r, size_t c, Rng& rng) {
  return Tensor::Leaf(Matrix::Randn(r, c, rng), /*requires_grad=*/true);
}

TEST(GradCheck, Add) {
  Rng rng(1);
  Tensor a = RandLeaf(3, 4, rng), b = RandLeaf(3, 4, rng);
  ExpectGradientsMatch({a, b},
                       [&] { return ops::SumSquares(ops::Add(a, b)); });
}

TEST(GradCheck, Sub) {
  Rng rng(2);
  Tensor a = RandLeaf(2, 3, rng), b = RandLeaf(2, 3, rng);
  ExpectGradientsMatch({a, b},
                       [&] { return ops::SumSquares(ops::Sub(a, b)); });
}

TEST(GradCheck, CwiseMul) {
  Rng rng(3);
  Tensor a = RandLeaf(3, 3, rng), b = RandLeaf(3, 3, rng);
  ExpectGradientsMatch({a, b},
                       [&] { return ops::SumSquares(ops::CwiseMul(a, b)); });
}

TEST(GradCheck, ScaleAndAddScalar) {
  Rng rng(4);
  Tensor a = RandLeaf(2, 2, rng);
  ExpectGradientsMatch({a}, [&] {
    return ops::SumSquares(ops::AddScalar(ops::Scale(a, -2.5), 0.7));
  });
}

TEST(GradCheck, AddRowBroadcast) {
  Rng rng(5);
  Tensor a = RandLeaf(4, 3, rng), b = RandLeaf(1, 3, rng);
  ExpectGradientsMatch(
      {a, b}, [&] { return ops::SumSquares(ops::AddRowBroadcast(a, b)); });
}

TEST(GradCheck, MulColBroadcast) {
  Rng rng(6);
  Tensor a = RandLeaf(4, 3, rng), w = RandLeaf(4, 1, rng);
  ExpectGradientsMatch(
      {a, w}, [&] { return ops::SumSquares(ops::MulColBroadcast(a, w)); });
}

TEST(GradCheck, LeakyRelu) {
  Rng rng(7);
  Tensor a = RandLeaf(4, 4, rng);
  ExpectGradientsMatch(
      {a}, [&] { return ops::SumSquares(ops::LeakyRelu(a, 0.1)); });
}

TEST(GradCheck, Sigmoid) {
  Rng rng(8);
  Tensor a = RandLeaf(3, 3, rng);
  ExpectGradientsMatch({a},
                       [&] { return ops::SumSquares(ops::Sigmoid(a)); });
}

TEST(GradCheck, Tanh) {
  Rng rng(9);
  Tensor a = RandLeaf(3, 3, rng);
  ExpectGradientsMatch({a}, [&] { return ops::SumSquares(ops::Tanh(a)); });
}

TEST(GradCheck, Exp) {
  Rng rng(10);
  Tensor a = RandLeaf(2, 3, rng);
  ExpectGradientsMatch({a}, [&] { return ops::SumSquares(ops::Exp(a)); });
}

TEST(GradCheck, Log) {
  Rng rng(11);
  // Strictly positive inputs.
  Tensor a = Tensor::Leaf(Matrix::Rand(3, 3, rng, 0.5, 2.0), true);
  ExpectGradientsMatch({a}, [&] { return ops::SumSquares(ops::Log(a)); });
}

TEST(GradCheck, ConcatCols) {
  Rng rng(12);
  Tensor a = RandLeaf(3, 2, rng), b = RandLeaf(3, 4, rng);
  ExpectGradientsMatch(
      {a, b}, [&] { return ops::SumSquares(ops::ConcatCols(a, b)); });
}

TEST(GradCheck, ReshapeAndTranspose) {
  Rng rng(13);
  Tensor a = RandLeaf(3, 4, rng);
  ExpectGradientsMatch({a}, [&] {
    return ops::SumSquares(ops::Transpose(ops::Reshape(a, 4, 3)));
  });
}

TEST(GradCheck, MatMul) {
  Rng rng(14);
  Tensor a = RandLeaf(3, 4, rng), b = RandLeaf(4, 2, rng);
  ExpectGradientsMatch({a, b},
                       [&] { return ops::SumSquares(ops::MatMul(a, b)); });
}

TEST(GradCheck, SpMM) {
  Rng rng(15);
  SparseMatrix sp = SparseMatrix::FromTriplets(
      4, 4,
      {{0, 1, 1.5}, {1, 0, -0.5}, {2, 3, 2.0}, {3, 3, 1.0}, {0, 2, 0.3}});
  Tensor x = RandLeaf(4, 3, rng);
  ExpectGradientsMatch({x}, [&] { return ops::SumSquares(ops::SpMM(sp, x)); });
}

TEST(GradCheck, GatherRows) {
  Rng rng(16);
  Tensor x = RandLeaf(5, 3, rng);
  std::vector<size_t> idx = {4, 0, 0, 2};
  ExpectGradientsMatch(
      {x}, [&] { return ops::SumSquares(ops::GatherRows(x, idx)); });
}

TEST(GradCheck, ScatterAddRows) {
  Rng rng(17);
  Tensor x = RandLeaf(6, 2, rng);
  std::vector<size_t> idx = {0, 1, 1, 3, 3, 3};
  ExpectGradientsMatch(
      {x}, [&] { return ops::SumSquares(ops::ScatterAddRows(x, idx, 4)); });
}

TEST(GradCheck, EdgeSoftmax) {
  Rng rng(18);
  Tensor logits = RandLeaf(6, 1, rng);
  std::vector<size_t> dst = {0, 0, 1, 1, 1, 2};
  ExpectGradientsMatch({logits}, [&] {
    // Weight the softmax outputs to make the loss sensitive to each entry.
    Tensor w = ops::EdgeSoftmax(logits, dst, 3);
    Tensor coefs = Tensor::Constant(Matrix::FromRows(
        {{1.0}, {2.0}, {-1.0}, {0.5}, {3.0}, {1.5}}));
    return ops::SumSquares(ops::CwiseMul(w, coefs));
  });
}

TEST(GradCheck, RowL2Normalize) {
  Rng rng(19);
  Tensor x = RandLeaf(4, 3, rng);
  Tensor coefs = Tensor::Constant(Matrix::Randn(4, 3, rng));
  ExpectGradientsMatch({x}, [&] {
    return ops::SumSquares(ops::CwiseMul(ops::RowL2Normalize(x), coefs));
  });
}

TEST(GradCheck, SegmentMeanRows) {
  Rng rng(20);
  Tensor x = RandLeaf(5, 2, rng);
  std::vector<size_t> seg = {0, 0, 1, 2, 2};
  ExpectGradientsMatch(
      {x}, [&] { return ops::SumSquares(ops::SegmentMeanRows(x, seg, 3)); });
}

TEST(GradCheck, SegmentMaxRows) {
  Rng rng(21);
  Tensor x = RandLeaf(5, 2, rng);
  std::vector<size_t> seg = {0, 0, 1, 2, 2};
  ExpectGradientsMatch(
      {x}, [&] { return ops::SumSquares(ops::SegmentMaxRows(x, seg, 3)); });
}

TEST(GradCheck, SumAbs) {
  Rng rng(22);
  Tensor x = RandLeaf(3, 3, rng);
  // Keep entries away from zero where |x| is non-differentiable.
  x.mutable_value() =
      x.value().Map([](double v) { return v >= 0 ? v + 0.5 : v - 0.5; });
  ExpectGradientsMatch({x}, [&] { return ops::SumAbs(x); });
}

TEST(GradCheck, MeanAll) {
  Rng rng(23);
  Tensor x = RandLeaf(4, 5, rng);
  ExpectGradientsMatch({x}, [&] { return ops::MeanAll(x); });
}

TEST(GradCheck, SoftmaxRows) {
  Rng rng(24);
  Tensor x = RandLeaf(3, 4, rng);
  Tensor coefs = Tensor::Constant(Matrix::Randn(3, 4, rng));
  ExpectGradientsMatch({x}, [&] {
    return ops::SumSquares(ops::CwiseMul(ops::SoftmaxRows(x), coefs));
  });
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  Rng rng(25);
  Tensor logits = RandLeaf(5, 3, rng);
  std::vector<int> labels = {0, 2, 1, 1, 0};
  std::vector<double> weights = {1.0, 0.0, 2.0, 1.0, 0.5};
  ExpectGradientsMatch(
      {logits},
      [&] { return ops::SoftmaxCrossEntropy(logits, labels, weights); });
}

TEST(GradCheck, MseLoss) {
  Rng rng(26);
  Tensor pred = RandLeaf(4, 2, rng);
  Matrix target = Matrix::Randn(4, 2, rng);
  std::vector<double> weights = {1.0, 0.0, 0.5, 2.0};
  ExpectGradientsMatch(
      {pred}, [&] { return ops::MseLoss(pred, target, weights); });
}

TEST(GradCheck, BceWithLogits) {
  Rng rng(27);
  Tensor pred = RandLeaf(5, 1, rng);
  std::vector<double> targets = {1, 0, 1, 1, 0};
  std::vector<double> weights = {1.0, 1.0, 0.0, 2.0, 0.5};
  ExpectGradientsMatch(
      {pred}, [&] { return ops::BceWithLogits(pred, targets, weights); });
}

TEST(GradCheck, Abs) {
  Rng rng(40);
  Tensor a = RandLeaf(3, 3, rng);
  // Keep away from the kink at 0.
  a.mutable_value() =
      a.value().Map([](double v) { return v >= 0 ? v + 0.3 : v - 0.3; });
  ExpectGradientsMatch({a}, [&] { return ops::SumSquares(ops::Abs(a)); });
}

TEST(GradCheck, ConcatRows) {
  Rng rng(41);
  Tensor a = RandLeaf(2, 3, rng), b = RandLeaf(4, 3, rng), c = RandLeaf(1, 3, rng);
  ExpectGradientsMatch({a, b, c}, [&] {
    return ops::SumSquares(ops::ConcatRows({a, b, c}));
  });
}

TEST(GradCheck, LayerNormRows) {
  Rng rng(42);
  Tensor x = RandLeaf(4, 5, rng);
  Tensor gamma = Tensor::Leaf(Matrix::Rand(1, 5, rng, 0.5, 1.5), true);
  Tensor beta = RandLeaf(1, 5, rng);
  Tensor coefs = Tensor::Constant(Matrix::Randn(4, 5, rng));
  ExpectGradientsMatch({x, gamma, beta}, [&] {
    return ops::SumSquares(
        ops::CwiseMul(ops::LayerNormRows(x, gamma, beta), coefs));
  });
}

TEST(GradCheck, MlpEndToEnd) {
  Rng rng(28);
  Mlp mlp({3, 5, 2}, rng, Activation::kTanh);
  Tensor x = Tensor::Constant(Matrix::Randn(6, 3, rng));
  std::vector<int> labels = {0, 1, 0, 1, 1, 0};
  std::vector<Tensor> params = mlp.Parameters();
  ExpectGradientsMatch(params, [&] {
    return ops::SoftmaxCrossEntropy(mlp.Forward(x), labels);
  });
}

TEST(GradCheck, WeightedSpMM) {
  // Same edge-weighted aggregation as the GAT layer: a fixed CSR pattern
  // (row = dst, col = src) whose values come from a differentiable E x 1
  // weight tensor. Gradients must flow to both the weights and the features.
  Rng rng(31);
  Tensor w = RandLeaf(5, 1, rng);
  Tensor x = RandLeaf(4, 3, rng);
  std::vector<size_t> src = {0, 1, 2, 3, 1};
  std::vector<size_t> dst = {1, 0, 1, 2, 2};
  const size_t n = 4, num_edges = src.size();
  std::vector<size_t> row_ptr(n + 1, 0);
  for (size_t e = 0; e < num_edges; ++e) ++row_ptr[dst[e] + 1];
  for (size_t v = 0; v < n; ++v) row_ptr[v + 1] += row_ptr[v];
  std::vector<size_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  std::vector<size_t> col_idx(num_edges), slot(num_edges);
  for (size_t e = 0; e < num_edges; ++e) {
    slot[e] = cursor[dst[e]]++;
    col_idx[slot[e]] = src[e];
  }
  SparseMatrix pattern = SparseMatrix::FromCsr(
      n, n, row_ptr, col_idx, std::vector<double>(num_edges, 0.0));
  ExpectGradientsMatch({w, x}, [&] {
    return ops::SumSquares(
        ops::WeightedSpMM(w, x, pattern, slot, src, dst));
  });
}

TEST(GradCheck, CompositeGnnLikeComputation) {
  // A GAT-flavored composite: gather endpoints, edge logits, edge softmax,
  // weighted scatter — exercises interactions between the edge ops.
  Rng rng(29);
  Tensor h = RandLeaf(4, 3, rng);
  Tensor a_src = RandLeaf(3, 1, rng);
  std::vector<size_t> src = {0, 1, 2, 3, 1};
  std::vector<size_t> dst = {1, 0, 1, 2, 2};
  ExpectGradientsMatch({h, a_src}, [&] {
    Tensor logits = ops::GatherRows(ops::MatMul(h, a_src), src);
    Tensor alpha = ops::EdgeSoftmax(ops::LeakyRelu(logits), dst, 4);
    Tensor msg = ops::MulColBroadcast(ops::GatherRows(h, src), alpha);
    Tensor out = ops::ScatterAddRows(msg, dst, 4);
    return ops::SumSquares(out);
  });
}

// The taped encoder and head, the forward Fit trains through, for each
// served configuration: every parameter of a briefly fitted small model.
class EncoderGradCheckTest : public ::testing::TestWithParam<ServedConfig> {};

TEST_P(EncoderGradCheckTest, MatchesFiniteDifferences) {
  TabularDataset data = MakeClusters({.num_rows = 16,
                                      .num_classes = 2,
                                      .dim_informative = 3,
                                      .dim_noise = 0,
                                      .seed = 31});
  InstanceGraphGnnOptions options;
  ApplyServedConfig(GetParam(), &options);
  options.hidden_dim = 4;
  options.gat_heads = 2;
  options.appnp_steps = 3;
  options.knn.k = 4;
  options.train.max_epochs = 2;
  InstanceGraphGnn model(options);
  Rng rng(32);
  ASSERT_TRUE(
      model.Fit(data, StratifiedSplit(data.class_labels(), 0.5, 0.2, rng))
          .ok());
  const Tensor x = Tensor::Constant(model.feature_cache());
  ExpectGradientsMatch(InstanceGraphGnnTestPeer::Parameters(model), [&] {
    return ops::SumSquares(
        ops::Tanh(InstanceGraphGnnTestPeer::Logits(model, x)));
  });
}

INSTANTIATE_TEST_SUITE_P(Configs, EncoderGradCheckTest,
                         ::testing::ValuesIn(AllServedConfigs()),
                         [](const auto& info) {
                           return ServedConfigName(info.param);
                         });

}  // namespace
}  // namespace gnn4tdl
