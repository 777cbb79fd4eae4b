// Fused tape ops (nn/fused.h): each fused single node must be BIT-IDENTICAL
// to the explicit nn/ops composition it stands for — values and gradients —
// at whatever thread count the process runs with. The check.sh `fusion`
// stage re-runs this binary under GNN4TDL_THREADS=1 and =4 (and under asan),
// so the equality below is exercised at multiple thread counts; within one
// process the comparison is exact memcmp, not a tolerance.
//
// ops::MatMul, SpMM and Add are the fused nodes' no-bias, no-activation
// case, and the activation ops are the same epilogue over their input, so
// the compositions pin the bias add and the activation epilogue against
// AddRowBroadcast and the activation nodes; the activations themselves are
// pinned element by element against the kernels' scalar reference
// (kernels::detail::ActF64 / ActGradF64).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "kernels/kernels.h"
#include "models/knn_gnn.h"
#include "nn/fused.h"
#include "nn/ops.h"
#include "nn/tape_verifier.h"
#include "tensor/sparse.h"

namespace gnn4tdl {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r)
    for (size_t c = 0; c < cols; ++c) m(r, c) = rng.Normal(0.0, 1.0);
  return m;
}

SparseMatrix RandomSparse(size_t rows, size_t cols, double density, Rng& rng) {
  std::vector<Triplet> triplets;
  for (size_t r = 0; r < rows; ++r)
    for (size_t c = 0; c < cols; ++c)
      if (rng.Uniform(0.0, 1.0) < density)
        triplets.push_back({r, c, rng.Uniform(-1.0, 1.0)});
  return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
      << "matrices differ in bits";
}

constexpr Activation kActs[] = {Activation::kNone, Activation::kRelu,
                                Activation::kLeakyRelu, Activation::kSigmoid,
                                Activation::kTanh};

/// Runs the fused node and its explicit composition through a SumSquares
/// loss and asserts the forward value, the loss and every leaf gradient
/// match bit for bit.
void ExpectFusedMatchesUnfused(const std::vector<Tensor>& leaves,
                               const std::function<Tensor()>& fused_build,
                               const std::function<Tensor()>& composed_build) {
  Tensor fused_out = fused_build();
  Tensor fused_loss = ops::SumSquares(fused_out);
  for (const Tensor& leaf : leaves) leaf.ZeroGrad();
  fused_loss.Backward();
  Matrix fused_value = fused_out.value();
  std::vector<Matrix> fused_grads;
  for (const Tensor& leaf : leaves) fused_grads.push_back(leaf.grad());

  Tensor composed_out = composed_build();
  Tensor composed_loss = ops::SumSquares(composed_out);
  for (const Tensor& leaf : leaves) leaf.ZeroGrad();
  composed_loss.Backward();

  ExpectBitIdentical(fused_value, composed_out.value());
  ExpectBitIdentical(fused_loss.value(), composed_loss.value());
  for (size_t i = 0; i < leaves.size(); ++i)
    ExpectBitIdentical(fused_grads[i], leaves[i].grad());
}

TEST(FusionTest, LinearBiasActBitExact) {
  Rng rng(31);
  for (Activation act : kActs) {
    Tensor x = Tensor::Leaf(RandomMatrix(9, 7, rng), true);
    Tensor w = Tensor::Leaf(RandomMatrix(7, 5, rng), true);
    Tensor b = Tensor::Leaf(RandomMatrix(1, 5, rng), true);
    ExpectFusedMatchesUnfused(
        {x, w, b}, [&] { return fused::LinearBiasAct(x, w, b, act); },
        [&] {
          return Activate(ops::AddRowBroadcast(ops::MatMul(x, w), b), act);
        });
  }
}

TEST(FusionTest, LinearActWithoutBiasBitExact) {
  Rng rng(32);
  Tensor x = Tensor::Leaf(RandomMatrix(6, 4, rng), true);
  Tensor w = Tensor::Leaf(RandomMatrix(4, 3, rng), true);
  ExpectFusedMatchesUnfused(
      {x, w},
      [&] { return fused::LinearBiasAct(x, w, Tensor(), Activation::kRelu); },
      [&] { return ops::Relu(ops::MatMul(x, w)); });
}

TEST(FusionTest, SpmmBiasActBitExact) {
  Rng rng(33);
  SparseMatrix sp = RandomSparse(11, 11, 0.3, rng);
  for (Activation act : kActs) {
    Tensor x = Tensor::Leaf(RandomMatrix(11, 6, rng), true);
    Tensor b = Tensor::Leaf(RandomMatrix(1, 6, rng), true);
    ExpectFusedMatchesUnfused(
        {x, b}, [&] { return fused::SpmmBiasAct(sp, x, b, act); },
        [&] {
          return Activate(ops::AddRowBroadcast(ops::SpMM(sp, x), b), act);
        });
    ExpectFusedMatchesUnfused(
        {x}, [&] { return fused::SpmmBiasAct(sp, x, Tensor(), act); },
        [&] { return Activate(ops::SpMM(sp, x), act); });
  }
}

TEST(FusionTest, AddActBitExact) {
  Rng rng(34);
  for (Activation act : kActs) {
    Tensor a = Tensor::Leaf(RandomMatrix(8, 5, rng), true);
    Tensor b = Tensor::Leaf(RandomMatrix(8, 5, rng), true);
    ExpectFusedMatchesUnfused(
        {a, b}, [&] { return fused::AddAct(a, b, act); },
        [&] { return Activate(ops::Add(a, b), act); });
  }
}

TEST(FusionTest, GatherConcatBitExact) {
  Rng rng(35);
  Tensor a = Tensor::Leaf(RandomMatrix(7, 4, rng), true);
  Tensor b = Tensor::Leaf(RandomMatrix(5, 3, rng), true);
  // Repeated indices exercise the scatter-accumulate in the backward.
  std::vector<size_t> idx_a = {0, 3, 3, 6, 1, 0};
  std::vector<size_t> idx_b = {4, 4, 0, 2, 1, 1};
  ExpectFusedMatchesUnfused(
      {a, b}, [&] { return fused::GatherConcat(a, idx_a, b, idx_b); },
      [&] {
        return ops::ConcatCols(ops::GatherRows(a, idx_a),
                               ops::GatherRows(b, idx_b));
      });
}

TEST(FusionTest, NormalizeAggregateBitExact) {
  Rng rng(36);
  const size_t num_nodes = 9;
  // Edge list with shared destinations (softmax groups > 1 edge) and shared
  // sources (scatter-order-sensitive backward accumulation).
  std::vector<size_t> src = {0, 1, 2, 2, 3, 4, 5, 5, 6, 7, 8, 0};
  std::vector<size_t> dst = {1, 0, 0, 3, 3, 3, 6, 7, 7, 8, 0, 5};
  Tensor h = Tensor::Leaf(RandomMatrix(num_nodes, 5, rng), true);
  Matrix w_init(src.size(), 1);
  for (size_t e = 0; e < src.size(); ++e)
    w_init(e, 0) = rng.Uniform(0.05, 1.0);  // positive learned weights
  Tensor w = Tensor::Leaf(w_init, true);
  ExpectFusedMatchesUnfused(
      {h, w},
      [&] { return fused::NormalizeAggregate(h, w, src, dst, num_nodes); },
      [&] {
        Tensor logw = ops::Log(ops::AddScalar(w, 1e-9));
        Tensor alpha = ops::EdgeSoftmax(logw, dst, num_nodes);
        Tensor msg = ops::MulColBroadcast(ops::GatherRows(h, src), alpha);
        return ops::ScatterAddRows(msg, dst, num_nodes);
      });
}

TEST(FusionTest, FusedTapePassesVerifier) {
  Rng rng(37);
  SparseMatrix sp = RandomSparse(8, 8, 0.35, rng);
  Tensor x = Tensor::Leaf(RandomMatrix(8, 6, rng), true);
  Tensor w = Tensor::Leaf(RandomMatrix(6, 6, rng), true);
  Tensor b = Tensor::Leaf(RandomMatrix(1, 6, rng), true);
  Tensor h = fused::LinearBiasAct(x, w, b, Activation::kNone);
  Tensor out = fused::SpmmBiasAct(sp, h, Tensor(), Activation::kRelu);
  Tensor loss = ops::SumSquares(out);
  TapeVerifier verifier({.check_finite = true});
  EXPECT_TRUE(verifier.Verify(loss).ok());
}

TEST(FusionTest, FusedTapeIsSmaller) {
  Rng rng(39);
  SparseMatrix sp = RandomSparse(10, 10, 0.3, rng);
  Tensor x = Tensor::Leaf(RandomMatrix(10, 4, rng), true);
  Tensor b = Tensor::Leaf(RandomMatrix(1, 4, rng), true);
  Tensor fused_loss =
      ops::SumSquares(fused::SpmmBiasAct(sp, x, b, Activation::kRelu));
  Tensor composed_loss = ops::SumSquares(
      ops::Relu(ops::AddRowBroadcast(ops::SpMM(sp, x), b)));
  EXPECT_LT(fused_loss.TapeSize(), composed_loss.TapeSize());
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Each activation op, forward and backward, equals the kernels' scalar
// reference element by element, at the edges of the double range: signed
// zeros, infinities, subnormals, and ±800 (where a naive sigmoid's exp
// overflows). Five columns put four in the AVX2 tier's vector lanes and one
// in its scalar tail. The leaky slope is not the 0.2 default.
TEST(FusionTest, ActivationsMatchKernelReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  constexpr double kHalfMin = std::numeric_limits<double>::min() / 2;
  const std::vector<double> inputs = {0.0,   -0.0,     kInf,  -kInf, kSub,
                                      -kSub, kHalfMin, -kHalfMin, 800.0,
                                      -800.0, 1.5,     -2.25, 0.3,   -0.7,
                                      37.0};
  constexpr double kSlope = 0.37;
  struct Case {
    const char* name;
    kernels::FAct act;
    double alpha;
    std::function<Tensor(const Tensor&)> op;
  };
  const Case cases[] = {
      {"relu", kernels::FAct::kRelu, 0.0,
       [](const Tensor& t) { return ops::Relu(t); }},
      {"leaky_relu", kernels::FAct::kLeakyRelu, kSlope,
       [](const Tensor& t) { return ops::LeakyRelu(t, kSlope); }},
      {"sigmoid", kernels::FAct::kSigmoid, 0.0,
       [](const Tensor& t) { return ops::Sigmoid(t); }},
      {"tanh", kernels::FAct::kTanh, 0.0,
       [](const Tensor& t) { return ops::Tanh(t); }},
  };
  Matrix x_init(3, 5);
  Matrix upstream(3, 5);
  for (size_t i = 0; i < inputs.size(); ++i) {
    x_init.data()[i] = inputs[i];
    upstream.data()[i] = (i % 2 == 0 ? 1.0 : -1.0) * (0.5 + 0.25 * i);
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Tensor x = Tensor::Leaf(x_init, true);
    Tensor out = c.op(x);
    // d(sum(out ⊙ upstream))/d(out) is `upstream` exactly.
    ops::SumAll(ops::CwiseMul(out, Tensor::Constant(upstream))).Backward();
    for (size_t i = 0; i < inputs.size(); ++i) {
      SCOPED_TRACE("input " + std::to_string(inputs[i]));
      const double want = kernels::detail::ActF64(inputs[i], c.act, c.alpha);
      EXPECT_EQ(Bits(out.value().data()[i]), Bits(want));
      // A gradient lands in the leaf as 0.0 + g (Tensor::AccumulateGrad).
      EXPECT_EQ(Bits(x.grad().data()[i]),
                Bits(0.0 + kernels::detail::ActGradF64(upstream.data()[i],
                                                       want, c.act, c.alpha)));
    }
  }
}

// The activation backward reads the node's output. Relu maps NaN to 0, so
// its gradient there is 0, as wherever else the output is 0; LeakyRelu keeps
// the NaN, and its gradient there passes through.
TEST(FusionTest, ActivationGradientAtNaNInput) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix x_init(1, 3);
  x_init(0, 0) = nan;
  x_init(0, 1) = 2.0;
  x_init(0, 2) = -2.0;
  Matrix upstream(1, 3);
  upstream(0, 0) = 3.0;
  upstream(0, 1) = 5.0;
  upstream(0, 2) = 7.0;

  Tensor x = Tensor::Leaf(x_init, true);
  Tensor relu = ops::Relu(x);
  ops::SumAll(ops::CwiseMul(relu, Tensor::Constant(upstream))).Backward();
  EXPECT_EQ(relu.value()(0, 0), 0.0);
  EXPECT_EQ(x.grad()(0, 0), 0.0);
  EXPECT_EQ(x.grad()(0, 1), 5.0);
  EXPECT_EQ(x.grad()(0, 2), 0.0);

  x.ZeroGrad();
  Tensor leaky = ops::LeakyRelu(x, 0.5);
  ops::SumAll(ops::CwiseMul(leaky, Tensor::Constant(upstream))).Backward();
  EXPECT_TRUE(std::isnan(leaky.value()(0, 0)));
  EXPECT_EQ(x.grad()(0, 0), 3.0);
  EXPECT_EQ(x.grad()(0, 1), 5.0);
  EXPECT_EQ(x.grad()(0, 2), 3.5);
}

struct FitConfig {
  const char* name;
  GnnBackbone backbone;
  bool pair_norm;
  bool jumping_knowledge;
  size_t num_rows = 150;
};

struct FitResult {
  std::string params;
  Matrix logits;
};

FitResult FitOnce(const FitConfig& config) {
  TabularDataset data = MakeClusters({.num_rows = config.num_rows,
                                      .num_classes = 3,
                                      .dim_informative = 5,
                                      .dim_noise = 3,
                                      .seed = 11});
  Rng rng(19);
  Split split = StratifiedSplit(data.class_labels(), 0.6, 0.2, rng);
  InstanceGraphGnnOptions options;
  options.backbone = config.backbone;
  options.use_pair_norm = config.pair_norm;
  options.use_jumping_knowledge = config.jumping_knowledge;
  options.hidden_dim = 12;
  options.num_layers = 3;
  options.knn.k = 5;
  options.dropout = 0.3;
  options.train.max_epochs = 12;
  options.train.patience = 4;
  options.seed = 5;
  InstanceGraphGnn model(options);
  Status fit = model.Fit(data, split);
  EXPECT_TRUE(fit.ok()) << fit.ToString();
  FitResult result;
  std::ostringstream params;
  EXPECT_TRUE(model.SaveTrainedParameters(params).ok());
  result.params = params.str();
  StatusOr<Matrix> logits = model.Predict(data);
  EXPECT_TRUE(logits.ok());
  if (logits.ok()) result.logits = *logits;
  return result;
}

// A whole training run at pool sizes 1 to 4 must leave bit-identical trained
// parameters and logits: every kernel of the forward and the backward
// partitions its work by input size only. 2000 rows put each layer's sparse
// backward over several row chunks; the transformer attends densely over all
// row pairs, so it runs on fewer rows.
TEST(FusionTest, WholeFitBitExactAcrossThreadCounts) {
  const FitConfig configs[] = {
      {"gcn", GnnBackbone::kGcn, false, false, 2000},
      {"gcn_jk", GnnBackbone::kGcn, false, true, 2000},
      {"gcn_pairnorm", GnnBackbone::kGcn, true, false, 2000},
      {"sage", GnnBackbone::kSage, false, false, 2000},
      {"gin", GnnBackbone::kGin, false, false, 2000},
      {"gat", GnnBackbone::kGat, false, false, 2000},
      {"ggnn", GnnBackbone::kGgnn, false, false, 2000},
      {"appnp", GnnBackbone::kAppnp, false, false, 2000},
      {"graph_transformer", GnnBackbone::kTransformer, false, false, 400},
  };
  for (const FitConfig& config : configs) {
    SCOPED_TRACE(config.name);
    ThreadPool::Global().SetNumThreads(1);
    const FitResult serial = FitOnce(config);
    for (size_t threads = 2; threads <= 4; ++threads) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ThreadPool::Global().SetNumThreads(threads);
      const FitResult pooled = FitOnce(config);
      EXPECT_EQ(serial.params, pooled.params);
      ExpectBitIdentical(serial.logits, pooled.logits);
    }
  }
  ThreadPool::Global().SetNumThreads(ThreadCountFromEnv());
}

}  // namespace
}  // namespace gnn4tdl
