// Fused tape ops (nn/fused.h): the fused single-node forms must be
// BIT-IDENTICAL to their unfused compositions — values and gradients — at
// whatever thread count the process runs with. The check.sh `fusion` stage
// re-runs this binary under GNN4TDL_THREADS=1 and =4 (and under asan), so the
// equality below is exercised at multiple thread counts; within one process
// the comparison is exact memcmp, not a tolerance.
//
// The mechanism under test: SetFusionEnabled(false) makes every fused entry
// point bail to the exact unfused op chain, so fused-vs-unfused is a
// same-inputs same-process A/B with only the tape shape differing.

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "models/knn_gnn.h"
#include "nn/fused.h"
#include "nn/ops.h"
#include "nn/tape_verifier.h"
#include "obs/metrics.h"
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

/// Flips fusion off for the scope, restoring on exit.
class FusionOff {
 public:
  FusionOff() { fused::SetFusionEnabled(false); }
  ~FusionOff() { fused::SetFusionEnabled(true); }
};

constexpr Activation kActs[] = {Activation::kNone, Activation::kRelu,
                                Activation::kLeakyRelu, Activation::kSigmoid,
                                Activation::kTanh};

/// Runs `build` twice — fused and unfused — through a SumSquares loss and
/// asserts the forward value and every leaf gradient match bit for bit.
void ExpectFusedMatchesUnfused(
    const std::vector<Tensor>& leaves,
    const std::function<Tensor()>& build) {
  ASSERT_TRUE(fused::FusionEnabled());
  Tensor fused_out = build();
  Tensor fused_loss = ops::SumSquares(fused_out);
  for (const Tensor& leaf : leaves) leaf.ZeroGrad();
  fused_loss.Backward();
  Matrix fused_value = fused_out.value();
  std::vector<Matrix> fused_grads;
  for (const Tensor& leaf : leaves) fused_grads.push_back(leaf.grad());

  FusionOff off;
  Tensor plain_out = build();
  Tensor plain_loss = ops::SumSquares(plain_out);
  for (const Tensor& leaf : leaves) leaf.ZeroGrad();
  plain_loss.Backward();

  ExpectBitIdentical(fused_value, plain_out.value());
  ExpectBitIdentical(fused_loss.value(), plain_loss.value());
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
        {x, w, b}, [&] { return fused::LinearBiasAct(x, w, b, act); });
  }
}

TEST(FusionTest, LinearActWithoutBiasBitExact) {
  Rng rng(32);
  Tensor x = Tensor::Leaf(RandomMatrix(6, 4, rng), true);
  Tensor w = Tensor::Leaf(RandomMatrix(4, 3, rng), true);
  ExpectFusedMatchesUnfused({x, w}, [&] {
    return fused::LinearBiasAct(x, w, Tensor(), Activation::kRelu);
  });
}

TEST(FusionTest, SpmmBiasActBitExact) {
  Rng rng(33);
  SparseMatrix sp = RandomSparse(11, 11, 0.3, rng);
  for (Activation act : kActs) {
    Tensor x = Tensor::Leaf(RandomMatrix(11, 6, rng), true);
    Tensor b = Tensor::Leaf(RandomMatrix(1, 6, rng), true);
    ExpectFusedMatchesUnfused(
        {x, b}, [&] { return fused::SpmmBiasAct(sp, x, b, act); });
    ExpectFusedMatchesUnfused(
        {x}, [&] { return fused::SpmmBiasAct(sp, x, Tensor(), act); });
  }
}

TEST(FusionTest, AddActBitExact) {
  Rng rng(34);
  for (Activation act : kActs) {
    Tensor a = Tensor::Leaf(RandomMatrix(8, 5, rng), true);
    Tensor b = Tensor::Leaf(RandomMatrix(8, 5, rng), true);
    ExpectFusedMatchesUnfused({a, b},
                              [&] { return fused::AddAct(a, b, act); });
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
      {a, b}, [&] { return fused::GatherConcat(a, idx_a, b, idx_b); });
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
  ExpectFusedMatchesUnfused({h, w}, [&] {
    return fused::NormalizeAggregate(h, w, src, dst, num_nodes);
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

/// Turns metric emission on for one scope and restores the previous state.
class MetricsOn {
 public:
  MetricsOn() : was_enabled_(obs::MetricsEnabled()) { obs::EnableMetrics(); }
  ~MetricsOn() {
    if (!was_enabled_) obs::DisableMetrics();
  }

 private:
  bool was_enabled_;
};

TEST(FusionTest, HitAndBailCountersTrack) {
  MetricsOn metrics;
  Rng rng(38);
  auto& registry = obs::MetricsRegistry::Global();
  Tensor a = Tensor::Leaf(RandomMatrix(3, 3, rng), true);
  Tensor b = Tensor::Leaf(RandomMatrix(3, 3, rng), true);
  const double hits_before = registry.GetCounter("fusion.hits.add_act").Value();
  const double bails_before =
      registry.GetCounter("fusion.bails.add_act").Value();
  (void)fused::AddAct(a, b, Activation::kRelu);
  EXPECT_EQ(registry.GetCounter("fusion.hits.add_act").Value(),
            hits_before + 1);
  {
    FusionOff off;
    (void)fused::AddAct(a, b, Activation::kRelu);
  }
  EXPECT_EQ(registry.GetCounter("fusion.bails.add_act").Value(),
            bails_before + 1);
}

TEST(FusionTest, FusedTapeIsSmaller) {
  Rng rng(39);
  SparseMatrix sp = RandomSparse(10, 10, 0.3, rng);
  Tensor x = Tensor::Leaf(RandomMatrix(10, 4, rng), true);
  Tensor b = Tensor::Leaf(RandomMatrix(1, 4, rng), true);
  Tensor fused_loss =
      ops::SumSquares(fused::SpmmBiasAct(sp, x, b, Activation::kRelu));
  size_t fused_nodes = fused_loss.TapeSize();
  FusionOff off;
  Tensor plain_loss =
      ops::SumSquares(fused::SpmmBiasAct(sp, x, b, Activation::kRelu));
  EXPECT_LT(fused_nodes, plain_loss.TapeSize());
}

// A whole training run, fusion on vs off: the fused nodes (the last ReLU
// folded into the final layer's node included) must leave bit-identical
// trained parameters and logits. Dropout and the validation pass are on.
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
  options.train.verbose = false;
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

TEST(FusionTest, WholeFitBitExactFusedVsUnfused) {
  const FitConfig configs[] = {
      {"gcn", GnnBackbone::kGcn, false, false},
      {"gcn_jk", GnnBackbone::kGcn, false, true},
      {"gcn_pairnorm", GnnBackbone::kGcn, true, false},
      {"sage", GnnBackbone::kSage, false, false},
      {"gin", GnnBackbone::kGin, false, false},
  };
  for (const FitConfig& config : configs) {
    SCOPED_TRACE(config.name);
    ASSERT_TRUE(fused::FusionEnabled());
    const FitResult fused_fit = FitOnce(config);
    FitResult plain_fit;
    {
      FusionOff off;
      plain_fit = FitOnce(config);
    }
    EXPECT_EQ(fused_fit.params, plain_fit.params);
    ExpectBitIdentical(fused_fit.logits, plain_fit.logits);
  }
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
