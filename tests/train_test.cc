#include "train/trainer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "gnn/gcn.h"
#include "gradcheck_util.h"
#include "graph/graph.h"
#include "models/feature_graph.h"
#include "models/knn_gnn.h"
#include "models/mlp.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "train/aux_tasks.h"

namespace gnn4tdl {
namespace {

TEST(TrainerTest, ReducesQuadraticLoss) {
  Tensor x = Tensor::Leaf(Matrix::Full(1, 2, 5.0), true);
  Trainer trainer({x}, {.max_epochs = 200, .learning_rate = 0.1, .patience = 0});
  TrainResult result = trainer.Fit([&] { return ops::SumSquares(x); });
  EXPECT_EQ(result.epochs_run, 200);
  EXPECT_LT(result.final_train_loss, 1e-3);
}

TEST(TrainerTest, EarlyStoppingHaltsAndRestoresBest) {
  // Validation metric that peaks at epoch 10 then degrades: training should
  // stop within patience and restore the epoch-10 parameters.
  Tensor x = Tensor::Leaf(Matrix::Zeros(1, 1), true);
  int epoch = 0;
  Trainer trainer({x}, {.max_epochs = 500, .learning_rate = 0.1, .patience = 5});
  TrainResult result = trainer.Fit(
      [&] {
        ++epoch;
        // Drive x upward forever.
        return ops::SumSquares(ops::AddScalar(x, -100.0));
      },
      [&]() -> double { return epoch <= 10 ? epoch : 10.0 - epoch; });
  EXPECT_LE(result.epochs_run, 20);
  EXPECT_NEAR(result.best_val_metric, 10.0, 1e-9);
  // Restored value is from epoch 10, far from convergence to 100.
  EXPECT_LT(x.value()(0, 0), 50.0);
}

TEST(TrainerTest, ValidationRunsOnlyWhenEarlyStoppingReadsIt) {
  const auto fit = [](int patience, int* val_calls) {
    Tensor x = Tensor::Leaf(Matrix::Full(1, 1, 3.0), true);
    Trainer trainer({x}, {.max_epochs = 10,
                          .learning_rate = 0.1,
                          .patience = patience});
    return trainer.Fit([&] { return ops::SumSquares(x); },
                       [val_calls]() -> double {
                         ++*val_calls;
                         return static_cast<double>(*val_calls);
                       });
  };
  int calls = 0;
  TrainResult off = fit(/*patience=*/0, &calls);
  EXPECT_EQ(off.epochs_run, 10);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(off.best_val_metric, 0.0);

  calls = 0;
  TrainResult on = fit(/*patience=*/3, &calls);
  EXPECT_EQ(on.epochs_run, 10);  // the metric improves every epoch
  EXPECT_EQ(calls, 10);
  EXPECT_EQ(on.best_val_metric, 10.0);
}

TEST(TrainerTest, FixedSeedAndThreadCountGiveBitIdenticalRuns) {
  // The determinism contract of common/parallel.h, end to end: a GCN
  // training run whose forward and backward pass through every parallel
  // kernel family (matmul, SpMM forward and over the transpose, tree-reduced
  // CE loss) must produce bit-identical losses when repeated with the same
  // seed and the same fixed thread count.
  ThreadPool::Global().SetNumThreads(4);
  auto run = [] {
    Rng rng(123);
    const size_t n = 60;
    Matrix x = Matrix::Randn(n, 8, rng);
    std::vector<Edge> edges;
    for (size_t i = 0; i < n; ++i) {
      edges.push_back({i, (i + 1) % n, 1.0});
      edges.push_back({i, (i + 7) % n, 1.0});
    }
    Graph g = Graph::FromEdges(n, edges);
    SparseMatrix adj = g.GcnNormalized();
    GcnLayer l1(8, 16, rng);
    GcnLayer l2(16, 3, rng);
    Tensor x_t = Tensor::Constant(x);
    std::vector<int> labels(n);
    for (size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 3);
    std::vector<Tensor> params = l1.Parameters();
    for (const Tensor& p : l2.Parameters()) params.push_back(p);
    Trainer trainer(params, {.max_epochs = 12,
                             .learning_rate = 0.05,
                             .patience = 0});
    TrainResult result = trainer.Fit([&] {
      Tensor logits = l2.Forward(ops::Relu(l1.Forward(x_t, adj)), adj);
      return ops::SoftmaxCrossEntropy(logits, labels);
    });
    return result.final_train_loss;
  };
  double first = run();
  double second = run();
  EXPECT_EQ(first, second);
  ThreadPool::Global().SetNumThreads(ThreadCountFromEnv());
}

// Fit's arena pool is sized by epoch 0: every later epoch must be served
// from the freelist. So a 2-epoch and an 8-epoch fit miss the pool equally
// often and reach the same high water; an epoch that allocates afresh makes
// the longer fit miss more.
TEST(TrainerTest, ArenaStopsAllocatingAfterFirstEpoch) {
  struct ArenaGauges {
    double misses;
    double hits;
    double high_water;
  };
  const auto fit = [](GnnBackbone backbone, int epochs) {
    TabularDataset data = MakeClusters({.num_rows = 300,
                                        .num_classes = 3,
                                        .dim_informative = 5,
                                        .dim_noise = 3,
                                        .seed = 11});
    Rng rng(19);
    Split split = StratifiedSplit(data.class_labels(), 0.6, 0.2, rng);
    InstanceGraphGnnOptions options;
    options.backbone = backbone;
    options.hidden_dim = 12;
    options.knn.k = 5;
    options.train.max_epochs = epochs;
    options.train.patience = 0;
    options.seed = 5;
    InstanceGraphGnn model(options);
    EXPECT_TRUE(model.Fit(data, split).ok());
    auto& registry = obs::MetricsRegistry::Global();
    const double hits = registry.GetGauge("arena.pool_hits").Value();
    return ArenaGauges{registry.GetGauge("arena.alloc_calls").Value() - hits,
                       hits,
                       registry.GetGauge("arena.high_water_bytes").Value()};
  };
  obs::EnableMetrics();
  for (GnnBackbone backbone :
       {GnnBackbone::kGcn, GnnBackbone::kSage, GnnBackbone::kGat,
        GnnBackbone::kGin, GnnBackbone::kGgnn, GnnBackbone::kAppnp}) {
    SCOPED_TRACE(GnnBackboneName(backbone));
    const ArenaGauges short_fit = fit(backbone, 2);
    const ArenaGauges long_fit = fit(backbone, 8);
    // One arena spans the fit, so the extra epochs are all pool hits.
    EXPECT_GT(short_fit.misses, 0.0);
    EXPECT_GT(long_fit.hits, short_fit.hits);
    EXPECT_EQ(short_fit.misses, long_fit.misses);
    EXPECT_EQ(short_fit.high_water, long_fit.high_water);
  }
  obs::DisableMetrics();
}

// A learning rate of 1e300 drives the weights non-finite after one step, so
// the tape check of the second epoch fails. Fit must return that diagnosis
// and leave the model unfitted rather than report success.
TrainOptions ExplodingTrain() {
  TrainOptions t;
  t.max_epochs = 5;
  t.learning_rate = 1e300;
  t.patience = 0;
  t.verify_tape_every = 1;
  return t;
}

void ExpectFitFailsOnTapeCheck(TabularModel& model) {
  TabularDataset data = MakeClusters({.num_rows = 60, .seed = 3});
  Rng rng(4);
  Split split = RandomSplit(data.NumRows(), 0.5, 0.25, rng);
  Status fitted = model.Fit(data, split);
  EXPECT_EQ(fitted.code(), StatusCode::kFailedPrecondition)
      << fitted.ToString();
  EXPECT_NE(fitted.message().find("non-finite"), std::string::npos)
      << fitted.ToString();
  EXPECT_NE(fitted.message().find("op="), std::string::npos)
      << fitted.ToString();
  StatusOr<Matrix> out = model.Predict(data);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().message(), "Predict before Fit");
}

TEST(FitTapeCheckTest, InstanceGraphGnnReturnsTapeFailure) {
  InstanceGraphGnnOptions options;
  options.hidden_dim = 8;
  options.train = ExplodingTrain();
  InstanceGraphGnn model(options);
  ExpectFitFailsOnTapeCheck(model);
}

TEST(FitTapeCheckTest, FeatureGraphModelReturnsTapeFailure) {
  FeatureGraphModel model({.train = ExplodingTrain()});
  ExpectFitFailsOnTapeCheck(model);
}

TEST(FitTapeCheckTest, MlpModelReturnsTapeFailure) {
  MlpModel model({.train = ExplodingTrain()});
  ExpectFitFailsOnTapeCheck(model);
}

TEST(FailedFitTest, RefitThatFailsLeavesNoModelBehind) {
  // The refit fails after the featurizer and feature cache were replaced, so
  // the first fit's graph no longer matches them; Predict must refuse rather
  // than run the stale model on the new features.
  InstanceGraphGnnOptions options;
  options.graph_source = GraphSource::kMultiplexFlatten;
  options.hidden_dim = 8;
  options.train = {.max_epochs = 3, .patience = 0};
  InstanceGraphGnn model(options);
  TabularDataset relational = MakeMultiRelational({.num_rows = 80});
  Rng rng(1);
  ASSERT_TRUE(model
                  .Fit(relational,
                       RandomSplit(relational.NumRows(), 0.5, 0.25, rng))
                  .ok());
  TabularDataset numeric = MakeClusters({.num_rows = 50});
  EXPECT_EQ(model.Fit(numeric, RandomSplit(numeric.NumRows(), 0.5, 0.25, rng))
                .code(),
            StatusCode::kInvalidArgument);
  StatusOr<Matrix> out = model.Predict(relational);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().message(), "Predict before Fit");
}

TEST(AuxTaskTest, ReconstructionLossDecreasesUnderTraining) {
  Rng rng(1);
  Matrix x_target = Matrix::Randn(20, 5, rng);
  Tensor emb = Tensor::Constant(Matrix::Randn(20, 4, rng));
  FeatureReconstructionTask task(4, 5, 8, rng);
  double initial = task.Loss(emb, x_target).value()(0, 0);
  Trainer trainer(task.Parameters(), {.max_epochs = 200,
                                      .learning_rate = 0.05,
                                      .patience = 0});
  TrainResult result = trainer.Fit([&] { return task.Loss(emb, x_target); });
  EXPECT_EQ(result.epochs_run, 200);
  EXPECT_TRUE(result.tape_status.ok()) << result.tape_status.ToString();
  double final = task.Loss(emb, x_target).value()(0, 0);
  EXPECT_LT(final, initial * 0.5);
}

TEST(AuxTaskTest, ReconstructionMaskRestrictsLoss) {
  Rng rng(2);
  Tensor emb = Tensor::Constant(Matrix::Randn(4, 3, rng));
  FeatureReconstructionTask task(3, 2, 4, rng);
  Matrix target = Matrix::Full(4, 2, 100.0);
  Matrix zero_mask(4, 2);  // nothing counted -> denominator clamps, loss 0
  Tensor loss = task.Loss(emb, target, &zero_mask);
  EXPECT_EQ(loss.value()(0, 0), 0.0);
}

TEST(AuxTaskTest, MaskCorruptRateAndMask) {
  Rng rng(3);
  Matrix x = Matrix::Full(100, 100, 7.0);
  Matrix mask;
  Matrix corrupted = MaskCorrupt(x, 0.25, rng, &mask);
  double corrupted_frac = mask.Sum() / 10000.0;
  EXPECT_NEAR(corrupted_frac, 0.25, 0.02);
  for (size_t r = 0; r < 100; ++r)
    for (size_t c = 0; c < 100; ++c) {
      if (mask(r, c) == 1.0) {
        EXPECT_EQ(corrupted(r, c), 0.0);
      } else {
        EXPECT_EQ(corrupted(r, c), 7.0);
      }
    }
}

TEST(AuxTaskTest, NtXentPrefersAlignedViews) {
  Rng rng(4);
  Matrix base = Matrix::Randn(10, 6, rng);
  Tensor z = Tensor::Constant(base);
  Tensor z_same = Tensor::Constant(base);
  Tensor z_rand = Tensor::Constant(Matrix::Randn(10, 6, rng));
  double aligned = NtXentLoss(z, z_same).value()(0, 0);
  double random = NtXentLoss(z, z_rand).value()(0, 0);
  EXPECT_LT(aligned, random);
}

TEST(AuxTaskTest, NtXentGradCheck) {
  Rng rng(5);
  Tensor z1 = Tensor::Leaf(Matrix::Randn(5, 3, rng), true);
  Tensor z2 = Tensor::Leaf(Matrix::Randn(5, 3, rng), true);
  testing::ExpectGradientsMatch({z1, z2},
                                [&] { return NtXentLoss(z1, z2, 0.7); });
}

TEST(AuxTaskTest, SmoothnessZeroForConstantEmbeddings) {
  Graph g = Graph::FromEdges(4, {{0, 1, 1.0}, {1, 2, 1.0}});
  Tensor h = Tensor::Constant(Matrix::Ones(4, 3));
  EXPECT_NEAR(SmoothnessPenalty(h, g).value()(0, 0), 0.0, 1e-12);
}

TEST(AuxTaskTest, SmoothnessPositiveForVaryingEmbeddings) {
  Graph g = Graph::FromEdges(2, {{0, 1, 2.0}});
  Tensor h = Tensor::Constant(Matrix::FromRows({{0.0}, {3.0}}));
  // Two directed edges of weight 2, diff^2 = 9: mean = (2*9*2)/2 = 18.
  EXPECT_NEAR(SmoothnessPenalty(h, g).value()(0, 0), 18.0, 1e-12);
}

TEST(AuxTaskTest, SparsityPenaltyIsMeanAbs) {
  Tensor w = Tensor::Constant(Matrix::FromRows({{0.5}, {-1.5}}));
  EXPECT_NEAR(SparsityPenalty(w).value()(0, 0), 1.0, 1e-12);
}

TEST(AuxTaskTest, ConnectivityPenalizesIsolatedNodes) {
  // Node 1 receives tiny total weight -> much larger penalty than node 0.
  Tensor w_good = Tensor::Constant(Matrix::FromRows({{1.0}, {1.0}}));
  Tensor w_bad = Tensor::Constant(Matrix::FromRows({{1.0}, {1e-6}}));
  std::vector<size_t> dst = {0, 1};
  double good = ConnectivityPenalty(w_good, dst, 2).value()(0, 0);
  double bad = ConnectivityPenalty(w_bad, dst, 2).value()(0, 0);
  EXPECT_GT(bad, good + 1.0);
}

TEST(AuxTaskTest, EdgeCompletionPrefersEdgeAlignedEmbeddings) {
  // Edge-aligned embeddings (positive pairs have positive dot products) must
  // score a lower loss than the same embeddings with one endpoint flipped
  // (positive pairs anti-aligned). Identical negative samples via same seed.
  Graph g = Graph::FromEdges(6, {{0, 1, 1.0}, {2, 3, 1.0}, {4, 5, 1.0}});
  Matrix aligned(6, 3);
  for (size_t pair = 0; pair < 3; ++pair) {
    aligned(2 * pair, pair) = 2.0;
    aligned(2 * pair + 1, pair) = 2.0;
  }
  Matrix anti = aligned;
  for (size_t pair = 0; pair < 3; ++pair) anti(2 * pair + 1, pair) = -2.0;
  Rng rng1(1), rng2(1);
  double good_loss = EdgeCompletionLoss(Tensor::Constant(aligned), g, 30, rng1)
                         .value()(0, 0);
  double bad_loss = EdgeCompletionLoss(Tensor::Constant(anti), g, 30, rng2)
                        .value()(0, 0);
  EXPECT_LT(good_loss, bad_loss);
}

TEST(AuxTaskTest, EdgeCompletionLossIsTrainable) {
  // Gradient descent on the embeddings alone drives the loss down.
  Graph g = Graph::FromEdges(8, {{0, 1, 1.0}, {2, 3, 1.0}, {4, 5, 1.0},
                                 {6, 7, 1.0}});
  Rng data_rng(4);
  Tensor h = Tensor::Leaf(Matrix::Randn(8, 4, data_rng, 0.1), true);
  Adam opt({h}, 0.05);
  Rng fixed(11);
  double initial = EdgeCompletionLoss(h, g, 40, fixed).value()(0, 0);
  for (int step = 0; step < 150; ++step) {
    opt.ZeroGrad();
    Rng rng(11);  // fixed negatives: a deterministic objective
    EdgeCompletionLoss(h, g, 40, rng).Backward();
    opt.Step();
  }
  Rng fixed2(11);
  double final = EdgeCompletionLoss(h, g, 40, fixed2).value()(0, 0);
  EXPECT_LT(final, initial * 0.5);
}

TEST(AuxTaskTest, EdgeCompletionEmptyGraphIsZero) {
  Graph g(5);
  Rng rng(2);
  Tensor h = Tensor::Constant(Matrix::Ones(5, 3));
  EXPECT_EQ(EdgeCompletionLoss(h, g, 10, rng).value()(0, 0), 0.0);
}

TEST(AuxTaskTest, EdgeCompletionGradCheck) {
  Graph g = Graph::FromEdges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  Rng data_rng(3);
  Tensor h = Tensor::Leaf(Matrix::Randn(4, 3, data_rng), true);
  // Fix the negative sample by reseeding inside the closure.
  testing::ExpectGradientsMatch({h}, [&] {
    Rng rng(7);
    return EdgeCompletionLoss(h, g, 8, rng);
  });
}

TEST(AuxTaskTest, SmoothnessGradCheck) {
  Rng rng(6);
  Graph g = Graph::FromEdges(4, {{0, 1, 1.0}, {1, 2, 0.5}, {2, 3, 2.0}});
  Tensor h = Tensor::Leaf(Matrix::Randn(4, 2, rng), true);
  testing::ExpectGradientsMatch({h}, [&] { return SmoothnessPenalty(h, g); });
}

}  // namespace
}  // namespace gnn4tdl
