// Figure 1 (operational): wall-clock breakdown of the GNN4TDL pipeline
// stages — graph formulation/featurization, graph construction,
// representation learning (one forward pass), one training epoch
// (forward+backward+step), and the end-to-end pipeline. Uses
// google-benchmark so the per-stage costs are measured properly.

#include <benchmark/benchmark.h>

#include "construct/rule_based.h"
#include "core/pipeline.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/transforms.h"
#include "gnn/gcn.h"
#include "nn/optimizer.h"
#include "nn/ops.h"

namespace gnn4tdl {
namespace {

constexpr size_t kRows = 600;

TabularDataset BenchData() {
  return MakeClusters({.num_rows = kRows, .num_classes = 3});
}

void BM_Stage1_Featurize(benchmark::State& state) {
  TabularDataset data = BenchData();
  for (auto _ : state) {
    Featurizer featurizer;
    auto x = featurizer.FitTransform(data);
    benchmark::DoNotOptimize(x.value());
  }
}
BENCHMARK(BM_Stage1_Featurize);

void BM_Stage2_ConstructKnnGraph(benchmark::State& state) {
  TabularDataset data = BenchData();
  Featurizer featurizer;
  Matrix x = std::move(featurizer.FitTransform(data)).value();
  for (auto _ : state) {
    Graph g = KnnGraph(x, {.k = 10});
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_Stage2_ConstructKnnGraph);

void BM_Stage3_GcnForward(benchmark::State& state) {
  TabularDataset data = BenchData();
  Featurizer featurizer;
  Matrix x = std::move(featurizer.FitTransform(data)).value();
  Graph g = KnnGraph(x, {.k = 10});
  SparseMatrix adj = g.GcnNormalized();
  Rng rng(1);
  GcnLayer l1(x.cols(), 32, rng);
  GcnLayer l2(32, 3, rng);
  Tensor x_t = Tensor::Constant(x);
  for (auto _ : state) {
    Tensor out = l2.Forward(ops::Relu(l1.Forward(x_t, adj)), adj);
    benchmark::DoNotOptimize(out.value().Sum());
  }
}
BENCHMARK(BM_Stage3_GcnForward);

void BM_Stage4_TrainEpoch(benchmark::State& state) {
  TabularDataset data = BenchData();
  Featurizer featurizer;
  Matrix x = std::move(featurizer.FitTransform(data)).value();
  Graph g = KnnGraph(x, {.k = 10});
  SparseMatrix adj = g.GcnNormalized();
  Rng rng(1);
  GcnLayer l1(x.cols(), 32, rng);
  GcnLayer l2(32, 3, rng);
  std::vector<Tensor> params = l1.Parameters();
  for (const Tensor& p : l2.Parameters()) params.push_back(p);
  Adam opt(params, 0.01);
  Tensor x_t = Tensor::Constant(x);
  for (auto _ : state) {
    opt.ZeroGrad();
    Tensor logits = l2.Forward(ops::Relu(l1.Forward(x_t, adj)), adj);
    ops::SoftmaxCrossEntropy(logits, data.class_labels()).Backward();
    opt.Step();
  }
}
BENCHMARK(BM_Stage4_TrainEpoch);

void BM_EndToEndPipeline(benchmark::State& state) {
  TabularDataset data = BenchData();
  Rng rng(1);
  Split split = StratifiedSplit(data.class_labels(), 0.5, 0.2, rng);
  for (auto _ : state) {
    PipelineConfig config;
    config.train.max_epochs = 50;
    config.train.patience = 0;
    auto result = RunPipeline(config, data, split);
    benchmark::DoNotOptimize(result->eval.accuracy);
  }
}
BENCHMARK(BM_EndToEndPipeline)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gnn4tdl

BENCHMARK_MAIN();
