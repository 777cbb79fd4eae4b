// Section 6 "Scaling GNNs to Large Tabular Data" (operational): how graph
// construction and GNN training scale with the number of instances n and the
// feature dimension d. The survey's claims: pairwise rule-based construction
// is the quadratic bottleneck; one GNN epoch scales with edges (~n*k for
// kNN); hypergraph formulation is the compact alternative.

#include <benchmark/benchmark.h>

#include <vector>

#include "construct/intrinsic.h"
#include "construct/rule_based.h"
#include "data/synthetic.h"
#include "data/transforms.h"
#include "gnn/gcn.h"
#include "nn/ops.h"
#include "tensor/sparse.h"

namespace gnn4tdl {
namespace {

Matrix Features(size_t n, size_t d) {
  Rng rng(1);
  return Matrix::Randn(n, d, rng);
}

void BM_KnnConstruction_N(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix x = Features(n, 16);
  for (auto _ : state) {
    Graph g = KnnGraph(x, {.k = 10});
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_KnnConstruction_N)->Arg(250)->Arg(500)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oNSquared);

void BM_ThresholdConstruction_N(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix x = Features(n, 16);
  for (auto _ : state) {
    Graph g = ThresholdGraph(x, {.threshold = 0.5,
                                 .metric = SimilarityMetric::kCosine});
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_ThresholdConstruction_N)->Arg(250)->Arg(500)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oNSquared);

void BM_HypergraphConstruction_N(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  TabularDataset data = MakeMultiRelational({.num_rows = n,
                                             .num_relations = 3,
                                             .cardinality = 40});
  for (auto _ : state) {
    Hypergraph h = HypergraphFromTable(data);
    benchmark::DoNotOptimize(h.num_hyperedges());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_HypergraphConstruction_N)->Arg(250)->Arg(500)->Arg(1000)
    ->Arg(2000)->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

void BM_GcnEpoch_N(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix x = Features(n, 16);
  Graph g = KnnGraph(x, {.k = 10});
  SparseMatrix adj = g.GcnNormalized();
  Rng rng(2);
  GcnLayer l1(16, 32, rng);
  GcnLayer l2(32, 2, rng);
  Tensor x_t = Tensor::Constant(x);
  std::vector<int> labels(n, 0);
  for (size_t i = 0; i < n; i += 2) labels[i] = 1;
  for (auto _ : state) {
    l1.ZeroGrad();
    l2.ZeroGrad();
    Tensor logits = l2.Forward(ops::Relu(l1.Forward(x_t, adj)), adj);
    ops::SoftmaxCrossEntropy(logits, labels).Backward();
    benchmark::DoNotOptimize(logits.value().Sum());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_GcnEpoch_N)->Arg(250)->Arg(500)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

void BM_KnnConstruction_D(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Matrix x = Features(500, d);
  for (auto _ : state) {
    Graph g = KnnGraph(x, {.k = 10});
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetComplexityN(static_cast<int64_t>(d));
}
BENCHMARK(BM_KnnConstruction_D)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

}  // namespace
}  // namespace gnn4tdl

BENCHMARK_MAIN();
