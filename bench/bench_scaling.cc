// Section 6 "Scaling GNNs to Large Tabular Data" (operational): how graph
// construction and GNN training scale with the number of instances n and the
// feature dimension d. The survey's claims: pairwise rule-based construction
// is the quadratic bottleneck; one GNN epoch scales with edges (~n*k for
// kNN); hypergraph formulation is the compact alternative.
//
// Besides the google-benchmark complexity suite, the binary runs a thread
// sweep (1/2/4/8 lanes) over the parallel hot-path kernels — dense matmul,
// CSR SpMM, SpMM over the transpose (the backward's Transpose().Multiply),
// edge softmax — and writes BENCH_parallel.json with wall-clock AND
// process-CPU time per point, plus the max deviation of each multithreaded
// result from the threads=1 run (0 for every kernel: none partitions by the
// pool size). num_cores in the header says whether the wall-clock speedup
// column is meaningful on the machine that produced the file.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
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

// --- Parallel-kernel thread sweep -------------------------------------------

struct SweepPoint {
  size_t threads = 1;
  double wall_ms = 0.0;         // best-of-reps wall clock
  double process_cpu_ms = 0.0;  // CPU across all threads for that best rep
  double speedup = 0.0;         // threads=1 wall / this wall
  double max_abs_dev = 0.0;     // vs the threads=1 result matrix
};

struct KernelSweep {
  std::string name;
  std::vector<SweepPoint> points;
};

double MaxAbsDev(const Matrix& a, const Matrix& b) {
  double dev = 0.0;
  for (size_t i = 0; i < a.size(); ++i)
    dev = std::max(dev, std::fabs(a.data()[i] - b.data()[i]));
  return dev;
}

// Times `kernel` at each thread count: one warm-up call, then best-of-`reps`
// wall clock (CPU time taken from the same best repetition). The returned
// matrix of every point is compared against the threads=1 result, making the
// determinism contract a measured quantity rather than a claim.
KernelSweep SweepKernel(const std::string& name,
                        const std::vector<size_t>& thread_counts, int reps,
                        const std::function<Matrix()>& kernel) {
  KernelSweep sweep;
  sweep.name = name;
  Matrix reference;
  for (size_t t : thread_counts) {
    ThreadPool::Global().SetNumThreads(t);
    Matrix result = kernel();  // warm-up: pool awake, caches primed
    SweepPoint point;
    point.threads = t;
    point.wall_ms = 1e300;
    for (int r = 0; r < reps; ++r) {
      bench::Timer timer;
      result = kernel();
      double wall = timer.WallMs();
      if (wall < point.wall_ms) {
        point.wall_ms = wall;
        point.process_cpu_ms = timer.ProcessCpuMs();
      }
    }
    if (reference.size() == 0) reference = result;
    point.max_abs_dev = MaxAbsDev(reference, result);
    point.speedup = sweep.points.empty()
                        ? 1.0
                        : sweep.points.front().wall_ms / point.wall_ms;
    sweep.points.push_back(point);
  }
  return sweep;
}

void WriteParallelJson(const std::vector<KernelSweep>& sweeps) {
  std::ofstream out("BENCH_parallel.json");
  if (!out) {
    std::fprintf(stderr, "cannot write BENCH_parallel.json\n");
    return;
  }
  bench::WriteJsonHeader(out, "parallel");
  // Exact per-call FLOP/byte totals, one counted call per kernel shape.
  bench::WriteKernelCountersJson(out);
  out << "  \"kernels\": [\n";
  for (size_t i = 0; i < sweeps.size(); ++i) {
    out << "    {\"name\": \"" << sweeps[i].name << "\", \"points\": [\n";
    const std::vector<SweepPoint>& pts = sweeps[i].points;
    for (size_t j = 0; j < pts.size(); ++j) {
      out << "      {\"threads\": " << pts[j].threads
          << ", \"wall_ms\": " << pts[j].wall_ms
          << ", \"process_cpu_ms\": " << pts[j].process_cpu_ms
          << ", \"speedup\": " << pts[j].speedup
          << ", \"max_abs_dev_vs_1thread\": " << pts[j].max_abs_dev << "}"
          << (j + 1 < pts.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (i + 1 < sweeps.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nwrote BENCH_parallel.json\n");
}

void RunParallelSweep() {
  bench::Banner("Parallel kernels: threads=1/2/4/8 sweep",
                "Wall clock vs process CPU per kernel; multithreaded results "
                "compared bit-for-bit against the threads=1 run.");

  const std::vector<size_t> thread_counts = {1, 2, 4, 8};
  const int reps = 3;

  // Dense matmul: 256^3, the serve/train projection hot path.
  Rng rng(11);
  Matrix a = Matrix::Randn(256, 256, rng);
  Matrix b = Matrix::Randn(256, 256, rng);

  // kNN-shaped CSR: 20k rows, 10 neighbors each, 32-column dense operand —
  // the message-passing workload of a mid-sized instance graph.
  const size_t n = 20000, k = 10, d = 32;
  std::vector<Triplet> triplets;
  triplets.reserve(n * k);
  Rng edge_rng(13);
  for (size_t r = 0; r < n; ++r)
    for (size_t j = 0; j < k; ++j)
      triplets.push_back(
          {r,
           static_cast<size_t>(
               edge_rng.Int(0, static_cast<int64_t>(n) - 1)),
           1.0 / k});
  SparseMatrix adj = SparseMatrix::FromTriplets(n, n, std::move(triplets));
  Matrix h = Matrix::Randn(n, d, rng);

  // Edge softmax: one logit per stored edge, grouped by destination row.
  Matrix logits = Matrix::Randn(adj.nnz(), 1, rng);
  std::vector<size_t> seg;
  seg.reserve(adj.nnz());
  for (size_t r = 0; r < n; ++r)
    for (size_t e = adj.row_ptr()[r]; e < adj.row_ptr()[r + 1]; ++e)
      seg.push_back(r);

  std::vector<KernelSweep> sweeps;
  sweeps.push_back(SweepKernel("matmul_256", thread_counts, reps,
                               [&] { return a.Matmul(b); }));
  sweeps.push_back(SweepKernel("spmm_20k_k10_d32", thread_counts, reps,
                               [&] { return adj.Multiply(h); }));
  sweeps.push_back(SweepKernel("spmm_transpose_20k_k10_d32", thread_counts,
                               reps,
                               [&] { return adj.Transpose().Multiply(h); }));
  sweeps.push_back(SweepKernel("edge_softmax_200k", thread_counts, reps, [&] {
    return SegmentSoftmax(logits, seg, n);
  }));
  ThreadPool::Global().SetNumThreads(ThreadCountFromEnv());

  // One extra counted call per kernel, after the timed sweep, so the JSON
  // reports exact per-call FLOP/byte totals without perturbing the timings.
  obs::KernelCounters::Reset();
  obs::KernelCounters::Enable();
  (void)a.Matmul(b);
  (void)adj.Multiply(h);
  (void)adj.Transpose().Multiply(h);
  (void)SegmentSoftmax(logits, seg, n);
  obs::KernelCounters::Disable();

  bench::TablePrinter table({"kernel", "threads", "wall(ms)", "cpu(ms)",
                             "speedup", "max dev vs 1t"},
                            {28, 9, 11, 11, 9, 14});
  table.PrintHeader();
  for (const KernelSweep& sweep : sweeps) {
    for (const SweepPoint& p : sweep.points) {
      table.PrintRow({sweep.name, std::to_string(p.threads),
                      bench::Fmt(p.wall_ms), bench::Fmt(p.process_cpu_ms),
                      bench::Fmt(p.speedup, 2),
                      bench::Fmt(p.max_abs_dev, 18)});
    }
  }
  WriteParallelJson(sweeps);
}

}  // namespace
}  // namespace gnn4tdl

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  gnn4tdl::RunParallelSweep();
  return 0;
}
