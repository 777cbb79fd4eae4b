// Serving-path benchmark (operational): single-row inductive scoring latency
// and micro-batched throughput over frozen artifacts, for the kNN instance
// graph served with GCN, SAGE, and GIN backbones — each measured on both the
// double reference path and the f32 SIMD kernel tier. The claims under test:
// (1) the micro-batching engine amortizes subgraph extraction enough to beat
// one-at-a-time scoring by a wide throughput margin; (2) the f32 tier trades
// no measurable ranking quality (AUROC delta <= 1e-3 on a binary task) for a
// real throughput win, visible in the per-model kernel byte counters as
// halved dense/sparse traffic.
//
// Writes BENCH_serving.json (schema v3: v2's per-model kernel_counters +
// AUROC + f64-vs-f32 comparison block, plus a `tenancy` field recording that
// these numbers are single-tenant — the multi-tenant saturation story lives
// in bench_load / BENCH_load.json) next to the working directory so perf
// regressions across PRs are diffable.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/metrics.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "kernels/kernels.h"
#include "models/knn_gnn.h"
#include "serve/engine.h"
#include "serve/frozen_model.h"

namespace gnn4tdl {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// One (backbone, precision) serving measurement. The kernel counters are
// per-variant: reset before the measurement phase, snapshotted after, so the
// JSON attributes FLOP/byte traffic to the model that caused it instead of
// one process-global blob.
struct VariantResult {
  std::string backbone;
  std::string precision;
  double single_row_p50_ms = 0.0;
  double single_row_p99_ms = 0.0;
  double sequential_rps = 0.0;  // one-at-a-time ScoreFeatures loop
  double batched_rps = 0.0;     // micro-batching engine
  double batch_speedup = 0.0;
  double engine_p50_ms = 0.0;
  double engine_p99_ms = 0.0;
  double mean_batch_rows = 0.0;
  double auroc = 0.0;  // ranking quality of served predictions
  std::map<std::string, obs::KernelStats> counters;
  double total_flops = 0.0;
  double total_bytes = 0.0;
  bool ok = false;
};

VariantResult BenchVariant(const FrozenModel& frozen, const std::string& name,
                           kernels::Precision precision,
                           const TabularDataset& fresh) {
  VariantResult result;
  result.backbone = name;
  result.precision = kernels::PrecisionName(precision);

  Matrix x = frozen.Featurize(fresh).value();
  const size_t n = x.rows();

  obs::KernelCounters::Reset();

  // --- Served-prediction quality --------------------------------------------
  {
    StatusOr<Matrix> logits = frozen.Score(fresh);
    if (!logits.ok()) {
      std::fprintf(stderr, "[%s/%s] score failed: %s\n", result.backbone.c_str(),
                   result.precision.c_str(),
                   logits.status().ToString().c_str());
      return result;
    }
    result.auroc =
        Auroc(PositiveClassScores(*logits), fresh.class_labels());
  }

  // --- Single-row latency ----------------------------------------------------
  std::vector<double> latencies;
  latencies.reserve(2 * n);
  for (size_t pass = 0; pass < 3; ++pass) {
    for (size_t i = 0; i < n; ++i) {
      Matrix row(1, x.cols());
      std::copy(x.row_data(i), x.row_data(i) + x.cols(), row.row_data(0));
      auto start = Clock::now();
      StatusOr<Matrix> logits = frozen.ScoreFeatures(row);
      double ms = MsSince(start);
      if (!logits.ok()) {
        std::fprintf(stderr, "[%s/%s] score failed: %s\n",
                     result.backbone.c_str(), result.precision.c_str(),
                     logits.status().ToString().c_str());
        return result;
      }
      if (pass > 0) latencies.push_back(ms);  // pass 0 warms caches
    }
  }
  result.single_row_p50_ms = Percentile(latencies, 0.50);
  result.single_row_p99_ms = Percentile(latencies, 0.99);

  // --- One-at-a-time throughput ----------------------------------------------
  {
    auto start = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      Matrix row(1, x.cols());
      std::copy(x.row_data(i), x.row_data(i) + x.cols(), row.row_data(0));
      frozen.ScoreFeatures(row).value();
    }
    double s = MsSince(start) / 1000.0;
    result.sequential_rps = s > 0.0 ? static_cast<double>(n) / s : 0.0;
  }

  // --- Micro-batched engine throughput --------------------------------------
  {
    ServingOptions serve_opts;
    serve_opts.max_batch = 16;
    ServingEngine engine(&frozen, serve_opts);
    std::vector<std::future<std::vector<double>>> futures;
    futures.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      StatusOr<std::future<std::vector<double>>> f = engine.Submit(
          std::vector<double>(x.row_data(i), x.row_data(i) + x.cols()));
      if (f.ok()) futures.push_back(std::move(*f));
    }
    for (auto& f : futures) f.get();
    engine.Stop();
    ServeStats stats = engine.Stats();
    result.batched_rps = stats.throughput_rps;
    result.engine_p50_ms = stats.p50_ms;
    result.engine_p99_ms = stats.p99_ms;
    result.mean_batch_rows = stats.mean_batch_rows;
  }
  result.batch_speedup = result.sequential_rps > 0.0
                             ? result.batched_rps / result.sequential_rps
                             : 0.0;

  result.counters = obs::KernelCounters::Snapshot();
  for (const auto& [kernel, stats] : result.counters) {
    (void)kernel;
    result.total_flops += stats.flops;
    result.total_bytes += stats.bytes;
  }
  result.ok = true;
  return result;
}

// Trains one backbone, freezes it once, and serves the same artifact through
// both precision tiers (f64 reference first, then the f32 SIMD tier forced
// via FrozenModelOptions). Returns {f64, f32}.
std::vector<VariantResult> BenchBackbone(GnnBackbone backbone,
                                         const TabularDataset& train,
                                         const Split& split,
                                         const TabularDataset& fresh) {
  const std::string name = GnnBackboneName(backbone);

  InstanceGraphGnnOptions options;
  options.backbone = backbone;
  options.hidden_dim = 32;
  options.num_layers = 2;
  options.knn.k = 10;
  options.train.max_epochs = 40;
  options.seed = 3;
  InstanceGraphGnn model(options);
  Status fit = model.Fit(train, split);
  if (!fit.ok()) {
    std::fprintf(stderr, "[%s] fit failed: %s\n", name.c_str(),
                 fit.ToString().c_str());
    return {};
  }

  // Freeze + reload through the artifact stream, so the bench measures what
  // a serving process actually runs. One artifact, two serving tiers.
  std::stringstream artifact;
  Status save = FrozenModel::Save(model, artifact);
  if (!save.ok()) {
    std::fprintf(stderr, "[%s] freeze failed: %s\n", name.c_str(),
                 save.ToString().c_str());
    return {};
  }
  const std::string bytes = artifact.str();

  std::vector<VariantResult> results;
  for (kernels::Precision precision :
       {kernels::Precision::kF64, kernels::Precision::kF32}) {
    FrozenModelOptions load_options;
    load_options.precision = precision;
    std::istringstream in(bytes);
    StatusOr<FrozenModel> frozen = FrozenModel::Load(in, load_options);
    if (!frozen.ok()) {
      std::fprintf(stderr, "[%s] load failed: %s\n", name.c_str(),
                   frozen.status().ToString().c_str());
      return results;
    }
    if (frozen->precision() != precision) {
      std::fprintf(stderr, "[%s] %s tier unavailable, serving on %s\n",
                   name.c_str(), kernels::PrecisionName(precision),
                   kernels::PrecisionName(frozen->precision()));
    }
    results.push_back(BenchVariant(*frozen, name, precision, fresh));
  }
  return results;
}

void WriteCountersJson(std::ostream& out,
                       const std::map<std::string, obs::KernelStats>& counters,
                       const char* indent) {
  out << "{";
  bool first = true;
  for (const auto& [kernel, stats] : counters) {
    if (!first) out << ",";
    first = false;
    out << "\n" << indent << "  \"" << kernel << "\": {\"calls\": " << stats.calls
        << ", \"flops\": " << stats.flops << ", \"bytes\": " << stats.bytes
        << "}";
  }
  if (!first) out << "\n" << indent;
  out << "}";
}

void WriteJson(const std::vector<VariantResult>& results, size_t train_rows,
               size_t serve_rows) {
  std::ofstream out("BENCH_serving.json");
  if (!out) {
    std::fprintf(stderr, "cannot write BENCH_serving.json\n");
    return;
  }
  bench::WriteJsonHeader(out, "serving");
  out << "  \"schema_version\": 3,\n";
  // All engine numbers here come from a single "default" tenant; cross-tenant
  // behavior (WRR isolation, admission control) is bench_load's domain.
  out << "  \"tenancy\": \"single\",\n";
  out << "  \"simd_level\": \""
      << kernels::SimdLevelName(kernels::Dispatch().level) << "\",\n";
  out << "  \"train_rows\": " << train_rows << ",\n";
  out << "  \"serve_rows\": " << serve_rows << ",\n";
  out << "  \"models\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const VariantResult& r = results[i];
    out << "    {\"name\": \"" << r.backbone << "_" << r.precision << "\""
        << ", \"backbone\": \"" << r.backbone << "\""
        << ", \"precision\": \"" << r.precision << "\""
        << ", \"auroc\": " << r.auroc
        << ", \"single_row_p50_ms\": " << r.single_row_p50_ms
        << ", \"single_row_p99_ms\": " << r.single_row_p99_ms
        << ", \"sequential_rps\": " << r.sequential_rps
        << ", \"batched_rps\": " << r.batched_rps
        << ", \"batch_speedup\": " << r.batch_speedup
        << ", \"engine_p50_ms\": " << r.engine_p50_ms
        << ", \"engine_p99_ms\": " << r.engine_p99_ms
        << ", \"mean_batch_rows\": " << r.mean_batch_rows
        << ",\n     \"kernel_counters\": ";
    WriteCountersJson(out, r.counters, "     ");
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  // f64-vs-f32 comparison per backbone: the acceptance numbers (RPS ratio at
  // matched AUROC, byte-traffic reduction) in one place.
  out << "  \"precision_comparison\": [\n";
  bool first = true;
  for (size_t i = 0; i + 1 < results.size(); i += 2) {
    const VariantResult& f64 = results[i];
    const VariantResult& f32 = results[i + 1];
    if (f64.backbone != f32.backbone || !f64.ok || !f32.ok) continue;
    if (!first) out << ",\n";
    first = false;
    double seq_ratio =
        f64.sequential_rps > 0.0 ? f32.sequential_rps / f64.sequential_rps : 0.0;
    double batched_ratio =
        f64.batched_rps > 0.0 ? f32.batched_rps / f64.batched_rps : 0.0;
    double byte_ratio =
        f64.total_bytes > 0.0 ? f32.total_bytes / f64.total_bytes : 0.0;
    out << "    {\"backbone\": \"" << f64.backbone << "\""
        << ", \"sequential_rps_ratio\": " << seq_ratio
        << ", \"batched_rps_ratio\": " << batched_ratio
        << ", \"auroc_f64\": " << f64.auroc << ", \"auroc_f32\": " << f32.auroc
        << ", \"auroc_delta\": " << std::abs(f32.auroc - f64.auroc)
        << ", \"kernel_bytes_f64\": " << f64.total_bytes
        << ", \"kernel_bytes_f32\": " << f32.total_bytes
        << ", \"kernel_bytes_ratio\": " << byte_ratio << "}";
  }
  out << "\n  ]\n}\n";
  std::printf("\nwrote BENCH_serving.json\n");
}

int RunAll() {
  bench::Banner("Serving: frozen-artifact inductive inference",
                "Micro-batching amortizes per-request subgraph extraction; "
                "the f32 SIMD tier halves kernel traffic at matched AUROC.");
  // Count kernel work (not trace it — counters add one mutex op per kernel
  // call, spans would add clock reads) so the JSON can report exact
  // per-kernel FLOP/byte totals, reset per model variant.
  obs::KernelCounters::Reset();
  obs::KernelCounters::Enable();

  // Binary task so AUROC applies directly to the served positive-class
  // scores (the ROADMAP acceptance is an AUROC delta bound).
  TabularDataset train = MakeClusters({.num_rows = 400,
                                       .num_classes = 2,
                                       .dim_informative = 8,
                                       .dim_noise = 4,
                                       .seed = 7});
  Rng rng(17);
  Split split = StratifiedSplit(train.class_labels(), 0.7, 0.15, rng);
  TabularDataset fresh = MakeClusters({.num_rows = 256,
                                       .num_classes = 2,
                                       .dim_informative = 8,
                                       .dim_noise = 4,
                                       .seed = 99});

  std::vector<VariantResult> results;
  for (GnnBackbone backbone :
       {GnnBackbone::kGcn, GnnBackbone::kSage, GnnBackbone::kGin}) {
    std::vector<VariantResult> pair =
        BenchBackbone(backbone, train, split, fresh);
    results.insert(results.end(), pair.begin(), pair.end());
  }

  bench::TablePrinter table(
      {"model", "auroc", "1row p50(ms)", "seq rps", "batched rps", "speedup",
       "kernel MB"},
      {12, 8, 14, 12, 14, 10, 12});
  table.PrintHeader();
  for (const VariantResult& r : results) {
    table.PrintRow({r.backbone + "_" + r.precision, bench::Fmt(r.auroc),
                    bench::Fmt(r.single_row_p50_ms),
                    bench::Fmt(r.sequential_rps, 1),
                    bench::Fmt(r.batched_rps, 1),
                    bench::Fmt(r.batch_speedup, 2),
                    bench::Fmt(r.total_bytes / 1e6, 1)});
  }
  WriteJson(results, train.NumRows(), fresh.NumRows());
  return 0;
}

}  // namespace
}  // namespace gnn4tdl

int main() { return gnn4tdl::RunAll(); }
