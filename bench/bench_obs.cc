// Observability overhead benchmark (operational): the flight recorder is
// always-on by default, so its per-request cost — one digest build plus one
// striped-mutex ring push — must be noise next to scoring. This bench runs
// the same two-tenant closed-loop workload as bench_load with the recorder
// enabled and disabled (interleaved repetitions, best-of to shed scheduler
// noise) and reports the achieved-RPS ratio; the serving PR's acceptance
// bound is recorder-on within 5% of recorder-off. A final open-loop point
// runs with the recorder on and snapshots its stats (recorded / ring /
// retained / evicted) so ring sizing is diffable across PRs.
//
// Writes BENCH_obs.json (per-rep RPS for both configs, best-of ratio,
// within-5% verdict, recorder stats and options) in the working directory.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "kernels/kernels.h"
#include "load/loadgen.h"
#include "models/knn_gnn.h"
#include "obs/recorder.h"
#include "serve/frozen_model.h"
#include "serve/registry.h"
#include "serve/tenant_engine.h"

namespace gnn4tdl {
namespace {

// Interleaved A/B repetitions: on/off pairs run back to back so thermal and
// scheduler drift hits both configs alike; best-of compares the least
// perturbed run of each.
constexpr int kReps = 5;
constexpr int kClosedWorkers = 4;
constexpr int kRequestsPerWorker = 150;

struct TenantSpec {
  const char* name;
  GnnBackbone backbone;
  kernels::Precision precision;
  TenantOptions options;
  double traffic_weight;
};

StatusOr<std::string> TrainArtifact(GnnBackbone backbone,
                                    const TabularDataset& train,
                                    const Split& split) {
  InstanceGraphGnnOptions options;
  options.backbone = backbone;
  options.hidden_dim = 24;
  options.num_layers = 2;
  options.knn.k = 8;
  options.train.max_epochs = 25;
  options.seed = 3;
  InstanceGraphGnn model(options);
  GNN4TDL_RETURN_IF_ERROR(model.Fit(train, split));
  std::stringstream artifact;
  GNN4TDL_RETURN_IF_ERROR(FrozenModel::Save(model, artifact));
  return artifact.str();
}

struct RunResult {
  LoadReport report;
  bool accounting_ok = false;
  obs::FlightRecorder::Stats recorder_stats;
  size_t ring_size = 0;
};

void WriteJson(const std::vector<double>& rps_on,
               const std::vector<double>& rps_off, double best_on,
               double best_off, double ratio, bool within_bound,
               const RunResult& open_point,
               const obs::FlightRecorderOptions& recorder_options,
               bool accounting_ok) {
  std::ofstream out("BENCH_obs.json");
  if (!out) {
    std::fprintf(stderr, "cannot write BENCH_obs.json\n");
    return;
  }
  auto write_series = [&out](const std::vector<double>& values) {
    out << "[";
    for (size_t i = 0; i < values.size(); ++i)
      out << (i ? ", " : "") << values[i];
    out << "]";
  };
  bench::WriteJsonHeader(out, "obs");
  out << "  \"schema_version\": 1,\n";
  out << "  \"workload\": {\"mode\": \"closed_loop\", \"workers\": "
      << kClosedWorkers << ", \"requests_per_worker\": "
      << kRequestsPerWorker << ", \"reps\": " << kReps << "},\n";
  out << "  \"closed_loop_rps\": {\n    \"recorder_on\": ";
  write_series(rps_on);
  out << ",\n    \"recorder_off\": ";
  write_series(rps_off);
  out << ",\n    \"best_on\": " << best_on << ",\n    \"best_off\": "
      << best_off << ",\n    \"on_over_off_ratio\": " << ratio
      << ",\n    \"within_5pct\": " << (within_bound ? "true" : "false")
      << "\n  },\n";
  out << "  \"recorder_options\": {\"ring_capacity\": "
      << recorder_options.ring_capacity << ", \"stripes\": "
      << recorder_options.stripes << ", \"retained_capacity\": "
      << recorder_options.retained_capacity << "},\n";
  const obs::FlightRecorder::Stats& s = open_point.recorder_stats;
  out << "  \"open_loop_point\": {\"offered_rps\": 2000, \"achieved_rps\": "
      << open_point.report.achieved_rps << ", \"completed\": "
      << open_point.report.completed << ", \"rejected\": "
      << open_point.report.rejected << ",\n    \"recorder\": {\"recorded\": "
      << s.recorded << ", \"in_ring\": " << open_point.ring_size
      << ", \"retained\": "
      << s.retained << ", \"ring_evicted\": " << s.ring_evicted
      << ", \"retained_evicted\": " << s.retained_evicted << "}},\n";
  out << "  \"accounting_ok\": " << (accounting_ok ? "true" : "false")
      << "\n}\n";
  std::printf("\nwrote BENCH_obs.json\n");
}

int RunAll() {
  bench::Banner("Obs: flight-recorder overhead on the serving path",
                "The always-on request digest ring must cost <5% achieved "
                "RPS vs a recorder-off engine on the closed-loop two-tenant "
                "workload.");

  TabularDataset train = MakeClusters({.num_rows = 300,
                                       .num_classes = 2,
                                       .dim_informative = 6,
                                       .dim_noise = 4,
                                       .seed = 7});
  Rng rng(17);
  Split split = StratifiedSplit(train.class_labels(), 0.7, 0.15, rng);
  TabularDataset fresh = MakeClusters({.num_rows = 128,
                                       .num_classes = 2,
                                       .dim_informative = 6,
                                       .dim_noise = 4,
                                       .seed = 99});

  std::vector<TenantSpec> specs(2);
  specs[0].name = "interactive";
  specs[0].backbone = GnnBackbone::kGcn;
  specs[0].precision = kernels::Precision::kF32;
  specs[0].options.max_batch = 8;
  specs[0].options.queue_capacity = 64;
  specs[0].options.weight = 3;
  specs[0].options.slo_ms = 20.0;
  specs[0].traffic_weight = 2.0;
  specs[1].name = "batch";
  specs[1].backbone = GnnBackbone::kSage;
  specs[1].precision = kernels::Precision::kF64;
  specs[1].options.max_batch = 32;
  specs[1].options.queue_capacity = 256;
  specs[1].options.weight = 1;
  specs[1].options.slo_ms = 100.0;
  specs[1].traffic_weight = 1.0;

  std::vector<std::string> artifacts;
  std::vector<Matrix> features;
  for (const TenantSpec& spec : specs) {
    StatusOr<std::string> artifact =
        TrainArtifact(spec.backbone, train, split);
    if (!artifact.ok()) {
      std::fprintf(stderr, "[%s] train failed: %s\n", spec.name,
                   artifact.status().ToString().c_str());
      return 1;
    }
    std::istringstream in(*artifact);
    StatusOr<FrozenModel> model = FrozenModel::Load(in);
    if (!model.ok()) {
      std::fprintf(stderr, "[%s] load failed: %s\n", spec.name,
                   model.status().ToString().c_str());
      return 1;
    }
    StatusOr<Matrix> x = model->Featurize(fresh);
    if (!x.ok()) {
      std::fprintf(stderr, "[%s] featurize failed: %s\n", spec.name,
                   x.status().ToString().c_str());
      return 1;
    }
    artifacts.push_back(std::move(*artifact));
    features.push_back(std::move(*x));
  }

  auto run_point = [&](const LoadOptions& load,
                       bool recorder_on) -> StatusOr<RunResult> {
    ModelRegistry registry;
    for (size_t i = 0; i < specs.size(); ++i) {
      FrozenModelOptions load_options;
      load_options.precision = specs[i].precision;
      std::istringstream in(artifacts[i]);
      StatusOr<FrozenModel> model = FrozenModel::Load(in, load_options);
      if (!model.ok()) return model.status();
      GNN4TDL_RETURN_IF_ERROR(registry.AddTenant(
          specs[i].name, std::move(*model), specs[i].options));
    }
    MultiTenantEngineOptions engine_options;
    engine_options.recorder.enabled = recorder_on;
    MultiTenantEngine engine(&registry, engine_options);
    std::vector<TenantTraffic> traffic = {
        {specs[0].name, specs[0].traffic_weight, &features[0]},
        {specs[1].name, specs[1].traffic_weight, &features[1]}};
    LoadGenerator generator(&engine, std::move(traffic), load);
    StatusOr<LoadReport> report = generator.Run();
    if (!report.ok()) return report.status();
    engine.Stop();
    RunResult result;
    result.report = std::move(*report);
    Status accounting = CheckAccounting(engine, result.report);
    result.accounting_ok = accounting.ok();
    if (!accounting.ok()) {
      std::fprintf(stderr, "accounting mismatch (recorder %s): %s\n",
                   recorder_on ? "on" : "off", accounting.ToString().c_str());
    }
    result.recorder_stats = engine.recorder().stats();
    result.ring_size = engine.recorder().RingSnapshot().size();
    return result;
  };

  LoadOptions closed;
  closed.mode = LoadOptions::Mode::kClosedLoop;
  closed.closed_workers = kClosedWorkers;
  closed.requests_per_worker = kRequestsPerWorker;
  closed.seed = 42;

  bench::TablePrinter table(
      {"rep", "recorder", "achieved rps", "completed", "acct"},
      {5, 10, 14, 11, 6});
  table.PrintHeader();

  bool accounting_ok = true;
  std::vector<double> rps_on, rps_off;
  for (int rep = 0; rep < kReps; ++rep) {
    for (bool on : {true, false}) {
      StatusOr<RunResult> result = run_point(closed, on);
      if (!result.ok()) {
        std::fprintf(stderr, "closed-loop rep %d failed: %s\n", rep,
                     result.status().ToString().c_str());
        return 1;
      }
      accounting_ok = accounting_ok && result->accounting_ok;
      (on ? rps_on : rps_off).push_back(result->report.achieved_rps);
      table.PrintRow({bench::Fmt(rep, 0), on ? "on" : "off",
                      bench::Fmt(result->report.achieved_rps, 1),
                      bench::Fmt(static_cast<double>(result->report.completed),
                                 0),
                      result->accounting_ok ? "ok" : "FAIL"});
    }
  }

  const double best_on = *std::max_element(rps_on.begin(), rps_on.end());
  const double best_off = *std::max_element(rps_off.begin(), rps_off.end());
  const double ratio = best_on / best_off;
  const bool within_bound = ratio >= 0.95;
  std::printf("\nbest-of-%d achieved RPS: recorder on %.1f, off %.1f "
              "(on/off = %.4f) -> %s\n",
              kReps, best_on, best_off, ratio,
              within_bound ? "within 5% bound" : "OUTSIDE 5% bound");

  // Open-loop point with the recorder on: exercises admission control and
  // records ring occupancy for a known offered load.
  LoadOptions open;
  open.mode = LoadOptions::Mode::kOpenLoop;
  open.offered_rps = 2000;
  open.duration_s = 0.4;
  open.seed = 42;
  StatusOr<RunResult> open_point = run_point(open, /*recorder_on=*/true);
  if (!open_point.ok()) {
    std::fprintf(stderr, "open-loop point failed: %s\n",
                 open_point.status().ToString().c_str());
    return 1;
  }
  accounting_ok = accounting_ok && open_point->accounting_ok;
  const obs::FlightRecorder::Stats& s = open_point->recorder_stats;
  std::printf("open loop @2000 rps: %s\n",
              open_point->report.ToString().c_str());
  std::printf("recorder: %llu recorded, %llu in ring, %llu retained "
              "slo-breach digests, %llu ring-evicted\n",
              static_cast<unsigned long long>(s.recorded),
              static_cast<unsigned long long>(open_point->ring_size),
              static_cast<unsigned long long>(s.retained),
              static_cast<unsigned long long>(s.ring_evicted));

  obs::FlightRecorderOptions recorder_options;  // engine default
  WriteJson(rps_on, rps_off, best_on, best_off, ratio, within_bound,
            *open_point, recorder_options, accounting_ok);
  if (!accounting_ok) return 1;
  return 0;
}

}  // namespace
}  // namespace gnn4tdl

int main() { return gnn4tdl::RunAll(); }
