// Multi-tenant serving load benchmark (operational): the standing load-test
// harness pointed at a two-tenant registry. An interactive tenant (GCN on the
// f32 tier, 3x WRR weight, small queue) and a batch tenant
// (SAGE on f64, larger batches) share one engine; the seeded open-loop
// generator sweeps offered RPS to trace a saturation curve. The claims under
// test: (1) achieved RPS tracks offered until the engine saturates, after
// which admission control sheds load as typed rejections instead of unbounded
// queueing; (2) every rejection the generator observed reconciles exactly
// against the engine's counters at every sweep point.
//
// Writes BENCH_load.json (offered vs achieved RPS, per-tenant p50/p99 and SLO
// attainment, rejection counts with accounting verdicts) next to the working
// directory so load behavior is diffable across PRs.

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
#include "serve/frozen_model.h"
#include "serve/registry.h"
#include "serve/tenant_engine.h"

namespace gnn4tdl {
namespace {

// Offered-RPS sweep for the saturation curve. The top points are well past
// what one core serves, so the interactive tenant's small queue must shed.
constexpr double kOfferedRps[] = {500, 2000, 8000, 16000, 32000};
constexpr double kPointDurationS = 0.4;

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

/// Loads each spec's artifact into a fresh registry. A new registry (and so a
/// new engine) per sweep point keeps CheckAccounting exact: the engine's
/// counters cover exactly one generator run.
Status BuildRegistry(const std::vector<TenantSpec>& specs,
                     const std::vector<std::string>& artifacts,
                     ModelRegistry* registry) {
  for (size_t i = 0; i < specs.size(); ++i) {
    FrozenModelOptions load_options;
    load_options.precision = specs[i].precision;
    std::istringstream in(artifacts[i]);
    StatusOr<FrozenModel> model = FrozenModel::Load(in, load_options);
    if (!model.ok()) return model.status();
    GNN4TDL_RETURN_IF_ERROR(registry->AddTenant(
        specs[i].name, std::move(*model), specs[i].options));
  }
  return Status::OK();
}

struct SweepPoint {
  double offered_rps = 0.0;
  LoadReport report;
  bool accounting_ok = false;
};

void WriteJson(const std::vector<TenantSpec>& specs,
               const std::vector<SweepPoint>& sweep,
               const SweepPoint& closed_loop, bool accounting_ok) {
  std::ofstream out("BENCH_load.json");
  if (!out) {
    std::fprintf(stderr, "cannot write BENCH_load.json\n");
    return;
  }
  auto write_report = [&out](const SweepPoint& point, const char* indent) {
    const LoadReport& r = point.report;
    out << "{\"offered_rps\": " << point.offered_rps
        << ", \"achieved_rps\": " << r.achieved_rps
        << ", \"wall_s\": " << r.wall_s << ", \"offered\": " << r.offered
        << ", \"completed\": " << r.completed
        << ", \"rejected\": " << r.rejected << ", \"errors\": " << r.errors
        << ", \"accounting_ok\": " << (point.accounting_ok ? "true" : "false")
        << ",\n" << indent << " \"tenants\": [";
    for (size_t i = 0; i < r.tenants.size(); ++i) {
      const TenantLoadStats& t = r.tenants[i];
      if (i > 0) out << ",";
      out << "\n" << indent << "   {\"name\": \"" << t.tenant << "\""
          << ", \"offered\": " << t.offered
          << ", \"completed\": " << t.completed
          << ", \"rejected\": " << t.rejected << ", \"errors\": " << t.errors
          << ", \"achieved_rps\": " << t.achieved_rps
          << ", \"p50_ms\": " << t.p50_ms << ", \"p99_ms\": " << t.p99_ms
          << ", \"slo_ms\": " << t.slo_ms
          << ", \"slo_attainment\": " << t.slo_attainment << "}";
    }
    out << "\n" << indent << " ]}";
  };

  bench::WriteJsonHeader(out, "load");
  out << "  \"schema_version\": 1,\n";
  out << "  \"tenancy\": \"multi\",\n";
  out << "  \"accounting_ok\": " << (accounting_ok ? "true" : "false")
      << ",\n";
  out << "  \"tenants\": [\n";
  for (size_t i = 0; i < specs.size(); ++i) {
    const TenantSpec& s = specs[i];
    out << "    {\"name\": \"" << s.name << "\", \"backbone\": \""
        << GnnBackboneName(s.backbone) << "\", \"precision\": \""
        << kernels::PrecisionName(s.precision) << "\""
        << ", \"weight\": " << s.options.weight
        << ", \"max_batch\": " << s.options.max_batch
        << ", \"queue_capacity\": " << s.options.queue_capacity
        << ", \"slo_ms\": " << s.options.slo_ms
        << ", \"traffic_weight\": " << s.traffic_weight << "}"
        << (i + 1 < specs.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"saturation\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    out << "    ";
    write_report(sweep[i], "    ");
    out << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"closed_loop\": ";
  write_report(closed_loop, "  ");
  out << "\n}\n";
  std::printf("\nwrote BENCH_load.json\n");
}

int RunAll() {
  bench::Banner("Load: multi-tenant saturation under admission control",
                "Open-loop Poisson arrivals sweep offered RPS over a "
                "two-tenant engine; rejections reconcile exactly.");

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
  specs[0].options.queue_capacity = 64;  // small on purpose: sheds first
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

  auto run_point = [&](const LoadOptions& load) -> StatusOr<SweepPoint> {
    ModelRegistry registry;
    GNN4TDL_RETURN_IF_ERROR(BuildRegistry(specs, artifacts, &registry));
    MultiTenantEngine engine(&registry);
    std::vector<TenantTraffic> traffic = {
        {specs[0].name, specs[0].traffic_weight, &features[0]},
        {specs[1].name, specs[1].traffic_weight, &features[1]}};
    LoadGenerator generator(&engine, std::move(traffic), load);
    StatusOr<LoadReport> report = generator.Run();
    if (!report.ok()) return report.status();
    engine.Stop();  // flush accounting before reconciling against it
    SweepPoint point;
    point.offered_rps = load.offered_rps;
    point.report = std::move(*report);
    Status accounting = CheckAccounting(engine, point.report);
    point.accounting_ok = accounting.ok();
    if (!accounting.ok()) {
      std::fprintf(stderr, "accounting mismatch at %.0f rps: %s\n",
                   load.offered_rps, accounting.ToString().c_str());
    }
    return point;
  };

  bench::TablePrinter table({"offered rps", "achieved", "completed",
                             "rejected", "int p99(ms)", "int slo",
                             "bat p99(ms)", "acct"},
                            {12, 10, 10, 10, 12, 8, 12, 6});
  table.PrintHeader();

  bool accounting_ok = true;
  std::vector<SweepPoint> sweep;
  for (double offered : kOfferedRps) {
    LoadOptions load;
    load.mode = LoadOptions::Mode::kOpenLoop;
    load.offered_rps = offered;
    load.duration_s = kPointDurationS;
    load.seed = 42;
    StatusOr<SweepPoint> point = run_point(load);
    if (!point.ok()) {
      std::fprintf(stderr, "sweep point %.0f rps failed: %s\n", offered,
                   point.status().ToString().c_str());
      return 1;
    }
    accounting_ok = accounting_ok && point->accounting_ok;
    const LoadReport& r = point->report;
    table.PrintRow({bench::Fmt(offered, 0), bench::Fmt(r.achieved_rps, 1),
                    bench::Fmt(static_cast<double>(r.completed), 0),
                    bench::Fmt(static_cast<double>(r.rejected), 0),
                    bench::Fmt(r.tenants[0].p99_ms, 2),
                    bench::Fmt(r.tenants[0].slo_attainment, 2),
                    bench::Fmt(r.tenants[1].p99_ms, 2),
                    point->accounting_ok ? "ok" : "FAIL"});
    sweep.push_back(std::move(*point));
  }

  // One closed-loop run for the record: a fixed client population coordinates
  // with the server, so it shows sustainable throughput instead of overload.
  LoadOptions closed;
  closed.mode = LoadOptions::Mode::kClosedLoop;
  closed.closed_workers = 4;
  closed.requests_per_worker = 100;
  closed.seed = 42;
  StatusOr<SweepPoint> closed_point = run_point(closed);
  if (!closed_point.ok()) {
    std::fprintf(stderr, "closed-loop run failed: %s\n",
                 closed_point.status().ToString().c_str());
    return 1;
  }
  accounting_ok = accounting_ok && closed_point->accounting_ok;
  std::printf("\nclosed loop (4 workers x 100): %s\n",
              closed_point->report.ToString().c_str());

  WriteJson(specs, sweep, *closed_point, accounting_ok);
  return accounting_ok ? 0 : 1;
}

}  // namespace
}  // namespace gnn4tdl

int main() { return gnn4tdl::RunAll(); }
