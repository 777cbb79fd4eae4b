// serve_open: an open loop of Poisson arrivals into a two-tenant
// MultiTenantEngine over a 4000-row table. Batches are small (1-8 rows) and
// the table is big, so per-request fixed costs -- the kNN scan, subgraph
// extraction, tiny kernels on the pool, queueing -- are most of each
// request. Each tenant's batching deadline sits well below its batch service
// time, so latency reflects the work rather than the deadline.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "data/metrics.h"
#include "harness.h"
#include "load/loadgen.h"
#include "serve/registry.h"
#include "serve/tenant_engine.h"

namespace perfbench {

using gnn4tdl::FrozenModel;
using gnn4tdl::GnnBackbone;
using gnn4tdl::kernels::Precision;

namespace {

constexpr size_t kTrainRows = 4000;
constexpr size_t kPoolRows = 2048;
constexpr size_t kDim = 32;
// Offered load: about half of what the engine worker can serve here.
constexpr double kOfferedRps = 200.0;
constexpr size_t kSampleRows = 16;
constexpr size_t kWarmupBatches = 4;
constexpr size_t kCanonicalBatches = 8;
constexpr size_t kMaxReplayBatches = 256;

struct TenantSpec {
  const char* name;
  GnnBackbone backbone;
  Precision precision;
  gnn4tdl::TenantOptions options;
  double traffic_weight;
};

std::vector<TenantSpec> Specs() {
  std::vector<TenantSpec> specs(2);
  specs[0].name = "interactive";
  specs[0].backbone = GnnBackbone::kGcn;
  specs[0].precision = Precision::kF32;
  specs[0].options.max_batch = 8;
  specs[0].options.deadline_ms = 0.5;
  specs[0].options.weight = 3;
  specs[0].options.slo_ms = 10.0;
  specs[0].traffic_weight = 2.0;
  specs[1].name = "bulk";
  specs[1].backbone = GnnBackbone::kSage;
  specs[1].precision = Precision::kF64;
  specs[1].options.max_batch = 32;
  specs[1].options.deadline_ms = 2.0;
  specs[1].options.weight = 1;
  specs[1].options.slo_ms = 50.0;
  specs[1].traffic_weight = 1.0;
  return specs;
}

gnn4tdl::InstanceGraphGnnOptions ModelOptions(GnnBackbone backbone,
                                              uint64_t seed) {
  gnn4tdl::InstanceGraphGnnOptions o;
  o.backbone = backbone;
  o.hidden_dim = 64;
  o.num_layers = 2;
  o.knn.k = 10;
  o.train.max_epochs = 10;
  o.seed = DeriveSeed(seed, 3);
  return o;
}

struct State {
  std::vector<TenantSpec> specs = Specs();
  Tables tables;
  gnn4tdl::ModelRegistry registry;
  std::vector<Matrix> pools;  // featurized held-out rows, one per tenant
  std::vector<gnn4tdl::Arrival> schedule;
  SetupLayers layers;
};

StatusOr<std::unique_ptr<State>> Setup(const RunOptions& options,
                                       double phase_seconds) {
  auto s = std::make_unique<State>();
  s->tables = MakeTables(options.seed, kTrainRows, kPoolRows, kDim);
  const gnn4tdl::InstanceGraphGnnOptions graph_options =
      ModelOptions(GnnBackbone::kGcn, options.seed);
  StatusOr<Matrix> x = GraphFeatures(graph_options, s->tables);
  if (!x.ok()) return x.status();
  // Both tenants train on the same table with the same k: one graph.
  const gnn4tdl::Graph graph =
      BuildKnnGraph(*x, graph_options.knn, &s->layers.construct_ms);

  const gnn4tdl::TabularDataset sample =
      TakeRows(s->tables.heldout, 0, kSampleRows);
  for (const TenantSpec& spec : s->specs) {
    StatusOr<Fitted> fitted =
        FitOnGraph(ModelOptions(spec.backbone, options.seed), graph, s->tables);
    if (!fitted.ok()) return fitted.status();
    s->layers.fit_ms += fitted->fit_ms;
    s->layers.epochs += fitted->epochs;
    StatusOr<std::string> artifact =
        SaveArtifact(*fitted->model, &s->layers.save_ms);
    if (!artifact.ok()) return artifact.status();
    GNN4TDL_RETURN_IF_ERROR(
        CheckServedLogits(*fitted->model, *artifact, sample, spec.name));
    StatusOr<FrozenModel> frozen =
        LoadArtifact(*artifact, spec.precision, &s->layers.load_ms);
    if (!frozen.ok()) return frozen.status();
    StatusOr<Matrix> pool = frozen->Featurize(s->tables.heldout);
    if (!pool.ok()) return pool.status();
    for (size_t b = 0; b < kWarmupBatches; ++b) {
      const size_t begin = b * spec.options.max_batch;
      StatusOr<Matrix> warm = frozen->ScoreFeatures(
          SliceRows(*pool, begin, begin + spec.options.max_batch));
      if (!warm.ok()) return warm.status();
    }
    s->pools.push_back(std::move(*pool));
    GNN4TDL_RETURN_IF_ERROR(
        s->registry.AddTenant(spec.name, std::move(*frozen), spec.options));
  }

  std::vector<gnn4tdl::TenantTraffic> traffic;
  for (size_t t = 0; t < s->specs.size(); ++t) {
    traffic.push_back(
        {s->specs[t].name, s->specs[t].traffic_weight, &s->pools[t]});
  }
  gnn4tdl::LoadOptions load;
  load.offered_rps = kOfferedRps;
  load.duration_s = phase_seconds;
  load.seed = DeriveSeed(options.seed, 4);
  s->schedule = gnn4tdl::BuildOpenLoopSchedule(traffic, load);
  if (s->schedule.empty()) return Status::Internal("empty arrival schedule");
  return s;
}

/// Drains one tenant's futures in FIFO order -- the order the engine
/// completes them -- on one thread, timing each from its due time.
class Collector {
 public:
  struct Pending {
    std::future<std::vector<double>> future;
    int64_t due_ns = 0;
    int label = 0;
  };

  explicit Collector(double slo_ms) : slo_ms_(slo_ms) {
    thread_ = std::thread([this] { Run(); });
  }
  ~Collector() { Join(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Push(Pending pending) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(pending));
    }
    cv_.notify_one();
  }

  /// No more pushes; returns once every pushed future is collected.
  void Join() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  // Read after Join().
  std::vector<double> latency_ms;
  std::vector<double> scores;
  std::vector<int> labels;
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t within_slo = 0;
  int64_t last_done_ns = 0;

 private:
  void Run() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      try {
        std::vector<double> logits = p.future.get();
        const int64_t done = NowNs();
        const double ms = MsBetween(p.due_ns, done);
        latency_ms.push_back(ms);
        ++completed;
        if (ms <= slo_ms_) ++within_slo;
        last_done_ns = std::max(last_done_ns, done);
        scores.push_back(logits.size() == 2 ? logits[1] - logits[0] : 0.0);
        labels.push_back(p.label);
      } catch (const std::exception&) {
        ++errors;
      }
    }
  }

  const double slo_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool closed_ = false;
  std::thread thread_;  // last: started after the members it uses
};

struct Phase {
  std::vector<std::vector<double>> latency_ms;  // per tenant
  std::vector<double> lateness_ms;
  gnn4tdl::LoadReport report;
  uint64_t within_slo = 0;
  double wall_s = 0.0;
  double auroc = 0.0;
  gnn4tdl::ServeStats stats;
  std::vector<gnn4tdl::ServeStats> tenant_stats;
  std::vector<gnn4tdl::obs::RequestDigest> digests;
};

/// One open-loop run of the schedule against a fresh engine, reconciled with
/// CheckAccounting afterwards.
StatusOr<Phase> ServePhase(const State& s) {
  gnn4tdl::MultiTenantEngineOptions engine_options;
  // Room for every request's digest: the batch-size mix and queue waits are
  // read from them.
  engine_options.recorder.ring_capacity =
      std::max<size_t>(1024, 2 * s.schedule.size());
  gnn4tdl::MultiTenantEngine engine(&s.registry, engine_options);

  Phase phase;
  phase.report.tenants.resize(s.specs.size());
  std::vector<std::unique_ptr<Collector>> collectors;
  for (size_t t = 0; t < s.specs.size(); ++t) {
    phase.report.tenants[t].tenant = s.specs[t].name;
    collectors.push_back(
        std::make_unique<Collector>(s.specs[t].options.slo_ms));
  }
  const std::vector<int>& labels = s.tables.heldout.class_labels();

  const int64_t start = NowNs();
  for (size_t i = 0; i < s.schedule.size(); ++i) {
    const gnn4tdl::Arrival& a = s.schedule[i];
    const int64_t due = start + a.at_ns;
    const int64_t wait = due - NowNs();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    phase.lateness_ms.push_back(MsBetween(due, NowNs()));
    const Matrix& pool = s.pools[a.traffic];
    std::vector<double> features(pool.row_data(a.row),
                                 pool.row_data(a.row) + pool.cols());
    StatusOr<gnn4tdl::SubmitResult> submitted = engine.SubmitTraced(
        s.specs[a.traffic].name, std::move(features), i + 1);
    gnn4tdl::TenantLoadStats& tenant = phase.report.tenants[a.traffic];
    ++phase.report.offered;
    ++tenant.offered;
    if (submitted.ok()) {
      collectors[a.traffic]->Push(
          {std::move(submitted->future), due, labels[a.row]});
    } else if (submitted.status().code() ==
               gnn4tdl::StatusCode::kResourceExhausted) {
      ++phase.report.rejected;
      ++tenant.rejected;
    } else {
      ++phase.report.errors;
      ++tenant.errors;
    }
  }

  int64_t last_done = start;
  std::vector<double> scores;
  std::vector<int> score_labels;
  for (size_t t = 0; t < collectors.size(); ++t) {
    Collector& c = *collectors[t];
    c.Join();
    gnn4tdl::TenantLoadStats& tenant = phase.report.tenants[t];
    tenant.completed = c.completed;
    tenant.errors += c.errors;
    phase.report.completed += c.completed;
    phase.report.errors += c.errors;
    phase.within_slo += c.within_slo;
    last_done = std::max(last_done, c.last_done_ns);
    phase.latency_ms.push_back(std::move(c.latency_ms));
    scores.insert(scores.end(), c.scores.begin(), c.scores.end());
    score_labels.insert(score_labels.end(), c.labels.begin(), c.labels.end());
  }
  phase.wall_s = MsBetween(start, last_done) / 1e3;
  phase.report.wall_s = phase.wall_s;
  phase.auroc = gnn4tdl::Auroc(scores, score_labels);

  engine.Stop();
  Status accounting = gnn4tdl::CheckAccounting(engine, phase.report);
  if (!accounting.ok()) {
    return Status::Internal("check_accounting: " + accounting.ToString());
  }
  phase.stats = engine.Stats();
  for (const TenantSpec& spec : s.specs) {
    StatusOr<gnn4tdl::ServeStats> stats = engine.TenantStats(spec.name);
    if (!stats.ok()) return stats.status();
    phase.tenant_stats.push_back(*stats);
  }
  phase.digests = engine.recorder().RingSnapshot();
  return phase;
}

/// The engine's batch-size mix as (tenant, rows) -> batches, from digests.
std::map<std::pair<size_t, size_t>, size_t> BatchMix(const State& s,
                                                     const Phase& phase) {
  std::map<std::pair<size_t, size_t>, size_t> requests;
  for (const gnn4tdl::obs::RequestDigest& d : phase.digests) {
    for (size_t t = 0; t < s.specs.size(); ++t) {
      if (d.tenant == s.specs[t].name && d.batch_size > 0) {
        ++requests[{t, d.batch_size}];
      }
    }
  }
  std::map<std::pair<size_t, size_t>, size_t> batches;
  for (const auto& [key, count] : requests) {
    batches[key] = std::max<size_t>(1, count / key.second);
  }
  return batches;
}

/// Replays the engine's batch-size mix, scaled down to at most
/// kMaxReplayBatches, through the ledger on the same row pools.
Status ReplayMix(const State& s, const Phase& phase, Ledger* ledger) {
  const auto mix = BatchMix(s, phase);
  size_t total = 0;
  for (const auto& [key, n] : mix) total += n;
  const double scale =
      total > kMaxReplayBatches
          ? static_cast<double>(kMaxReplayBatches) / static_cast<double>(total)
          : 1.0;
  std::vector<std::optional<ServedModel>> served(s.specs.size());
  std::vector<size_t> cursor(s.specs.size(), 0);
  for (const auto& [key, n] : mix) {
    const auto [t, rows] = key;
    if (!served[t].has_value()) {
      StatusOr<ServedModel> wrapped =
          ServedModel::Wrap(s.registry.Find(s.specs[t].name)->model);
      if (!wrapped.ok()) return wrapped.status();
      served[t].emplace(std::move(*wrapped));
    }
    const size_t replays = std::max<size_t>(
        1, static_cast<size_t>(std::lround(static_cast<double>(n) * scale)));
    const Matrix& pool = s.pools[t];
    for (size_t r = 0; r < replays; ++r) {
      if (cursor[t] + rows > pool.rows()) cursor[t] = 0;
      GNN4TDL_RETURN_IF_ERROR(ledger->Replay(
          *served[t], SliceRows(pool, cursor[t], cursor[t] + rows)));
      cursor[t] += rows;
    }
  }
  return Status::OK();
}

/// Deterministic kernel work: kCanonicalBatches full batches per tenant.
Status CanonicalPass(const State& s) {
  for (size_t t = 0; t < s.specs.size(); ++t) {
    const FrozenModel* model = s.registry.Find(s.specs[t].name)->model;
    const size_t rows = s.specs[t].options.max_batch;
    for (size_t b = 0; b < kCanonicalBatches; ++b) {
      StatusOr<Matrix> out =
          model->ScoreFeatures(SliceRows(s.pools[t], b * rows, (b + 1) * rows));
      if (!out.ok()) return out.status();
    }
  }
  return Status::OK();
}

/// Report lines with the issue's names for this workload.
void Describe(const State& s, const Phase& phase, Result* result) {
  const gnn4tdl::LoadReport& r = phase.report;
  for (size_t t = 0; t < s.specs.size(); ++t) {
    const std::vector<double>& lat = phase.latency_ms[t];
    const Tail tail = SupportedTail(lat);
    const std::string name = s.specs[t].name;
    const std::string n = "n=" + std::to_string(lat.size());
    for (double q : {0.5, 0.9, 0.95}) {
      result->Line(Fmt(name + "." + PercentileName(q) + "_ms",
                       NearestRank(lat, q), "ms", "from due time, " + n));
    }
    if (tail.fallback) {
      result->Line("  " + name + ".p99_ms unsupported: fewer than " +
                   std::to_string(kMinBeyond) + " samples beyond it, " + n);
    } else {
      result->Line(Fmt(name + ".p99_ms", tail.value, "ms", n));
    }
    const gnn4tdl::ServeStats& stats = phase.tenant_stats[t];
    result->Line(Fmt("engine." + name + ".batches",
                     static_cast<double>(stats.batches), "count",
                     "mean rows " + std::to_string(stats.mean_batch_rows)));
  }
  const double offered = static_cast<double>(r.offered);
  result->Line(Fmt("slo_attainment",
                   offered > 0 ? static_cast<double>(phase.within_slo) / offered
                               : 0.0,
                   "fraction",
                   std::to_string(phase.within_slo) + " of " +
                       std::to_string(r.offered) +
                       " offered within their tenant's slo_ms"));
  result->Line(Fmt("achieved_rps",
                   phase.wall_s > 0 ? static_cast<double>(r.completed) /
                                          phase.wall_s
                                    : 0.0,
                   "req/s", "offered " + std::to_string(kOfferedRps)));
  result->Line(Fmt("failed_frac",
                   offered > 0 ? static_cast<double>(r.rejected + r.errors) /
                                     offered
                               : 0.0,
                   "fraction",
                   std::to_string(r.rejected) + " rejected, " +
                       std::to_string(r.errors) + " failed"));
  // Engine layer (serve/tenant_engine) and the generator's health.
  std::vector<double> waits;
  double busy_ms = 0.0;
  for (const gnn4tdl::obs::RequestDigest& d : phase.digests) {
    waits.push_back(d.queue_wait_ms);
    if (d.batch_size > 0) {
      busy_ms += d.compute_ms / static_cast<double>(d.batch_size);
    }
  }
  const Tail wait_tail = SupportedTail(waits);
  result->Line(Fmt("engine.queue_wait_p50_ms", NearestRank(waits, 0.5), "ms",
                   "n=" + std::to_string(waits.size())));
  result->Line(Fmt("engine.queue_wait_" + PercentileName(wait_tail.q) + "_ms",
                   wait_tail.value, "ms"));
  result->Line(Fmt("engine.compute_ms_mean",
                   phase.stats.requests > 0
                       ? phase.stats.compute_ms_sum /
                             static_cast<double>(phase.stats.requests)
                       : 0.0,
                   "ms", "per request"));
  result->Line(Fmt("engine.busy_frac",
                   phase.wall_s > 0 ? busy_ms / (phase.wall_s * 1e3) : 0.0,
                   "fraction", "batch compute time over wall time"));
  const Tail late = SupportedTail(phase.lateness_ms);
  double late_max = 0.0;
  for (double v : phase.lateness_ms) late_max = std::max(late_max, v);
  result->Line(Fmt("gen.lateness_" + PercentileName(late.q) + "_ms",
                   late.value, "ms"));
  result->Line(Fmt("gen.lateness_max_ms", late_max, "ms"));
}

}  // namespace

RunOutcome RunServeOpen(const RunOptions& options) {
  RunOutcome out;
  const double slice_seconds = SliceSeconds(options);
  std::vector<double> setup_s;
  StatusOr<std::unique_ptr<State>> state = RepeatSetup<State>(
      options, [&] { return Setup(options, slice_seconds); }, &setup_s);
  if (!state.ok()) {
    out.failed_check = state.status().ToString();
    return out;
  }
  const State& s = **state;
  out.result.Line("serve_open: " + std::to_string(kTrainRows) +
                  "-row table, interactive GCN f32 + bulk SAGE f64, " +
                  std::to_string(s.schedule.size()) + " arrivals at " +
                  std::to_string(kOfferedRps) + " req/s over " +
                  std::to_string(slice_seconds) + " s");

  // Every slice serves the same schedule against a fresh engine.
  std::vector<Phase> slices;
  auto serve = [&]() -> Status {
    StatusOr<Phase> phase = ServePhase(s);
    if (!phase.ok()) return phase.status();
    out.attempted += phase->report.offered;
    out.failed += phase->report.rejected + phase->report.errors;
    slices.push_back(std::move(*phase));
    return Status::OK();
  };
  Status served = serve();
  if (!served.ok()) {
    out.failed_check = served.ToString();
    return out;
  }
  if (!options.trace) {
    const Phase& first = slices[0];
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.latency_ms = first.latency_ms[0];
    e2e.rows = static_cast<double>(first.report.completed);
    e2e.wall_s = first.wall_s;
    e2e.auroc = first.auroc;
    EmitEndToEnd(e2e, "interactive request latency from due time",
                 &out.result);
    Describe(s, first, &out.result);
    return out;
  }

  // Traced run: the first slice ran untraced. Serve the schedule traced,
  // count kernels over fixed work, replay the traced slice's batch mix
  // through the ledger and write the trace; then serve a last untraced
  // slice for the overhead and the engine counters.
  StartTracing();
  StatusOr<std::map<std::string, gnn4tdl::obs::KernelStats>> kernels =
      Status::Internal("not run");
  Ledger ledger;
  served = serve();
  if (served.ok()) {
    kernels = CountKernels([&] { return CanonicalPass(s); });
    served =
        kernels.ok() ? ReplayMix(s, slices[1], &ledger) : kernels.status();
  }
  if (served.ok()) served = StopTracing(options.trace_out);
  if (served.ok()) served = serve();
  if (!served.ok()) {
    out.failed_check = served.ToString();
    return out;
  }
  const Phase& last = slices[2];
  ledger.Emit(&out.result);
  EmitOtherLayers(s.layers, last.stats,
                  OverheadFrac(slices[0].latency_ms[0], slices[1].latency_ms[0],
                               last.latency_ms[0]),
                  *kernels, &out.result);
  out.result.Line("last untraced slice:");
  Describe(s, last, &out.result);
  return out;
}

}  // namespace perfbench
