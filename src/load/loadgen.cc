#include "load/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <sstream>
#include <thread>
#include <utility>

namespace gnn4tdl {

std::vector<Arrival> BuildOpenLoopSchedule(
    const std::vector<TenantTraffic>& traffic, const LoadOptions& options) {
  std::vector<Arrival> schedule;
  if (traffic.empty() || options.offered_rps <= 0.0 ||
      options.duration_s <= 0.0) {
    return schedule;
  }
  Rng rng(options.seed);
  std::vector<double> weights;
  weights.reserve(traffic.size());
  for (const TenantTraffic& t : traffic) {
    weights.push_back(std::max(t.weight, 0.0));
  }
  const double horizon_ns = options.duration_s * 1e9;
  double t_ns = 0.0;
  for (;;) {
    // Exponential inter-arrival gap — a Poisson process at offered_rps.
    // Uniform() is in [0, 1), so log1p(-u) is finite.
    const double u = rng.Uniform();
    t_ns += (-std::log1p(-u) / options.offered_rps) * 1e9;
    if (t_ns >= horizon_ns) break;
    Arrival a;
    a.at_ns = static_cast<int64_t>(t_ns);
    a.traffic = rng.Categorical(weights);
    const Matrix* rows = traffic[a.traffic].rows;
    const size_t pool = rows != nullptr ? rows->rows() : 0;
    a.row = pool > 0
                ? static_cast<size_t>(rng.Int(0, static_cast<int64_t>(pool) - 1))
                : 0;
    schedule.push_back(a);
  }
  return schedule;
}

std::string LoadReport::ToString() const {
  std::ostringstream out;
  out << "offered=" << offered << " completed=" << completed
      << " rejected=" << rejected << " errors=" << errors << " wall_s="
      << wall_s << " achieved_rps=" << achieved_rps;
  for (const TenantLoadStats& t : tenants) {
    out << "\n  tenant=" << t.tenant << " offered=" << t.offered
        << " completed=" << t.completed << " rejected=" << t.rejected
        << " errors=" << t.errors << " rps=" << t.achieved_rps
        << " p50_ms=" << t.p50_ms << " p99_ms=" << t.p99_ms
        << " slo_ms=" << t.slo_ms << " slo_attainment=" << t.slo_attainment;
  }
  return out.str();
}

LoadGenerator::LoadGenerator(MultiTenantEngine* engine,
                             std::vector<TenantTraffic> traffic,
                             LoadOptions options)
    : engine_(engine),
      traffic_(std::move(traffic)),
      options_(options),
      clock_(options.clock != nullptr ? options.clock : obs::RealClock()) {}

Status LoadGenerator::Validate() const {
  if (engine_ == nullptr) {
    return Status::InvalidArgument("loadgen requires an engine");
  }
  if (traffic_.empty()) {
    return Status::InvalidArgument("loadgen requires at least one tenant");
  }
  double total_weight = 0.0;
  for (const TenantTraffic& t : traffic_) {
    if (engine_->registry()->Find(t.tenant) == nullptr) {
      return Status::InvalidArgument("loadgen tenant '" + t.tenant +
                                     "' is not registered in the engine");
    }
    if (t.rows == nullptr || t.rows->rows() == 0) {
      return Status::InvalidArgument("loadgen tenant '" + t.tenant +
                                     "' has an empty row pool");
    }
    total_weight += std::max(t.weight, 0.0);
  }
  if (total_weight <= 0.0) {
    return Status::InvalidArgument("loadgen traffic weights are all zero");
  }
  return Status::OK();
}

StatusOr<LoadReport> LoadGenerator::Run() {
  GNN4TDL_RETURN_IF_ERROR(Validate());
  return options_.mode == LoadOptions::Mode::kOpenLoop ? RunOpenLoop()
                                                       : RunClosedLoop();
}

StatusOr<LoadReport> LoadGenerator::RunOpenLoop() {
  const std::vector<Arrival> schedule =
      BuildOpenLoopSchedule(traffic_, options_);

  LoadReport report;
  report.tenants.resize(traffic_.size());
  for (size_t i = 0; i < traffic_.size(); ++i) {
    report.tenants[i].tenant = traffic_[i].tenant;
  }

  struct Pending {
    std::future<std::vector<double>> future;
    size_t traffic = 0;
  };
  std::vector<Pending> pending;
  pending.reserve(schedule.size());

  const int64_t start_ns = clock_->NowNanos();
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& a = schedule[i];
    // Open loop: pace off the planned schedule, never off completions.
    const int64_t wait_ns = start_ns + a.at_ns - clock_->NowNanos();
    if (wait_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait_ns));
    }
    const Matrix* rows = traffic_[a.traffic].rows;
    std::vector<double> features(rows->row_data(a.row),
                                 rows->row_data(a.row) + rows->cols());
    // Trace id = arrival index + 1: deterministic per (traffic, options), so
    // a flight-recorder dump from a seeded run names stable request ids.
    StatusOr<SubmitResult> submitted = engine_->SubmitTraced(
        traffic_[a.traffic].tenant, std::move(features), i + 1);
    ++report.offered;
    ++report.tenants[a.traffic].offered;
    if (submitted.ok()) {
      pending.push_back({std::move(submitted->future), a.traffic});
    } else if (submitted.status().code() == StatusCode::kResourceExhausted) {
      ++report.rejected;
      ++report.tenants[a.traffic].rejected;
    } else {
      ++report.errors;
      ++report.tenants[a.traffic].errors;
    }
  }
  for (Pending& p : pending) {
    try {
      (void)p.future.get();
      ++report.completed;
      ++report.tenants[p.traffic].completed;
    } catch (const std::exception&) {
      ++report.errors;
      ++report.tenants[p.traffic].errors;
    }
  }
  report.wall_s =
      static_cast<double>(clock_->NowNanos() - start_ns) / 1e9;
  FillEngineSideStats(&report);
  return report;
}

StatusOr<LoadReport> LoadGenerator::RunClosedLoop() {
  LoadReport report;
  report.tenants.resize(traffic_.size());
  for (size_t i = 0; i < traffic_.size(); ++i) {
    report.tenants[i].tenant = traffic_[i].tenant;
  }

  std::vector<double> weights;
  weights.reserve(traffic_.size());
  for (const TenantTraffic& t : traffic_) {
    weights.push_back(std::max(t.weight, 0.0));
  }

  // Per-worker tallies, merged after the join — no shared mutable state
  // between workers.
  struct Tally {
    size_t offered = 0;
    size_t completed = 0;
    size_t rejected = 0;
    size_t errors = 0;
  };
  const size_t workers = std::max<size_t>(options_.closed_workers, 1);
  std::vector<std::vector<Tally>> tallies(
      workers, std::vector<Tally>(traffic_.size()));

  const int64_t start_ns = clock_->NowNanos();
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([this, w, &weights, &tallies] {
      // Distinct deterministic stream per worker.
      Rng rng(options_.seed + 0x9e3779b97f4a7c15ULL * (w + 1));
      std::vector<Tally>& mine = tallies[w];
      for (size_t r = 0; r < options_.requests_per_worker; ++r) {
        const size_t ti = rng.Categorical(weights);
        const Matrix* rows = traffic_[ti].rows;
        const size_t row = static_cast<size_t>(
            rng.Int(0, static_cast<int64_t>(rows->rows()) - 1));
        std::vector<double> features(rows->row_data(row),
                                     rows->row_data(row) + rows->cols());
        // Disjoint deterministic trace-id ranges per worker: worker w owns
        // [w*requests_per_worker + 1, (w+1)*requests_per_worker].
        const uint64_t trace_id = w * options_.requests_per_worker + r + 1;
        StatusOr<SubmitResult> submitted = engine_->SubmitTraced(
            traffic_[ti].tenant, std::move(features), trace_id);
        ++mine[ti].offered;
        if (!submitted.ok()) {
          if (submitted.status().code() == StatusCode::kResourceExhausted) {
            ++mine[ti].rejected;
          } else {
            ++mine[ti].errors;
          }
        } else {
          try {
            // closed loop: wait for the response
            (void)submitted->future.get();
            ++mine[ti].completed;
          } catch (const std::exception&) {
            ++mine[ti].errors;
          }
        }
        if (options_.think_time_ms > 0.0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(
              static_cast<int64_t>(options_.think_time_ms * 1e6)));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  report.wall_s = static_cast<double>(clock_->NowNanos() - start_ns) / 1e9;

  for (const std::vector<Tally>& worker_tally : tallies) {
    for (size_t ti = 0; ti < traffic_.size(); ++ti) {
      report.offered += worker_tally[ti].offered;
      report.completed += worker_tally[ti].completed;
      report.rejected += worker_tally[ti].rejected;
      report.errors += worker_tally[ti].errors;
      report.tenants[ti].offered += worker_tally[ti].offered;
      report.tenants[ti].completed += worker_tally[ti].completed;
      report.tenants[ti].rejected += worker_tally[ti].rejected;
      report.tenants[ti].errors += worker_tally[ti].errors;
    }
  }
  FillEngineSideStats(&report);
  return report;
}

void LoadGenerator::FillEngineSideStats(LoadReport* report) const {
  if (report->wall_s > 0.0) {
    report->achieved_rps =
        static_cast<double>(report->completed) / report->wall_s;
  }
  for (TenantLoadStats& t : report->tenants) {
    const Tenant* tenant = engine_->registry()->Find(t.tenant);
    if (tenant != nullptr) t.slo_ms = tenant->options.slo_ms;
    StatusOr<ServeStats> stats = engine_->TenantStats(t.tenant);
    if (stats.ok()) {
      t.p50_ms = stats->p50_ms;
      t.p99_ms = stats->p99_ms;
    }
    StatusOr<double> attainment =
        engine_->TenantLatencyFractionBelow(t.tenant, t.slo_ms);
    if (attainment.ok()) t.slo_attainment = *attainment;
    if (report->wall_s > 0.0) {
      t.achieved_rps = static_cast<double>(t.completed) / report->wall_s;
    }
  }
}

Status CheckAccounting(const MultiTenantEngine& engine,
                       const LoadReport& report) {
  std::ostringstream diff;
  if (report.offered !=
      report.completed + report.rejected + report.errors) {
    diff << "loadgen internal: offered " << report.offered
         << " != completed+rejected+errors "
         << report.completed + report.rejected + report.errors << "; ";
  }
  const ServeStats agg = engine.Stats();
  if (agg.rejected != report.rejected) {
    diff << "engine rejected " << agg.rejected << " != loadgen rejected "
         << report.rejected << "; ";
  }
  // Engine `requests` counts every batched row, including ones whose batch
  // failed to score (the generator sees those as errors); with an error-free
  // run the two views must agree exactly.
  if (report.errors == 0 && agg.requests != report.completed) {
    diff << "engine requests " << agg.requests << " != loadgen completed "
         << report.completed << "; ";
  }
  for (const TenantLoadStats& t : report.tenants) {
    StatusOr<ServeStats> stats = engine.TenantStats(t.tenant);
    if (!stats.ok()) {
      diff << "tenant " << t.tenant << ": " << stats.status().ToString()
           << "; ";
      continue;
    }
    if (stats->rejected != t.rejected) {
      diff << "tenant " << t.tenant << " engine rejected " << stats->rejected
           << " != loadgen " << t.rejected << "; ";
    }
    if (t.errors == 0 && stats->requests != t.completed) {
      diff << "tenant " << t.tenant << " engine requests " << stats->requests
           << " != loadgen completed " << t.completed << "; ";
    }
  }
  // Latency-split reconciliation: queue wait + compute must not exceed the
  // end-to-end latency, per request (flight-recorder digests) and in
  // aggregate (histogram sums). Equality holds by construction up to one
  // ns->ms float rounding per term, hence the epsilon.
  constexpr double kSplitEpsMs = 1e-6;
  if (agg.requests > 0 &&
      agg.queue_wait_ms_sum + agg.compute_ms_sum >
          agg.latency_ms_sum + kSplitEpsMs * static_cast<double>(agg.requests)) {
    diff << "latency split sums: wait " << agg.queue_wait_ms_sum
         << " + compute " << agg.compute_ms_sum << " > total "
         << agg.latency_ms_sum << "; ";
  }
  std::vector<obs::RequestDigest> digests = engine.recorder().RingSnapshot();
  std::vector<obs::RequestDigest> retained =
      engine.recorder().RetainedSnapshot();
  digests.insert(digests.end(), retained.begin(), retained.end());
  for (const obs::RequestDigest& d : digests) {
    if (d.trace_id == 0) {
      diff << "recorder digest for tenant " << d.tenant
           << " has trace_id 0; ";
    }
    if (d.queue_wait_ms + d.compute_ms > d.total_ms + kSplitEpsMs) {
      diff << "trace " << d.trace_id << ": wait " << d.queue_wait_ms
           << " + compute " << d.compute_ms << " > total " << d.total_ms
           << "; ";
    }
  }
  if (!diff.str().empty()) {
    return Status::Internal("serving accounting mismatch: " + diff.str());
  }
  return Status::OK();
}

}  // namespace gnn4tdl
