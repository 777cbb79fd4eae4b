#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "obs/clock.h"
#include "serve/tenant_engine.h"
#include "tensor/matrix.h"

namespace gnn4tdl {

/// One tenant's slice of the offered traffic.
struct TenantTraffic {
  /// Must name a tenant registered in the engine's ModelRegistry.
  std::string tenant;
  /// Share of offered requests (sampled via Rng::Categorical, so only the
  /// ratios matter).
  double weight = 1.0;
  /// Pool of featurized rows to draw request payloads from (each request
  /// copies one uniformly random row). Must match the tenant model's
  /// feature_dim and outlive the generator.
  const Matrix* rows = nullptr;
};

/// Traffic-shape options for LoadGenerator.
struct LoadOptions {
  enum class Mode {
    /// Arrivals follow a seeded Poisson process at offered_rps, independent
    /// of completions — the generator never waits for responses while
    /// submitting, so queueing delay and rejections are visible (the
    /// textbook way to measure saturation honestly; a closed loop
    /// coordinates with the server and hides overload).
    kOpenLoop,
    /// `closed_workers` synchronous callers, each submitting, waiting for
    /// the response, thinking for think_time_ms, and repeating — models a
    /// fixed client population.
    kClosedLoop,
  };
  Mode mode = Mode::kOpenLoop;

  // Open loop.
  double offered_rps = 500.0;
  double duration_s = 1.0;

  // Closed loop.
  size_t closed_workers = 4;
  size_t requests_per_worker = 100;
  double think_time_ms = 0.0;

  /// Seeds arrival gaps, tenant choice, and row choice. The open-loop
  /// schedule is a pure function of (traffic, options) — same seed, same
  /// arrivals, bit for bit.
  uint64_t seed = 42;
  /// Time source for wall-clock measurement; null means obs::RealClock().
  /// Pacing sleeps are real either way, so drive short runs in tests.
  const obs::Clock* clock = nullptr;
};

/// One planned open-loop request: a nanosecond offset from the run start, a
/// tenant (index into the traffic vector), and a row in that tenant's pool.
struct Arrival {
  int64_t at_ns = 0;
  size_t traffic = 0;
  size_t row = 0;
};

/// The deterministic open-loop schedule: exponential inter-arrival gaps at
/// offered_rps (a Poisson process), tenant sampled by weight, row sampled
/// uniformly, all from one Rng seeded with options.seed. Exposed separately
/// from Run() so determinism is testable without serving anything.
std::vector<Arrival> BuildOpenLoopSchedule(
    const std::vector<TenantTraffic>& traffic, const LoadOptions& options);

/// Per-tenant load outcome. `offered`/`completed`/`rejected`/`errors` are the
/// generator's own counts (every submission lands in exactly one);
/// latency quantiles and SLO attainment come from the engine's per-tenant
/// histograms, judged against the tenant's registered TenantOptions::slo_ms.
struct TenantLoadStats {
  std::string tenant;
  size_t offered = 0;
  size_t completed = 0;
  size_t rejected = 0;
  size_t errors = 0;
  double achieved_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double slo_ms = 0.0;
  /// Fraction of completed requests with end-to-end latency <= slo_ms.
  double slo_attainment = 0.0;
};

/// Whole-run outcome: aggregate counts plus one TenantLoadStats per traffic
/// entry.
struct LoadReport {
  size_t offered = 0;
  size_t completed = 0;
  size_t rejected = 0;
  size_t errors = 0;
  double wall_s = 0.0;
  double achieved_rps = 0.0;
  std::vector<TenantLoadStats> tenants;

  std::string ToString() const;
};

/// Drives a MultiTenantEngine with synthetic traffic and reports per-tenant
/// throughput, latency, rejection, and SLO attainment. The generator is the
/// standing harness ISSUE/ROADMAP call for: every serving change can be
/// load-tested the same way (bench_load sweeps it; `gnn4tdl loadgen` and the
/// check.sh `load` stage smoke it).
///
/// Threads: closed-loop workers and the open-loop submitter run on their own
/// std::threads (src/load/ is allowlisted, like src/serve/) — they model
/// clients, not kernel work, so the shared ThreadPool is wrong for them.
class LoadGenerator {
 public:
  /// The engine must outlive the generator; traffic tenants must be
  /// registered in its registry.
  LoadGenerator(MultiTenantEngine* engine, std::vector<TenantTraffic> traffic,
                LoadOptions options = {});

  /// Runs one load session to completion (all futures resolved) and reports.
  /// InvalidArgument when traffic is empty, names an unknown tenant, or has
  /// a null/empty row pool.
  [[nodiscard]] StatusOr<LoadReport> Run();

 private:
  Status Validate() const;
  StatusOr<LoadReport> RunOpenLoop();
  StatusOr<LoadReport> RunClosedLoop();
  void FillEngineSideStats(LoadReport* report) const;

  MultiTenantEngine* engine_;
  std::vector<TenantTraffic> traffic_;
  LoadOptions options_;
  const obs::Clock* clock_;
};

/// Cross-checks the generator's own accounting against the engine's: every
/// rejection the generator saw must be in the engine's rejected counters
/// (aggregate and per tenant), and every completion in its request counters.
/// Also reconciles the latency split — queue_wait + compute <= total, both
/// per request over every flight-recorder digest (ring and retained) and in
/// aggregate over the histogram sums — and requires every recorded digest to
/// carry a nonzero trace id.
/// Requires a fresh engine that served only this run. OK when consistent;
/// Internal with a diff message otherwise. The check.sh `load` stage and
/// bench_load gate on this, so serving accounting cannot silently drift from
/// what clients observe.
[[nodiscard]] Status CheckAccounting(const MultiTenantEngine& engine,
                                     const LoadReport& report);

}  // namespace gnn4tdl
