// Multi-tenant serving tests: registry validation, typed Submit failures,
// work-conserving dispatch (an idle worker takes a row at once; rows queued
// while it is busy share the next batch), and weighted round-robin isolation
// (a backlogged tenant cannot starve a late-arriving one).

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "gate_clock.h"
#include "models/knn_gnn.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "poll_until.h"
#include "serve/frozen_model.h"
#include "serve/registry.h"
#include "serve/tenant_engine.h"

namespace gnn4tdl {
namespace {

// Trains and freezes one small GCN once; tests reload the artifact bytes.
class ServeTenantTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    InstanceGraphGnnOptions options;
    options.backbone = GnnBackbone::kGcn;
    options.hidden_dim = 16;
    options.num_layers = 2;
    options.knn.k = 8;
    options.train.max_epochs = 10;
    options.seed = 3;

    TabularDataset data = MakeClusters({.num_rows = 160,
                                        .num_classes = 3,
                                        .dim_informative = 6,
                                        .dim_noise = 2,
                                        .seed = 7});
    Rng rng(17);
    Split split = StratifiedSplit(data.class_labels(), 0.7, 0.15, rng);
    InstanceGraphGnn model(options);
    ASSERT_TRUE(model.Fit(data, split).ok());

    std::stringstream artifact;
    ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
    artifact_ = artifact.str();

    TabularDataset fresh = MakeClusters({.num_rows = 24,
                                         .num_classes = 3,
                                         .dim_informative = 6,
                                         .dim_noise = 2,
                                         .seed = 91});
    StatusOr<FrozenModel> frozen = Load();
    ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
    StatusOr<Matrix> x = frozen->Featurize(fresh);
    ASSERT_TRUE(x.ok()) << x.status().ToString();
    features_.emplace(std::move(*x));
  }

  static void TearDownTestSuite() { features_.reset(); }

  static StatusOr<FrozenModel> Load() {
    std::istringstream in(artifact_);
    return FrozenModel::Load(in);
  }

  static std::vector<double> Row(size_t i) {
    size_t r = i % features_->rows();
    return std::vector<double>(features_->row_data(r),
                               features_->row_data(r) + features_->cols());
  }

  inline static std::string artifact_;
  inline static std::optional<Matrix> features_;
};

TEST_F(ServeTenantTest, RegistryValidatesNames) {
  StatusOr<FrozenModel> a = Load();
  StatusOr<FrozenModel> b = Load();
  ASSERT_TRUE(a.ok() && b.ok());

  ModelRegistry registry;
  Status empty = registry.AddTenant("", std::move(*a));
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.size(), 0u);

  StatusOr<FrozenModel> again = Load();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(registry.AddTenant("alpha", std::move(*again)).ok());
  Status duplicate = registry.AddTenant("alpha", std::move(*b));
  EXPECT_EQ(duplicate.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.size(), 1u);

  EXPECT_NE(registry.Find("alpha"), nullptr);
  EXPECT_EQ(registry.Find("beta"), nullptr);
}

TEST_F(ServeTenantTest, RegistryClampsDegenerateOptions) {
  StatusOr<FrozenModel> model = Load();
  ASSERT_TRUE(model.ok());
  ModelRegistry registry;
  TenantOptions options;
  options.max_batch = 0;
  options.queue_capacity = 0;
  options.weight = 0;
  ASSERT_TRUE(registry.AddTenant("t", std::move(*model), options).ok());
  const Tenant* t = registry.Find("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->options.max_batch, 1u);
  EXPECT_EQ(t->options.queue_capacity, 1u);
  EXPECT_EQ(t->options.weight, 1u);
}

TEST_F(ServeTenantTest, SubmitFailuresAreTyped) {
  StatusOr<FrozenModel> model = Load();
  ASSERT_TRUE(model.ok());
  ModelRegistry registry;
  TenantOptions options;
  options.max_batch = 8;
  options.queue_capacity = 2;
  ASSERT_TRUE(registry.AddTenant("t", std::move(*model), options).ok());
  obs::FakeClock fake;
  testing::GateClock gate(&fake);
  MultiTenantEngineOptions engine_options;
  engine_options.clock = &gate;
  MultiTenantEngine engine(&registry, engine_options);

  auto unknown = engine.Submit("nope", Row(0));
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  auto bad_dim = engine.Submit("t", std::vector<double>(3, 0.0));
  EXPECT_EQ(bad_dim.status().code(), StatusCode::kInvalidArgument);

  // The worker takes the first row at once and is held at the gate, so the
  // next two fill queue_capacity and the fourth overflows admission.
  auto held = engine.Submit("t", Row(0));
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(testing::PollUntil([&] { return gate.parked() == 1; }));
  auto first = engine.Submit("t", Row(1));
  auto second = engine.Submit("t", Row(2));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  auto overflow = engine.Submit("t", Row(3));
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);

  gate.Open();
  engine.Stop();  // drains the accepted requests
  const size_t outputs = held->get().size();
  EXPECT_EQ(first->get().size(), outputs);
  EXPECT_EQ(second->get().size(), outputs);

  auto stopped = engine.Submit("t", Row(4));
  EXPECT_EQ(stopped.status().code(), StatusCode::kFailedPrecondition);

  ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.requests, 3u);
  // Admission control only: unknown-tenant/bad-dimension/stopped submissions
  // are caller errors, not shed load.
  EXPECT_EQ(stats.rejected, 1u);
  StatusOr<ServeStats> tenant_stats = engine.TenantStats("t");
  ASSERT_TRUE(tenant_stats.ok());
  EXPECT_EQ(tenant_stats->requests, 3u);
  EXPECT_EQ(tenant_stats->rejected, 1u);
  EXPECT_EQ(engine.TenantStats("nope").status().code(), StatusCode::kNotFound);
}

// Work-conserving dispatch: an idle worker scores a lone row at once, with
// no time passing. Fake time is frozen, so a worker that waited for a batch
// to fill or for a timer would never resolve the future.
TEST_F(ServeTenantTest, IdleWorkerDispatchesWithoutTimePassing) {
  StatusOr<FrozenModel> model = Load();
  ASSERT_TRUE(model.ok());
  ModelRegistry registry;
  TenantOptions options;
  options.max_batch = 8;
  ASSERT_TRUE(registry.AddTenant("t", std::move(*model), options).ok());
  obs::FakeClock clock;
  MultiTenantEngineOptions engine_options;
  engine_options.clock = &clock;
  MultiTenantEngine engine(&registry, engine_options);

  auto f = engine.Submit("t", Row(0));
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  ASSERT_TRUE(testing::PollUntil(
      [&] {
        return f->wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
      },
      std::chrono::seconds(30)));
  EXPECT_FALSE(f->get().empty());
  engine.Stop();

  StatusOr<ServeStats> stats = engine.TenantStats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->requests, 1u);
  EXPECT_EQ(stats->batches, 1u);
  EXPECT_EQ(stats->queue_wait_ms_sum, 0.0);
  EXPECT_EQ(stats->max_ms, 0.0);
}

// Rows that arrive while the worker is busy form the next batches, each
// capped at max_batch: the worker is held on its first row, 12 more are
// queued, and the batches are {1}, {8}, {4} in submission order.
TEST_F(ServeTenantTest, RowsQueuedWhileBusyShareOneBatch) {
  StatusOr<FrozenModel> model = Load();
  ASSERT_TRUE(model.ok());
  ModelRegistry registry;
  TenantOptions options;
  options.max_batch = 8;
  ASSERT_TRUE(registry.AddTenant("t", std::move(*model), options).ok());
  obs::FakeClock fake;
  testing::GateClock gate(&fake);
  MultiTenantEngineOptions engine_options;
  engine_options.clock = &gate;
  MultiTenantEngine engine(&registry, engine_options);

  constexpr size_t kQueued = 12;
  std::vector<std::future<std::vector<double>>> futures;
  StatusOr<SubmitResult> held = engine.SubmitTraced("t", Row(0));
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  futures.push_back(std::move(held->future));
  ASSERT_TRUE(testing::PollUntil([&] { return gate.parked() == 1; }));
  for (size_t i = 1; i <= kQueued; ++i) {
    StatusOr<SubmitResult> queued = engine.SubmitTraced("t", Row(i));
    ASSERT_TRUE(queued.ok()) << queued.status().ToString();
    futures.push_back(std::move(queued->future));
  }
  gate.Open();
  for (auto& f : futures) f.get();
  engine.Stop();

  StatusOr<ServeStats> stats = engine.TenantStats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->requests, 1 + kQueued);
  EXPECT_EQ(stats->batches, 3u);
  // Trace ids are assigned in submission order: 1 was held alone, 2..9 took
  // the next batch and 10..13 the last.
  for (uint64_t id = 1; id <= 1 + kQueued; ++id) {
    std::optional<obs::RequestDigest> digest = engine.recorder().FindTrace(id);
    ASSERT_TRUE(digest.has_value()) << "trace " << id;
    const size_t expected = id == 1 ? 1u : (id <= 9 ? 8u : 4u);
    EXPECT_EQ(digest->batch_size, expected) << "trace " << id;
  }
}

// A tenant with a deep backlog must not starve a late-arriving tenant: WRR
// gives the late tenant a batch slot within one round, so its handful of
// requests finishes while the backlogged tenant is still draining.
TEST_F(ServeTenantTest, BackloggedTenantDoesNotStarveLateTenant) {
  StatusOr<FrozenModel> a = Load();
  StatusOr<FrozenModel> b = Load();
  ASSERT_TRUE(a.ok() && b.ok());
  ModelRegistry registry;
  TenantOptions options;
  options.max_batch = 8;
  options.deadline_ms = 0.5;
  options.queue_capacity = 1024;
  ASSERT_TRUE(registry.AddTenant("hog", std::move(*a), options).ok());
  ASSERT_TRUE(registry.AddTenant("late", std::move(*b), options).ok());
  MultiTenantEngine engine(&registry);

  constexpr size_t kBacklog = 256;
  constexpr size_t kLate = 8;
  std::vector<std::future<std::vector<double>>> hog_futures;
  hog_futures.reserve(kBacklog);
  for (size_t i = 0; i < kBacklog; ++i) {
    auto f = engine.Submit("hog", Row(i));
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    hog_futures.push_back(std::move(*f));
  }
  std::vector<std::future<std::vector<double>>> late_futures;
  late_futures.reserve(kLate);
  for (size_t i = 0; i < kLate; ++i) {
    auto f = engine.Submit("late", Row(i));
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    late_futures.push_back(std::move(*f));
  }

  using Clock = std::chrono::steady_clock;
  auto start = Clock::now();
  for (auto& f : late_futures) f.get();
  auto late_done = Clock::now();
  for (auto& f : hog_futures) f.get();
  auto hog_done = Clock::now();
  engine.Stop();

  // FIFO across tenants would finish `late` last (behind 256 queued rows);
  // WRR must finish its single batch well before the backlog drains.
  EXPECT_LT((late_done - start).count(), (hog_done - start).count());

  StatusOr<ServeStats> late_stats = engine.TenantStats("late");
  ASSERT_TRUE(late_stats.ok());
  EXPECT_EQ(late_stats->requests, kLate);
  EXPECT_EQ(late_stats->rejected, 0u);
  StatusOr<ServeStats> hog_stats = engine.TenantStats("hog");
  ASSERT_TRUE(hog_stats.ok());
  EXPECT_EQ(hog_stats->requests, kBacklog);
  ServeStats total = engine.Stats();
  EXPECT_EQ(total.requests, kBacklog + kLate);
}

TEST_F(ServeTenantTest, LatencyFractionBelowIsMonotoneAndBounded) {
  StatusOr<FrozenModel> model = Load();
  ASSERT_TRUE(model.ok());
  ModelRegistry registry;
  ASSERT_TRUE(registry.AddTenant("t", std::move(*model)).ok());
  MultiTenantEngine engine(&registry);

  StatusOr<double> empty = engine.TenantLatencyFractionBelow("t", 1.0);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, 1.0);  // nothing completed yet

  std::vector<std::future<std::vector<double>>> futures;
  for (size_t i = 0; i < 16; ++i) {
    auto f = engine.Submit("t", Row(i));
    ASSERT_TRUE(f.ok());
    futures.push_back(std::move(*f));
  }
  for (auto& f : futures) f.get();
  engine.Stop();

  StatusOr<double> tight = engine.TenantLatencyFractionBelow("t", 1e-6);
  StatusOr<double> loose = engine.TenantLatencyFractionBelow("t", 60000.0);
  ASSERT_TRUE(tight.ok() && loose.ok());
  EXPECT_GE(*tight, 0.0);
  EXPECT_LE(*tight, *loose);
  EXPECT_EQ(*loose, 1.0);
  EXPECT_EQ(engine.TenantLatencyFractionBelow("nope", 1.0).status().code(),
            StatusCode::kNotFound);
}

/// Turns metric emission on for one scope and restores the previous state.
class MetricsOn {
 public:
  MetricsOn() : was_enabled_(obs::MetricsEnabled()) { obs::EnableMetrics(); }
  ~MetricsOn() {
    if (!was_enabled_) obs::DisableMetrics();
  }

 private:
  bool was_enabled_;
};

// The value of one series (`<series> <value>`) in the global registry's
// Prometheus exposition; 0 when the series is absent.
double Exported(const std::string& series) {
  std::ostringstream out;
  obs::MetricsRegistry::Global().WritePrometheus(out);
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(series + " ", 0) == 0) {
      return std::stod(line.substr(series.size() + 1));
    }
  }
  return 0.0;
}

// The registry is process-global, so every check compares before and after.
// Two engines in turn: each Stop() that joins adds exactly that engine's
// requests; a second Stop() and the destructor add nothing.
TEST_F(ServeTenantTest, StopExportsEachSampleExactlyOnce) {
  MetricsOn metrics;
  const std::vector<std::string> names = {"export_a", "export_b"};
  const auto tenant_series = [](const std::string& name,
                                const std::string& metric) {
    return "gnn4tdl_serve_tenant_" + name + "_" + metric;
  };
  for (size_t round = 0; round < 2; ++round) {
    ModelRegistry registry;
    for (const std::string& name : names) {
      StatusOr<FrozenModel> model = Load();
      ASSERT_TRUE(model.ok());
      ASSERT_TRUE(registry.AddTenant(name, std::move(*model)).ok());
    }
    std::vector<double> tenant_count_before, tenant_requests_before;
    for (const std::string& name : names) {
      tenant_count_before.push_back(
          Exported(tenant_series(name, "latency_ms_count")));
      tenant_requests_before.push_back(
          Exported(tenant_series(name, "requests_total")));
    }
    const double count_before = Exported("gnn4tdl_serve_latency_ms_count");
    const double requests_before = Exported("gnn4tdl_serve_requests_total");

    auto engine = std::make_unique<MultiTenantEngine>(&registry);
    std::vector<std::future<std::vector<double>>> futures;
    for (size_t i = 0; i < 5 + 3 * round; ++i) {
      auto f = engine->Submit(names[i % 2], Row(i));
      ASSERT_TRUE(f.ok()) << f.status().ToString();
      futures.push_back(std::move(*f));
    }
    for (auto& f : futures) f.get();
    engine->Stop();

    const ServeStats total = engine->Stats();
    EXPECT_EQ(total.requests, futures.size());
    for (size_t t = 0; t < names.size(); ++t) {
      StatusOr<ServeStats> stats = engine->TenantStats(names[t]);
      ASSERT_TRUE(stats.ok());
      const auto requests = static_cast<double>(stats->requests);
      EXPECT_EQ(Exported(tenant_series(names[t], "latency_ms_count")),
                tenant_count_before[t] + requests);
      EXPECT_EQ(Exported(tenant_series(names[t], "requests_total")),
                tenant_requests_before[t] + requests);
    }
    const auto requests = static_cast<double>(total.requests);
    const double count_after = Exported("gnn4tdl_serve_latency_ms_count");
    EXPECT_EQ(count_after, count_before + requests);
    EXPECT_EQ(Exported("gnn4tdl_serve_requests_total"),
              requests_before + requests);
    EXPECT_GE(Exported("gnn4tdl_serve_max_queue_depth"),
              static_cast<double>(total.max_queue_depth));

    engine->Stop();
    engine.reset();
    EXPECT_EQ(Exported("gnn4tdl_serve_latency_ms_count"), count_after);
    EXPECT_EQ(Exported("gnn4tdl_serve_requests_total"),
              requests_before + requests);
  }
}

// A caller that holds its result must see itself in the accounting: the
// worker records a batch before it resolves the batch's futures. Each round
// submits 16 rows (split into batches by whenever the worker is free), waits
// for all of them, then reads TenantStats at once.
TEST_F(ServeTenantTest, AccountingLandsBeforeFuturesResolve) {
  StatusOr<FrozenModel> model = Load();
  ASSERT_TRUE(model.ok());
  ModelRegistry registry;
  TenantOptions options;
  options.max_batch = 16;
  ASSERT_TRUE(registry.AddTenant("t", std::move(*model), options).ok());
  MultiTenantEngine engine(&registry);

  constexpr size_t kRounds = 500;
  constexpr size_t kRows = 16;
  size_t short_reads = 0;
  for (size_t round = 0; round < kRounds; ++round) {
    std::vector<std::future<std::vector<double>>> futures;
    futures.reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      auto f = engine.Submit("t", Row(i));
      ASSERT_TRUE(f.ok()) << f.status().ToString();
      futures.push_back(std::move(*f));
    }
    for (auto& f : futures) f.get();
    StatusOr<ServeStats> stats = engine.TenantStats("t");
    ASSERT_TRUE(stats.ok());
    if (stats->requests != (round + 1) * kRows) ++short_reads;
  }
  EXPECT_EQ(short_reads, 0u);
}

}  // namespace
}  // namespace gnn4tdl
