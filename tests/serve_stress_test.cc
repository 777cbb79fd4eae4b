// Concurrency stress tests for a MultiTenantEngine serving one tenant: many
// producer threads racing the batching worker, stats polled mid-flight, and
// shutdown under load. The load-bearing claims: every submission resolves
// exactly once (a value or a rejection, never neither), accepted requests are
// never dropped by Stop(), and the counters stay consistent with what callers
// observed. Run these under the tsan preset to get the real guarantee.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/split.h"
#include "data/synthetic.h"
#include "gate_clock.h"
#include "models/knn_gnn.h"
#include "obs/clock.h"
#include "poll_until.h"
#include "serve/frozen_model.h"
#include "serve/registry.h"
#include "serve/tenant_engine.h"

namespace gnn4tdl {
namespace {

// Trains and freezes one small GCN once for the whole suite; the stress
// tests only need a real model behind the engine, not a good one.
class ServeStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    InstanceGraphGnnOptions options;
    options.backbone = GnnBackbone::kGcn;
    options.hidden_dim = 16;
    options.num_layers = 2;
    options.knn.k = 8;
    options.train.max_epochs = 10;
    options.seed = 3;

    TabularDataset data = MakeClusters({.num_rows = 200,
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
    StatusOr<FrozenModel> loaded = FrozenModel::Load(artifact);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    frozen_.emplace(std::move(*loaded));

    TabularDataset fresh = MakeClusters({.num_rows = 32,
                                         .num_classes = 3,
                                         .dim_informative = 6,
                                         .dim_noise = 2,
                                         .seed = 91});
    StatusOr<Matrix> x = frozen_->Featurize(fresh);
    ASSERT_TRUE(x.ok()) << x.status().ToString();
    features_.emplace(std::move(*x));
  }

  static void TearDownTestSuite() {
    features_.reset();
    frozen_.reset();
  }

  // Registers a fresh load of the suite's model as tenant kTenant.
  static void RegisterModel(ModelRegistry& registry, TenantOptions options) {
    std::istringstream in(artifact_);
    StatusOr<FrozenModel> model = FrozenModel::Load(in);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_TRUE(registry.AddTenant(kTenant, std::move(*model), options).ok());
  }

  static std::vector<double> Row(size_t i) {
    size_t r = i % features_->rows();
    return std::vector<double>(features_->row_data(r),
                               features_->row_data(r) + features_->cols());
  }

  // Submits one row; accepted futures are collected, typed submission
  // failures (queue full, engine stopped) land in the rejected tally.
  static void SubmitRow(MultiTenantEngine& engine, size_t i,
                        std::vector<std::future<std::vector<double>>>* futures,
                        std::atomic<size_t>& rejected) {
    StatusOr<std::future<std::vector<double>>> f =
        engine.Submit(kTenant, Row(i));
    if (f.ok()) {
      futures->push_back(std::move(*f));
    } else {
      ++rejected;
    }
  }

  // Resolves every accepted future, validating each success. Scoring errors
  // would surface here as runtime_error; these tests expect none.
  static void Resolve(std::vector<std::future<std::vector<double>>>& futures,
                      std::atomic<size_t>& ok, std::atomic<size_t>& rejected) {
    for (auto& f : futures) {
      try {
        std::vector<double> logits = f.get();
        EXPECT_EQ(logits.size(), frozen_->num_outputs());
        for (double v : logits) EXPECT_TRUE(std::isfinite(v));
        ++ok;
      } catch (const std::runtime_error&) {
        ++rejected;
      }
    }
  }

  static constexpr const char* kTenant = "t";
  inline static std::string artifact_;
  inline static std::optional<FrozenModel> frozen_;
  inline static std::optional<Matrix> features_;
};

TEST_F(ServeStressTest, ManyProducersEveryRequestResolvesExactlyOnce) {
  constexpr size_t kProducers = 8;
  constexpr size_t kPerProducer = 24;

  ModelRegistry registry;
  TenantOptions opts;
  opts.max_batch = 16;
  RegisterModel(registry, opts);
  MultiTenantEngine engine(&registry);

  std::atomic<size_t> ok{0};
  std::atomic<size_t> rejected{0};
  std::atomic<bool> producing{true};

  // Stats() races the worker's counter updates and the producers' submits;
  // under TSan this thread is what proves mu_ actually covers the counters.
  std::thread poller([&] {
    size_t last_requests = 0;
    while (producing.load()) {
      ServeStats stats = engine.Stats();
      EXPECT_GE(stats.requests, last_requests);
      EXPECT_LE(stats.requests, kProducers * kPerProducer);
      last_requests = stats.requests;
      // Re-poll every millisecond, bailing out promptly once the producers
      // finish instead of overshooting by a fixed sleep.
      testing::PollUntil([&] { return !producing.load(); },
                         std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<std::future<std::vector<double>>> futures;
      futures.reserve(kPerProducer);
      for (size_t m = 0; m < kPerProducer; ++m)
        SubmitRow(engine, p * kPerProducer + m, &futures, rejected);
      Resolve(futures, ok, rejected);
    });
  }
  for (auto& t : producers) t.join();
  producing.store(false);
  poller.join();
  engine.Stop();

  // The default queue capacity dwarfs the offered load: nothing rejected,
  // every request scored and counted exactly once.
  EXPECT_EQ(ok.load(), kProducers * kPerProducer);
  EXPECT_EQ(rejected.load(), 0u);
  ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.requests, kProducers * kPerProducer);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.batches, kProducers * kPerProducer / opts.max_batch);
}

TEST_F(ServeStressTest, ShutdownUnderLoadLosesNoAcceptedRequest) {
  constexpr size_t kProducers = 6;
  constexpr size_t kPerProducer = 32;

  ModelRegistry registry;
  TenantOptions opts;
  opts.max_batch = 8;
  RegisterModel(registry, opts);
  MultiTenantEngine engine(&registry);

  std::atomic<size_t> ok{0};
  std::atomic<size_t> rejected{0};

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<std::future<std::vector<double>>> futures;
      futures.reserve(kPerProducer);
      for (size_t m = 0; m < kPerProducer; ++m)
        SubmitRow(engine, p * kPerProducer + m, &futures, rejected);
      Resolve(futures, ok, rejected);
    });
  }

  // Stop mid-flight: the worker must drain what was accepted, and every
  // post-stop Submit must reject promptly instead of hanging its future.
  // Waiting for the first completed request (rather than a fixed sleep)
  // guarantees the stop really lands mid-stream on any machine speed.
  EXPECT_TRUE(testing::PollUntil([&] { return engine.Stats().requests > 0; }));
  engine.Stop();
  for (auto& t : producers) t.join();

  EXPECT_EQ(ok.load() + rejected.load(), kProducers * kPerProducer);
  ServeStats stats = engine.Stats();
  // Accepted == completed: Stop() drained the queue, nothing was dropped.
  EXPECT_EQ(stats.requests, ok.load());
  // stats.rejected only counts queue-full; stopped-engine rejections land in
  // the caller-visible tally alone.
  EXPECT_LE(stats.rejected, rejected.load());
}

TEST_F(ServeStressTest, QueueFullRejectionsAreCountedConsistently) {
  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 16;
  constexpr size_t kHeld = 4;

  testing::GateClock gate(obs::RealClock());
  ModelRegistry registry;
  TenantOptions opts;
  opts.max_batch = 2;
  opts.queue_capacity = 2;  // force overflow under concurrent submission
  RegisterModel(registry, opts);
  MultiTenantEngineOptions engine_options;
  engine_options.clock = &gate;
  MultiTenantEngine engine(&registry, engine_options);

  std::atomic<size_t> ok{0};
  std::atomic<size_t> rejected{0};

  // Hold the worker on the first row: the next two fill the queue and the
  // last overflows it, so at least one rejection is certain. Then open the
  // gate and race the producers against the free-running worker.
  std::vector<std::future<std::vector<double>>> held;
  SubmitRow(engine, 0, &held, rejected);
  ASSERT_TRUE(testing::PollUntil([&] { return gate.parked() == 1; }));
  for (size_t i = 1; i < kHeld; ++i) SubmitRow(engine, i, &held, rejected);
  EXPECT_EQ(rejected.load(), 1u);
  gate.Open();

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<std::future<std::vector<double>>> futures;
      futures.reserve(kPerProducer);
      for (size_t m = 0; m < kPerProducer; ++m)
        SubmitRow(engine, kHeld + p * kPerProducer + m, &futures, rejected);
      Resolve(futures, ok, rejected);
    });
  }
  for (auto& t : producers) t.join();
  Resolve(held, ok, rejected);
  engine.Stop();

  EXPECT_EQ(ok.load() + rejected.load(), kHeld + kProducers * kPerProducer);
  ServeStats stats = engine.Stats();
  // The engine ran the whole time with well-formed rows, so the only
  // rejection path was queue-full — the counter must match what callers saw.
  EXPECT_EQ(stats.requests, ok.load());
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_GT(rejected.load(), 0u);
}

}  // namespace
}  // namespace gnn4tdl
