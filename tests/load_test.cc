// Load-harness tests: the open-loop schedule is a pure function of its seed
// (same seed → bit-identical arrivals, different seed → different arrivals),
// and both loop modes run cleanly against a real two-tenant engine with the
// generator's accounting reconciling exactly against the engine's counters.

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "load/loadgen.h"
#include "models/knn_gnn.h"
#include "serve/frozen_model.h"
#include "serve/registry.h"
#include "serve/tenant_engine.h"

namespace gnn4tdl {
namespace {

class LoadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    InstanceGraphGnnOptions options;
    options.backbone = GnnBackbone::kGcn;
    options.hidden_dim = 16;
    options.num_layers = 2;
    options.knn.k = 8;
    options.train.max_epochs = 10;
    options.train.verbose = false;
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

  // Two tenants over the same artifact, unequal WRR weights, ample queues.
  static void BuildRegistry(ModelRegistry* registry) {
    StatusOr<FrozenModel> a = Load();
    StatusOr<FrozenModel> b = Load();
    ASSERT_TRUE(a.ok() && b.ok());
    TenantOptions interactive;
    interactive.max_batch = 8;
    interactive.weight = 2;
    interactive.slo_ms = 50.0;
    TenantOptions batch;
    batch.max_batch = 16;
    batch.weight = 1;
    batch.slo_ms = 200.0;
    ASSERT_TRUE(registry->AddTenant("interactive", std::move(*a), interactive)
                    .ok());
    ASSERT_TRUE(registry->AddTenant("batch", std::move(*b), batch).ok());
  }

  static std::vector<TenantTraffic> Traffic() {
    return {{"interactive", 2.0, &*features_}, {"batch", 1.0, &*features_}};
  }

  inline static std::string artifact_;
  inline static std::optional<Matrix> features_;
};

TEST_F(LoadTest, OpenLoopScheduleIsSeedDeterministic) {
  LoadOptions options;
  options.offered_rps = 750.0;
  options.duration_s = 2.0;
  options.seed = 1234;

  std::vector<Arrival> first = BuildOpenLoopSchedule(Traffic(), options);
  std::vector<Arrival> second = BuildOpenLoopSchedule(Traffic(), options);
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].at_ns, second[i].at_ns) << "arrival " << i;
    EXPECT_EQ(first[i].traffic, second[i].traffic) << "arrival " << i;
    EXPECT_EQ(first[i].row, second[i].row) << "arrival " << i;
  }

  // Arrivals are ordered, in range, and roughly at the offered rate (Poisson
  // with n ~ 1500: a +/-25% band is ~10 sigma).
  int64_t prev = -1;
  for (const Arrival& a : first) {
    EXPECT_GE(a.at_ns, prev);
    prev = a.at_ns;
    EXPECT_LT(a.at_ns, static_cast<int64_t>(options.duration_s * 1e9));
    EXPECT_LT(a.traffic, 2u);
    EXPECT_LT(a.row, features_->rows());
  }
  double expected = options.offered_rps * options.duration_s;
  EXPECT_GT(static_cast<double>(first.size()), 0.75 * expected);
  EXPECT_LT(static_cast<double>(first.size()), 1.25 * expected);

  options.seed = 5678;
  std::vector<Arrival> reseeded = BuildOpenLoopSchedule(Traffic(), options);
  bool identical = reseeded.size() == first.size();
  for (size_t i = 0; identical && i < first.size(); ++i)
    identical = reseeded[i].at_ns == first[i].at_ns &&
                reseeded[i].traffic == first[i].traffic &&
                reseeded[i].row == first[i].row;
  EXPECT_FALSE(identical);
}

TEST_F(LoadTest, GeneratorValidatesTraffic) {
  ModelRegistry registry;
  BuildRegistry(&registry);
  MultiTenantEngine engine(&registry);

  LoadGenerator empty(&engine, {});
  EXPECT_EQ(empty.Run().status().code(), StatusCode::kInvalidArgument);

  LoadGenerator unknown(&engine, {{"nope", 1.0, &*features_}});
  EXPECT_EQ(unknown.Run().status().code(), StatusCode::kInvalidArgument);

  LoadGenerator null_rows(&engine, {{"interactive", 1.0, nullptr}});
  EXPECT_EQ(null_rows.Run().status().code(), StatusCode::kInvalidArgument);
  engine.Stop();
}

TEST_F(LoadTest, OpenLoopRunReconcilesAccounting) {
  ModelRegistry registry;
  BuildRegistry(&registry);
  MultiTenantEngine engine(&registry);

  LoadOptions options;
  options.mode = LoadOptions::Mode::kOpenLoop;
  options.offered_rps = 400.0;
  options.duration_s = 0.25;
  options.seed = 42;
  LoadGenerator generator(&engine, Traffic(), options);
  StatusOr<LoadReport> report = generator.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  engine.Stop();

  EXPECT_GT(report->offered, 0u);
  EXPECT_EQ(report->errors, 0u);
  EXPECT_EQ(report->offered, report->completed + report->rejected);
  ASSERT_EQ(report->tenants.size(), 2u);
  size_t tenant_offered = 0;
  for (const TenantLoadStats& t : report->tenants) {
    tenant_offered += t.offered;
    EXPECT_EQ(t.offered, t.completed + t.rejected + t.errors);
    EXPECT_GE(t.slo_attainment, 0.0);
    EXPECT_LE(t.slo_attainment, 1.0);
  }
  EXPECT_EQ(tenant_offered, report->offered);

  Status accounting = CheckAccounting(engine, *report);
  EXPECT_TRUE(accounting.ok()) << accounting.ToString();
}

TEST_F(LoadTest, ClosedLoopRunReconcilesAccounting) {
  ModelRegistry registry;
  BuildRegistry(&registry);
  MultiTenantEngine engine(&registry);

  LoadOptions options;
  options.mode = LoadOptions::Mode::kClosedLoop;
  options.closed_workers = 3;
  options.requests_per_worker = 20;
  options.think_time_ms = 0.0;
  options.seed = 7;
  LoadGenerator generator(&engine, Traffic(), options);
  StatusOr<LoadReport> report = generator.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  engine.Stop();

  EXPECT_EQ(report->offered, 3u * 20u);
  EXPECT_EQ(report->errors, 0u);
  EXPECT_EQ(report->offered, report->completed + report->rejected);
  // Ample queues + synchronous workers: nothing should have been shed.
  EXPECT_EQ(report->rejected, 0u);

  Status accounting = CheckAccounting(engine, *report);
  EXPECT_TRUE(accounting.ok()) << accounting.ToString();
}

}  // namespace
}  // namespace gnn4tdl
