// Tests for src/obs: span tracing (nesting, ambient parents across the
// thread pool, FakeClock-exact durations), the metrics registry (sharded
// counters, histogram quantile accuracy against an exact sort, Prometheus
// exposition), kernel counter hooks, and the Chrome-trace validator. The
// load-bearing claims: span parentage is correct even when work hops onto
// pool threads, and histogram quantiles honor the documented relative-error
// bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "gate_clock.h"
#include "models/knn_gnn.h"
#include "obs/clock.h"
#include "obs/json_lite.h"
#include "obs/kernel_hooks.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "poll_until.h"
#include "serve/engine.h"
#include "serve/frozen_model.h"
#include "tensor/matrix.h"

namespace gnn4tdl {
namespace {

using obs::FakeClock;
using obs::SpanRecord;
using obs::TraceSpan;
using obs::Tracer;

// Every tracing test drives the global tracer; this fixture guarantees the
// tracer is stopped and back on the real clock no matter how the test exits,
// so tests cannot leak tracing state into each other.
class TracingTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Tracer::Global().Stop();
    Tracer::Global().set_clock(nullptr);
  }

  static const SpanRecord* FindSpan(const std::vector<SpanRecord>& spans,
                                    const std::string& name) {
    for (const SpanRecord& s : spans)
      if (s.name == name) return &s;
    return nullptr;
  }
};

TEST_F(TracingTest, FakeClockNestedSpansHaveExactDurationsAndParents) {
  FakeClock clock;
  Tracer& tracer = Tracer::Global();
  tracer.set_clock(&clock);
  tracer.Start();
  {
    TraceSpan outer("outer");
    clock.AdvanceMillis(5);
    {
      TraceSpan inner("inner");
      inner.AddFlops(128.0);
      inner.AddItems(4.0);
      clock.AdvanceMillis(2);
    }
    clock.AdvanceMillis(1);
  }
  tracer.Stop();

  std::vector<SpanRecord> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord* outer = FindSpan(spans, "outer");
  const SpanRecord* inner = FindSpan(spans, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(outer->dur_ns, 8'000'000);
  EXPECT_EQ(inner->dur_ns, 2'000'000);
  EXPECT_EQ(inner->start_ns - outer->start_ns, 5'000'000);
  EXPECT_DOUBLE_EQ(inner->flops, 128.0);
  EXPECT_DOUBLE_EQ(inner->items, 4.0);
  // Collect() is sorted by start time.
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
}

TEST_F(TracingTest, SpansOpenedInsideParallelForParentUnderTheCallersSpan) {
  ThreadPool::Global().SetNumThreads(4);
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  uint64_t driver_id = 0;
  {
    TraceSpan driver("pf_driver");
    driver_id = TraceSpan::ActiveId();
    ASSERT_NE(driver_id, 0u);
    ParallelFor(0, 64, 1, [](size_t begin, size_t end) {
      TraceSpan chunk("pf_chunk");
      chunk.AddItems(static_cast<double>(end - begin));
    });
  }
  tracer.Stop();

  std::vector<SpanRecord> spans = tracer.Collect();
  size_t chunks = 0;
  for (const SpanRecord& s : spans) {
    if (s.name != "pf_chunk") continue;
    ++chunks;
    // Worker-side chunks inherit the submitting span as ambient parent;
    // caller-lane chunks nest under it directly. Either way: one tree.
    EXPECT_EQ(s.parent, driver_id) << "chunk span escaped the driver span";
  }
  EXPECT_GE(chunks, 1u);
  ASSERT_NE(FindSpan(spans, "pf_driver"), nullptr);
  EXPECT_EQ(FindSpan(spans, "pf_driver")->parent, 0u);
}

// Trainer::Fit's phase spans are the training ledger: forward, backward,
// optimizer and validate nest directly under each train/epoch span and
// together cover at least 95% of it.
TEST_F(TracingTest, TrainPhaseSpansNestUnderEpochAndCoverIt) {
  TabularDataset data = MakeClusters({.num_rows = 200,
                                      .num_classes = 3,
                                      .dim_informative = 6,
                                      .dim_noise = 2,
                                      .seed = 9});
  Rng rng(21);
  Split split = StratifiedSplit(data.class_labels(), 0.6, 0.2, rng);
  InstanceGraphGnnOptions options;
  options.backbone = GnnBackbone::kGcn;
  options.hidden_dim = 32;
  options.num_layers = 2;
  options.knn.k = 6;
  options.train.max_epochs = 6;
  options.train.verbose = false;
  InstanceGraphGnn model(options);
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  ASSERT_TRUE(model.Fit(data, split).ok());
  tracer.Stop();

  const std::vector<SpanRecord> spans = tracer.Collect();
  std::map<uint64_t, int64_t> epoch_dur;
  for (const SpanRecord& s : spans) {
    if (s.name == "train/epoch") epoch_dur[s.id] = s.dur_ns;
  }
  ASSERT_EQ(epoch_dur.size(), 6u);
  const std::set<std::string> phases = {"train/forward", "train/backward",
                                        "train/optimizer", "train/validate"};
  std::map<uint64_t, int64_t> covered;
  std::map<std::string, size_t> count;
  for (const SpanRecord& s : spans) {
    if (phases.count(s.name) == 0) continue;
    ASSERT_EQ(epoch_dur.count(s.parent), 1u)
        << s.name << " is not a child of a train/epoch span";
    covered[s.parent] += s.dur_ns;
    ++count[s.name];
  }
  for (const std::string& phase : phases) EXPECT_EQ(count[phase], 6u) << phase;
  int64_t total = 0, total_covered = 0;
  for (const auto& [id, dur] : epoch_dur) {
    total += dur;
    total_covered += covered[id];
  }
  EXPECT_GE(static_cast<double>(total_covered),
            0.95 * static_cast<double>(total));
}

TEST_F(TracingTest, StoppedTracerRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  { TraceSpan kept("kept"); }
  tracer.Stop();
  { TraceSpan ghost("ghost"); }
  std::vector<SpanRecord> spans = tracer.Collect();
  EXPECT_NE(FindSpan(spans, "kept"), nullptr);
  EXPECT_EQ(FindSpan(spans, "ghost"), nullptr);
  EXPECT_EQ(TraceSpan::ActiveId(), 0u);
}

TEST_F(TracingTest, ChromeTraceExportValidatesAndCarriesAnnotations) {
  FakeClock clock;
  Tracer& tracer = Tracer::Global();
  tracer.set_clock(&clock);
  tracer.Start();
  {
    TraceSpan a("alpha \"quoted\"");
    clock.AdvanceMillis(3);
    TraceSpan b("beta");
    b.AddBytes(4096.0);
    clock.AdvanceMillis(1);
  }
  tracer.Stop();

  std::ostringstream out;
  tracer.WriteChromeTrace(out);
  std::string err;
  EXPECT_TRUE(obs::ValidateChromeTrace(out.str(), {"beta"}, &err)) << err;
  // The escaped name must survive a JSON round-trip.
  obs::JsonValue root;
  ASSERT_TRUE(obs::ParseJson(out.str(), &root, &err)) << err;
  EXPECT_NE(out.str().find("alpha \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(out.str().find("\"bytes\""), std::string::npos);

  // Missing required span names and malformed input both fail validation.
  EXPECT_FALSE(obs::ValidateChromeTrace(out.str(), {"nonexistent"}, &err));
  EXPECT_FALSE(obs::ValidateChromeTrace("{not json", {}, &err));
}

TEST(CounterTest, ShardedAccumulationIsExactUnderParallelFor) {
  ThreadPool::Global().SetNumThreads(4);
  obs::Counter counter;
  constexpr size_t kAdds = 10000;
  ParallelFor(0, kAdds, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) counter.Add(1.0);
  });
  EXPECT_DOUBLE_EQ(counter.Value(), static_cast<double>(kAdds));
}

TEST(HistogramTest, QuantilesHonorTheDocumentedRelativeErrorBound) {
  obs::Histogram hist;
  const double bound = hist.RelativeErrorBound();
  ASSERT_NEAR(bound, 0.0443, 1e-3);

  // Log-uniform samples across 5 decades — the regime histograms exist for.
  Rng rng(42);
  std::vector<double> values;
  for (size_t i = 0; i < 5000; ++i) {
    double v = std::pow(10.0, -2.0 + 5.0 * rng.Uniform());
    values.push_back(v);
    hist.Record(v);
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());

  EXPECT_EQ(hist.Count(), values.size());
  EXPECT_DOUBLE_EQ(hist.Min(), sorted.front());
  EXPECT_DOUBLE_EQ(hist.Max(), sorted.back());

  for (double q : {0.01, 0.25, 0.50, 0.90, 0.95, 0.99}) {
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    if (rank == 0) rank = 1;
    double exact = sorted[rank - 1];
    double est = hist.Quantile(q);
    EXPECT_LE(std::abs(est - exact) / exact, bound + 1e-9)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(HistogramTest, OutOfRangeValuesClampToExactMinAndMax) {
  obs::Histogram hist(obs::HistogramOptions{.min_value = 1.0,
                                            .growth = 2.0,
                                            .num_buckets = 4});
  hist.Record(0.25);    // below min_value -> underflow bucket
  hist.Record(1000.0);  // above the top bound -> overflow bucket
  EXPECT_EQ(hist.Count(), 2u);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.0), 0.25);
  EXPECT_DOUBLE_EQ(hist.Quantile(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(hist.Min(), 0.25);
  EXPECT_DOUBLE_EQ(hist.Max(), 1000.0);
}

TEST(HistogramTest, MergeAddsSamplesAndKeepsTheFresherExemplar) {
  const obs::HistogramOptions options{.min_value = 1.0,
                                      .growth = 2.0,
                                      .num_buckets = 4};
  obs::Histogram a(options);
  obs::Histogram b(options);
  a.Record(1.5, 11);   // (1,2]
  a.Record(3.0, 12);   // (2,4]
  b.Record(0.5);       // underflow, no exemplar
  b.Record(1.25, 21);  // (1,2], fresher than a's 11
  b.Record(2.5, 22);   // (2,4]
  b.Record(100.0);     // overflow
  a.Record(3.5, 13);   // (2,4], fresher than b's 22

  a.Merge(b);
  EXPECT_EQ(a.Count(), 7u);
  EXPECT_DOUBLE_EQ(a.Sum(), 1.5 + 3.0 + 0.5 + 1.25 + 2.5 + 100.0 + 3.5);
  EXPECT_DOUBLE_EQ(a.Min(), 0.5);
  EXPECT_DOUBLE_EQ(a.Max(), 100.0);
  EXPECT_EQ(b.Count(), 4u);  // the source is left as it was

  // Freshness is by record order, not merge order, in either direction.
  uint64_t id_up_to_2 = 0, id_up_to_4 = 0;
  for (const obs::HistogramExemplar& e : a.Exemplars()) {
    if (e.upper_bound == 2.0) id_up_to_2 = e.trace_id;
    if (e.upper_bound == 4.0) id_up_to_4 = e.trace_id;
  }
  EXPECT_EQ(id_up_to_2, 21u);
  EXPECT_EQ(id_up_to_4, 13u);

  obs::Histogram empty(options);
  a.Merge(empty);
  EXPECT_EQ(a.Count(), 7u);
  empty.Merge(b);
  EXPECT_DOUBLE_EQ(empty.Min(), 0.5);
  EXPECT_DOUBLE_EQ(empty.Max(), 100.0);
}

TEST(MetricsRegistryTest, PrometheusExpositionMatchesGolden) {
  obs::MetricsRegistry registry;
  registry.GetCounter("test.requests").Add(3.0);
  registry.GetGauge("test.depth").Set(7.0);
  obs::Histogram& hist = registry.GetHistogram(
      "test.lat", obs::HistogramOptions{.min_value = 1.0,
                                        .growth = 2.0,
                                        .num_buckets = 4});
  hist.Record(1.5);
  hist.Record(3.0);

  std::ostringstream out;
  registry.WritePrometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE gnn4tdl_test_requests counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("gnn4tdl_test_requests 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gnn4tdl_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("gnn4tdl_test_depth 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gnn4tdl_test_lat histogram"), std::string::npos);
  EXPECT_NE(text.find("gnn4tdl_test_lat_bucket{le=\"+Inf\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("gnn4tdl_test_lat_count 2"), std::string::npos);
  EXPECT_NE(text.find("gnn4tdl_test_lat_sum 4.5"), std::string::npos);
  // Cumulative bucket series: 1.5 lands in (1,2], 3.0 in (2,4].
  EXPECT_NE(text.find("gnn4tdl_test_lat_bucket{le=\"2\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("gnn4tdl_test_lat_bucket{le=\"4\"} 2"),
            std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, ReturnedReferencesAreStableAndNamesAreReused) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.GetCounter("same");
  obs::Counter& b = registry.GetCounter("same");
  EXPECT_EQ(&a, &b);
  a.Add(1.0);
  b.Add(2.0);
  EXPECT_DOUBLE_EQ(registry.GetCounter("same").Value(), 3.0);
}

TEST(KernelCountersTest, MatmulReportsExactFlopCount) {
  obs::KernelCounters::Reset();
  obs::KernelCounters::Enable();
  Rng rng(3);
  Matrix a = Matrix::Randn(8, 16, rng);
  Matrix b = Matrix::Randn(16, 4, rng);
  (void)a.Matmul(b);
  obs::KernelCounters::Disable();

  auto snapshot = obs::KernelCounters::Snapshot();
  ASSERT_TRUE(snapshot.count("matmul"));
  EXPECT_EQ(snapshot["matmul"].calls, 1u);
  EXPECT_DOUBLE_EQ(snapshot["matmul"].flops, 2.0 * 8 * 16 * 4);
  obs::KernelCounters::Reset();
  EXPECT_TRUE(obs::KernelCounters::Snapshot().empty());
}

// FakeClock-driven engine latency: hold the worker at a gate on its first
// row, queue two more behind it, advance frozen fake time, then release it.
// Every latency is exactly the advance we injected.
TEST(ServingEngineObsTest, FakeClockMakesLatencyDeterministic) {
  TabularDataset data = MakeClusters({.num_rows = 120,
                                      .num_classes = 3,
                                      .dim_informative = 5,
                                      .dim_noise = 2,
                                      .seed = 7});
  Rng rng(17);
  Split split = StratifiedSplit(data.class_labels(), 0.7, 0.15, rng);
  InstanceGraphGnnOptions options;
  options.backbone = GnnBackbone::kGcn;
  options.hidden_dim = 8;
  options.num_layers = 2;
  options.knn.k = 4;
  options.train.max_epochs = 5;
  options.train.verbose = false;
  options.seed = 3;
  InstanceGraphGnn model(options);
  ASSERT_TRUE(model.Fit(data, split).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();

  FakeClock clock;
  testing::GateClock gate(&clock);
  ServingOptions serve_opts;
  serve_opts.max_batch = 3;  // room for both rows queued behind the held one
  serve_opts.clock = &gate;
  ServingEngine engine(&*frozen, serve_opts);

  Matrix x = frozen->Featurize(data).value();
  auto row = [&](size_t i) {
    return std::vector<double>(x.row_data(i), x.row_data(i) + x.cols());
  };
  StatusOr<std::future<std::vector<double>>> f0 = engine.Submit(row(0));
  ASSERT_TRUE(f0.ok());
  ASSERT_TRUE(testing::PollUntil([&] { return gate.parked() == 1; }));
  StatusOr<std::future<std::vector<double>>> f1 = engine.Submit(row(1));
  StatusOr<std::future<std::vector<double>>> f2 = engine.Submit(row(2));
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  // Fake time is frozen, and the worker reads it only once released.
  clock.AdvanceMillis(7.0);
  gate.Open();
  f0->get();
  f1->get();
  f2->get();
  engine.Stop();

  ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_rows, 1.5);
  // All three requests took exactly 7 fake ms end to end; max is exact,
  // quantiles are histogram estimates within the documented bound.
  EXPECT_DOUBLE_EQ(stats.max_ms, 7.0);
  EXPECT_NEAR(stats.p50_ms, 7.0, 7.0 * 0.05);
  EXPECT_NEAR(stats.p99_ms, 7.0, 7.0 * 0.05);
  // 3 requests over a 7 ms fake window.
  EXPECT_NEAR(stats.throughput_rps, 3.0 / 0.007, 1.0);
}

}  // namespace
}  // namespace gnn4tdl
