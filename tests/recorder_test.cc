// Flight-recorder tests: ring wraparound eviction, bounded SLO-breach
// retention with span-id remapping, per-span allocated-bytes attribution via
// SpanCapture, FakeClock determinism of the engine's digest stream (two runs
// with the same seed and clock produce identical rings and retained traces),
// histogram exemplar export, and tsan-checked concurrent Submit vs dump.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "gate_clock.h"
#include "models/knn_gnn.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "poll_until.h"
#include "serve/frozen_model.h"
#include "serve/registry.h"
#include "serve/tenant_engine.h"

namespace gnn4tdl {
namespace {

using obs::FlightRecorder;
using obs::FlightRecorderOptions;
using obs::RequestDigest;

RequestDigest MakeDigest(uint64_t trace_id, bool breach = false) {
  RequestDigest d;
  d.tenant = "t";
  d.trace_id = trace_id;
  d.queue_wait_ms = 1.0;
  d.compute_ms = 2.0;
  d.total_ms = 3.0;
  d.batch_size = 1;
  d.slo_ms = breach ? 0.5 : 50.0;
  d.slo_breach = breach;
  return d;
}

TEST(FlightRecorderTest, RingWrapsOldestFirstPerStripe) {
  FlightRecorderOptions options;
  options.ring_capacity = 8;
  options.stripes = 2;
  FlightRecorder recorder(options);
  for (uint64_t id = 1; id <= 20; ++id) recorder.Record(MakeDigest(id));

  FlightRecorder::Stats stats = recorder.stats();
  EXPECT_EQ(stats.recorded, 20u);
  EXPECT_EQ(stats.ring_evicted, 12u);  // 8 slots keep the last 4 per stripe
  EXPECT_EQ(stats.retained, 0u);

  // Stripe = trace_id % 2, so stripe 0 holds the even ids, stripe 1 the odd
  // ones; each keeps its last 4, oldest first.
  std::vector<uint64_t> got;
  for (const RequestDigest& d : recorder.RingSnapshot()) {
    got.push_back(d.trace_id);
  }
  EXPECT_EQ(got, (std::vector<uint64_t>{14, 16, 18, 20, 13, 15, 17, 19}));

  EXPECT_TRUE(recorder.FindTrace(20).has_value());
  EXPECT_FALSE(recorder.FindTrace(2).has_value());  // evicted by the wrap
}

TEST(FlightRecorderTest, DisabledRecorderDropsEverything) {
  FlightRecorderOptions options;
  options.enabled = false;
  FlightRecorder recorder(options);
  recorder.Record(MakeDigest(1));
  recorder.Record(MakeDigest(2, /*breach=*/true));
  EXPECT_EQ(recorder.stats().recorded, 0u);
  EXPECT_TRUE(recorder.RingSnapshot().empty());
  EXPECT_TRUE(recorder.RetainedSnapshot().empty());
  EXPECT_FALSE(recorder.FindTrace(1).has_value());
}

TEST(FlightRecorderTest, RetentionKeepsBreachSubtreesBoundedFifo) {
  FlightRecorderOptions options;
  options.retained_capacity = 2;
  FlightRecorder recorder(options);

  auto breach_with_spans = [](uint64_t trace_id) {
    RequestDigest d = MakeDigest(trace_id, /*breach=*/true);
    obs::SpanRecord child;
    child.name = "kernels/matmul";
    child.id = 700 + trace_id;
    child.parent = 900 + trace_id;
    obs::SpanRecord root;
    root.name = "serve/batch";
    root.id = 900 + trace_id;
    root.parent = 12345;  // unknown outer span: must remap to 0
    root.request_ids = {trace_id};
    d.spans = {child, root};  // capture order: children close first
    return d;
  };
  recorder.Record(breach_with_spans(1));
  recorder.Record(MakeDigest(2));  // non-breach: ring only
  recorder.Record(breach_with_spans(3));
  recorder.Record(breach_with_spans(4));  // evicts trace 1 from retention

  FlightRecorder::Stats stats = recorder.stats();
  EXPECT_EQ(stats.recorded, 4u);
  EXPECT_EQ(stats.retained, 3u);
  EXPECT_EQ(stats.retained_evicted, 1u);

  std::vector<RequestDigest> retained = recorder.RetainedSnapshot();
  ASSERT_EQ(retained.size(), 2u);
  EXPECT_EQ(retained[0].trace_id, 3u);
  EXPECT_EQ(retained[1].trace_id, 4u);

  // Retained spans are renumbered 1..n in capture order with unknown parents
  // dropped to 0, so retained traces are run-to-run deterministic.
  ASSERT_EQ(retained[0].spans.size(), 2u);
  EXPECT_EQ(retained[0].spans[0].id, 1u);
  EXPECT_EQ(retained[0].spans[0].parent, 2u);  // child hangs off the root
  EXPECT_EQ(retained[0].spans[1].id, 2u);
  EXPECT_EQ(retained[0].spans[1].parent, 0u);

  // FindTrace prefers the retained copy (it has the spans); ring digests are
  // span-free.
  std::optional<RequestDigest> found = recorder.FindTrace(3);
  ASSERT_TRUE(found.has_value());
  EXPECT_FALSE(found->spans.empty());
  std::optional<RequestDigest> ring_only = recorder.FindTrace(2);
  ASSERT_TRUE(ring_only.has_value());
  EXPECT_TRUE(ring_only->spans.empty());
  // Trace 1's digest survives in the ring even though its subtree aged out.
  std::optional<RequestDigest> evicted = recorder.FindTrace(1);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_TRUE(evicted->spans.empty());
}

TEST(SpanCaptureTest, AttributesAllocatedBytesToOpenSpans) {
  std::vector<obs::SpanRecord> spans;
  {
    obs::SpanCapture capture(&spans);
    obs::TraceSpan outer("outer");
    obs::AddAllocatedBytesOnThisThread(100);
    {
      obs::TraceSpan inner("inner");
      obs::AddAllocatedBytesOnThisThread(23);
    }
    obs::AddAllocatedBytesOnThisThread(7);
  }
  ASSERT_EQ(spans.size(), 2u);  // inner closes first
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].alloc_bytes, 23.0);
  EXPECT_EQ(spans[1].name, "outer");
  // The counter is monotonic per thread: the outer delta includes the child.
  EXPECT_EQ(spans[1].alloc_bytes, 130.0);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[0].parent, spans[1].id);

  // With no capture installed and tracing off, spans record nothing.
  std::vector<obs::SpanRecord> after;
  { obs::TraceSpan idle("idle"); }
  EXPECT_TRUE(after.empty());
}

TEST(HistogramExemplarTest, PrometheusBucketsCarryFreshestTraceId) {
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.GetHistogram("exemplar.latency_ms");
  hist.Record(1.0, 7);
  hist.Record(1.0, 9);    // same bucket: 9 is fresher and must win
  hist.Record(50.0, 11);  // different bucket; also freshest overall
  obs::Histogram& plain = registry.GetHistogram("plain.latency_ms");
  plain.Record(1.0);  // no exemplar id: lines must stay bare

  std::ostringstream out;
  registry.WritePrometheus(out);
  const std::string text = out.str();

  EXPECT_NE(text.find("gnn4tdl_exemplar_latency_ms_bucket"),
            std::string::npos);
  EXPECT_NE(text.find("# {trace_id=\"9\"} 1"), std::string::npos);
  EXPECT_EQ(text.find("trace_id=\"7\""), std::string::npos);
  EXPECT_NE(text.find("# {trace_id=\"11\"} 50"), std::string::npos);

  // The +Inf line carries the freshest exemplar overall.
  size_t inf_at = text.find("_bucket{le=\"+Inf\"}");
  ASSERT_NE(inf_at, std::string::npos);
  size_t inf_end = text.find('\n', inf_at);
  EXPECT_NE(text.substr(inf_at, inf_end - inf_at).find("trace_id=\"11\""),
            std::string::npos);

  // The exemplar-free histogram exports bare bucket lines.
  size_t plain_at = text.find("gnn4tdl_plain_latency_ms_bucket");
  ASSERT_NE(plain_at, std::string::npos);
  size_t plain_end = text.find('\n', plain_at);
  EXPECT_EQ(text.substr(plain_at, plain_end - plain_at).find("trace_id"),
            std::string::npos);
}

// Trains and freezes one small GCN once; engine tests reload the artifact.
class RecorderEngineTest : public ::testing::Test {
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
    return FrozenModel::Load(in, {});
  }

  static std::vector<double> Row(size_t i) {
    size_t r = i % features_->rows();
    return std::vector<double>(features_->row_data(r),
                               features_->row_data(r) + features_->cols());
  }

  inline static std::string artifact_;
  inline static std::optional<Matrix> features_;
};

// One SLO-breaching batch under a FakeClock: the worker is held at a gate on
// a row of a second tenant ("hold", SLO well above the run), three requests
// for "t" queue behind it, fake time jumps past the 5ms SLO, and the gate
// opens. The worker then takes the batch of exactly three; every "t" digest
// shows the advanced wait, breaches, and keeps a span subtree findable by
// trace id.
struct FakeRunResult {
  std::vector<RequestDigest> ring;
  std::vector<RequestDigest> retained;
};

// Caller-chosen id of the held row, outside the engine-assigned 1, 2, 3.
constexpr uint64_t kHeldTraceId = 100;

FakeRunResult RunFakeClockBreachScenario(
    std::vector<double> (*row)(size_t), StatusOr<FrozenModel> model) {
  obs::FakeClock clock;
  obs::Tracer::Global().set_clock(&clock);
  testing::GateClock gate(&clock);

  ModelRegistry registry;
  TenantOptions tenant;
  tenant.max_batch = 8;
  tenant.slo_ms = 5.0;
  EXPECT_TRUE(registry.AddTenant("t", std::move(*model), tenant).ok());
  TenantOptions hold;
  hold.slo_ms = 1000.0;
  EXPECT_TRUE(registry.AddTenant("hold", registry.Find("t")->model, hold).ok());

  MultiTenantEngineOptions engine_options;
  engine_options.clock = &gate;
  MultiTenantEngine engine(&registry, engine_options);

  StatusOr<SubmitResult> held =
      engine.SubmitTraced("hold", row(3), kHeldTraceId);
  EXPECT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_TRUE(testing::PollUntil([&] { return gate.parked() == 1; }));
  std::vector<std::future<std::vector<double>>> futures;
  futures.push_back(std::move(held->future));
  for (size_t i = 0; i < 3; ++i) {
    StatusOr<SubmitResult> submitted = engine.SubmitTraced("t", row(i));
    EXPECT_TRUE(submitted.ok()) << submitted.status().ToString();
    EXPECT_EQ(submitted->trace_id, i + 1);  // engine-assigned, in order
    futures.push_back(std::move(submitted->future));
  }
  // Fake time jumps past the 5ms SLO before the worker reads it again.
  clock.AdvanceMillis(20.0);
  gate.Open();
  for (auto& f : futures) f.get();
  engine.Stop();

  FakeRunResult result;
  result.ring = engine.recorder().RingSnapshot();
  result.retained = engine.recorder().RetainedSnapshot();
  obs::Tracer::Global().set_clock(nullptr);
  return result;
}

void ExpectDigestStreamsEqual(const std::vector<RequestDigest>& a,
                              const std::vector<RequestDigest>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].trace_id, b[i].trace_id);
    EXPECT_EQ(a[i].enqueued_ns, b[i].enqueued_ns);
    EXPECT_EQ(a[i].queue_wait_ms, b[i].queue_wait_ms);
    EXPECT_EQ(a[i].compute_ms, b[i].compute_ms);
    EXPECT_EQ(a[i].total_ms, b[i].total_ms);
    EXPECT_EQ(a[i].batch_size, b[i].batch_size);
    EXPECT_EQ(a[i].flops, b[i].flops);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].alloc_bytes, b[i].alloc_bytes);
    EXPECT_EQ(a[i].slo_ms, b[i].slo_ms);
    EXPECT_EQ(a[i].slo_breach, b[i].slo_breach);
    ASSERT_EQ(a[i].spans.size(), b[i].spans.size());
    for (size_t s = 0; s < a[i].spans.size(); ++s) {
      EXPECT_EQ(a[i].spans[s].name, b[i].spans[s].name);
      EXPECT_EQ(a[i].spans[s].id, b[i].spans[s].id);
      EXPECT_EQ(a[i].spans[s].parent, b[i].spans[s].parent);
      EXPECT_EQ(a[i].spans[s].tid, b[i].spans[s].tid);
      EXPECT_EQ(a[i].spans[s].start_ns, b[i].spans[s].start_ns);
      EXPECT_EQ(a[i].spans[s].dur_ns, b[i].spans[s].dur_ns);
      EXPECT_EQ(a[i].spans[s].flops, b[i].spans[s].flops);
      EXPECT_EQ(a[i].spans[s].bytes, b[i].spans[s].bytes);
      EXPECT_EQ(a[i].spans[s].alloc_bytes, b[i].spans[s].alloc_bytes);
      EXPECT_EQ(a[i].spans[s].request_ids, b[i].spans[s].request_ids);
    }
  }
}

TEST_F(RecorderEngineTest, SloBreachRetainsSubtreeDeterministically) {
  StatusOr<FrozenModel> first = Load();
  ASSERT_TRUE(first.ok());
  FakeRunResult run = RunFakeClockBreachScenario(&Row, std::move(first));

  ASSERT_EQ(run.ring.size(), 4u);
  size_t breached = 0;
  for (const RequestDigest& d : run.ring) {
    if (d.trace_id == kHeldTraceId) {
      EXPECT_EQ(d.tenant, "hold");
      EXPECT_EQ(d.batch_size, 1u);
      EXPECT_EQ(d.total_ms, 20.0);
      EXPECT_FALSE(d.slo_breach);  // 20ms against a 1000ms SLO
      continue;
    }
    ++breached;
    EXPECT_EQ(d.tenant, "t");
    EXPECT_EQ(d.queue_wait_ms, 20.0);  // exact: fake time advanced once
    EXPECT_EQ(d.compute_ms, 0.0);
    EXPECT_EQ(d.total_ms, 20.0);
    EXPECT_EQ(d.batch_size, 3u);
    EXPECT_GT(d.flops, 0.0);  // kernel spans captured with tracing off
    EXPECT_GT(d.alloc_bytes, 0.0);
    EXPECT_TRUE(d.slo_breach);  // 20ms against a 5ms SLO
    EXPECT_TRUE(d.spans.empty());
  }
  EXPECT_EQ(breached, 3u);

  // Tail sampling: every breach keeps its span subtree, and the batch span
  // carries all three member request ids — retrievable by any of them.
  ASSERT_EQ(run.retained.size(), 3u);
  for (const RequestDigest& d : run.retained) {
    ASSERT_FALSE(d.spans.empty());
    bool found_batch_span = false;
    for (const obs::SpanRecord& s : d.spans) {
      if (s.name != "serve/batch") continue;
      found_batch_span = true;
      EXPECT_EQ(s.request_ids, (std::vector<uint64_t>{1, 2, 3}));
      EXPECT_GT(s.alloc_bytes, 0.0);
    }
    EXPECT_TRUE(found_batch_span);
  }

  // Same seed + same FakeClock script => identical digests, span for span.
  StatusOr<FrozenModel> second = Load();
  ASSERT_TRUE(second.ok());
  FakeRunResult rerun = RunFakeClockBreachScenario(&Row, std::move(second));
  ExpectDigestStreamsEqual(run.ring, rerun.ring);
  ExpectDigestStreamsEqual(run.retained, rerun.retained);
}

TEST_F(RecorderEngineTest, ConcurrentSubmitAndDumpAreSafe) {
  StatusOr<FrozenModel> model = Load();
  ASSERT_TRUE(model.ok());
  ModelRegistry registry;
  TenantOptions tenant;
  tenant.max_batch = 4;
  tenant.queue_capacity = 4096;
  ASSERT_TRUE(registry.AddTenant("t", std::move(*model), tenant).ok());
  MultiTenantEngine engine(&registry);

  constexpr size_t kRequests = 96;
  std::atomic<bool> submitting{true};
  std::thread submitter([&] {
    for (size_t i = 0; i < kRequests; ++i) {
      StatusOr<SubmitResult> submitted =
          engine.SubmitTraced("t", Row(i), i + 1);
      ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
      submitted->future.get();
    }
    submitting.store(false);
  });

  // Race dumps against live submissions; tsan (preset `tsan`) checks this.
  size_t snapshots = 0;
  while (submitting.load()) {
    std::vector<RequestDigest> ring = engine.recorder().RingSnapshot();
    for (const RequestDigest& d : ring) {
      EXPECT_GT(d.trace_id, 0u);
      EXPECT_LE(d.queue_wait_ms + d.compute_ms, d.total_ms + 1e-6);
    }
    (void)engine.recorder().FindTrace(1 + snapshots % kRequests);
    std::ostringstream dump;
    engine.recorder().WriteJson(dump);
    EXPECT_NE(dump.str().find("\"schema\":1"), std::string::npos);
    ++snapshots;
  }
  submitter.join();
  engine.Stop();

  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(engine.recorder().stats().recorded, kRequests);
  EXPECT_EQ(engine.recorder().RingSnapshot().size(), kRequests);
  for (uint64_t id = 1; id <= kRequests; ++id) {
    EXPECT_TRUE(engine.recorder().FindTrace(id).has_value()) << id;
  }
}

}  // namespace
}  // namespace gnn4tdl
