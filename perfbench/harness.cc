#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "construct/rule_based.h"
#include "data/metrics.h"
#include "data/transforms.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

using gnn4tdl::FrozenModel;
using gnn4tdl::InstanceGraphGnn;
using gnn4tdl::InstanceGraphGnnOptions;
using gnn4tdl::TabularDataset;
using gnn4tdl::kernels::Precision;
namespace obs = gnn4tdl::obs;

namespace {

// Two Gaussian classes whose centres sit at -/+kCentre on every informative
// dimension (the first half of the columns; the rest are pure noise). The
// centres are fixed rather than drawn, so the seed draws a sample of one
// population: graph shape, receptive fields and AUROC vary across seeds only
// by sampling. kConfusion of the rows take their features from the other
// class, which holds AUROC near 0.95, so a lossy serving change moves it.
constexpr double kCentre = 0.75;
constexpr double kConfusion = 0.05;

TabularDataset DrawRows(gnn4tdl::Rng& rng, size_t rows, size_t dim) {
  std::vector<std::vector<double>> columns(dim, std::vector<double>(rows));
  std::vector<int> labels(rows);
  for (size_t i = 0; i < rows; ++i) {
    labels[i] = rng.Bernoulli(0.5) ? 1 : 0;
    const int blob = rng.Bernoulli(kConfusion) ? 1 - labels[i] : labels[i];
    for (size_t j = 0; j < dim; ++j) {
      const double centre = blob == 1 ? kCentre : -kCentre;
      columns[j][i] = (j < dim / 2 ? centre : 0.0) + rng.Normal();
    }
  }
  TabularDataset table(rows);
  for (size_t j = 0; j < dim; ++j) {
    GNN4TDL_CHECK(
        table.AddNumericColumn("f" + std::to_string(j), std::move(columns[j]))
            .ok());
  }
  GNN4TDL_CHECK(table
                    .SetClassLabels(std::move(labels), 2,
                                    gnn4tdl::TaskType::kBinaryClassification)
                    .ok());
  return table;
}

// Kernels reported one by one: those the three workloads run. Any other
// kernel lands in kernel.other.*.
constexpr const char* kReportedKernels[] = {
    "matmul",     "matmul_nt",         "matmul_tn",    "spmm",
    "spmm_t",     "matmul_f32",        "spmm_bias_act_f32",
    "bias_act_f32",
};

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MsBetween(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e6;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TabularDataset TakeRows(const TabularDataset& data, size_t begin, size_t end) {
  TabularDataset out(end - begin);
  for (size_t c = 0; c < data.NumCols(); ++c) {
    const gnn4tdl::Column& col = data.column(c);
    std::vector<double> values(col.numeric.begin() + begin,
                               col.numeric.begin() + end);
    GNN4TDL_CHECK(out.AddNumericColumn(col.name, std::move(values)).ok());
  }
  std::vector<int> labels(data.class_labels().begin() + begin,
                          data.class_labels().begin() + end);
  GNN4TDL_CHECK(
      out.SetClassLabels(std::move(labels), data.num_classes(), data.task())
          .ok());
  return out;
}

Tables MakeTables(uint64_t seed, size_t train_rows, size_t heldout_rows,
                  size_t dim) {
  gnn4tdl::Rng rng(DeriveSeed(seed, 1));
  Tables tables;
  tables.train = DrawRows(rng, train_rows, dim);
  tables.heldout = DrawRows(rng, heldout_rows, dim);
  gnn4tdl::Rng split_rng(DeriveSeed(seed, 2));
  tables.split = gnn4tdl::StratifiedSplit(tables.train.class_labels(), 0.7,
                                          0.15, split_rng);
  return tables;
}

Matrix SliceRows(const Matrix& m, size_t begin, size_t end) {
  Matrix out(end - begin, m.cols());
  for (size_t i = begin; i < end; ++i) {
    std::memcpy(out.row_data(i - begin), m.row_data(i),
                m.cols() * sizeof(double));
  }
  return out;
}

StatusOr<Matrix> GraphFeatures(const InstanceGraphGnnOptions& options,
                               const Tables& tables) {
  gnn4tdl::Featurizer featurizer(options.featurizer);
  GNN4TDL_RETURN_IF_ERROR(featurizer.Fit(tables.train, tables.split.train));
  return featurizer.Transform(tables.train);
}

gnn4tdl::Graph BuildKnnGraph(const Matrix& x,
                             const gnn4tdl::KnnGraphOptions& options,
                             double* ms) {
  obs::TraceSpan span("bench/construct");
  const int64_t t0 = NowNs();
  gnn4tdl::Graph graph = gnn4tdl::KnnGraph(x, options);
  *ms += MsBetween(t0, NowNs());
  return graph;
}

StatusOr<Fitted> FitOnGraph(InstanceGraphGnnOptions options,
                            gnn4tdl::Graph graph, const Tables& tables) {
  options.graph_source = gnn4tdl::GraphSource::kPrecomputed;
  options.train.patience = 0;
  Fitted fitted;
  fitted.model = std::make_unique<InstanceGraphGnn>(options);
  fitted.model->SetGraph(std::move(graph));
  fitted.epochs = options.train.max_epochs;
  obs::TraceSpan span("bench/fit");
  const int64_t t0 = NowNs();
  GNN4TDL_RETURN_IF_ERROR(fitted.model->Fit(tables.train, tables.split));
  fitted.fit_ms = MsBetween(t0, NowNs());
  return fitted;
}

StatusOr<std::string> SaveArtifact(const InstanceGraphGnn& model, double* ms) {
  std::ostringstream out;
  const int64_t t0 = NowNs();
  GNN4TDL_RETURN_IF_ERROR(FrozenModel::Save(model, out));
  *ms += MsBetween(t0, NowNs());
  return out.str();
}

StatusOr<FrozenModel> LoadArtifact(const std::string& artifact,
                                   Precision precision, double* ms) {
  gnn4tdl::FrozenModelOptions options;
  options.precision = precision;
  std::istringstream in(artifact);
  const int64_t t0 = NowNs();
  StatusOr<FrozenModel> frozen = FrozenModel::Load(in, options);
  *ms += MsBetween(t0, NowNs());
  if (frozen.ok() && frozen->precision() != precision) {
    return Status::Internal(std::string("FrozenModel::Load served ") +
                            gnn4tdl::kernels::PrecisionName(
                                frozen->precision()) +
                            " instead of the requested " +
                            gnn4tdl::kernels::PrecisionName(precision));
  }
  return frozen;
}

Status CheckServedLogits(InstanceGraphGnn& model, const std::string& artifact,
                         const TabularDataset& sample,
                         const std::string& label) {
  StatusOr<Matrix> want = model.PredictInductive(sample);
  if (!want.ok()) return want.status();
  double unused_ms = 0.0;
  StatusOr<FrozenModel> f64 =
      LoadArtifact(artifact, Precision::kF64, &unused_ms);
  if (!f64.ok()) return f64.status();
  StatusOr<FrozenModel> f32 =
      LoadArtifact(artifact, Precision::kF32, &unused_ms);
  if (!f32.ok()) return f32.status();
  StatusOr<Matrix> got64 = f64->Score(sample);
  if (!got64.ok()) return got64.status();
  StatusOr<Matrix> got32 = f32->Score(sample);
  if (!got32.ok()) return got32.status();
  if (got64->rows() != want->rows() || got64->cols() != want->cols() ||
      std::memcmp(got64->data(), want->data(),
                  want->size() * sizeof(double)) != 0) {
    return Status::Internal("f64_bit_exact (" + label +
                            "): served f64 logits differ from "
                            "PredictInductive");
  }
  if (got32->size() != want->size()) {
    return Status::Internal("f32_within_1e-3 (" + label +
                            "): logit shape differs");
  }
  for (size_t i = 0; i < want->size(); ++i) {
    const double diff = std::fabs(got32->data()[i] - want->data()[i]);
    if (!(diff <= kF32LogitTol)) {  // also catches NaN
      return Status::Internal("f32_within_1e-3 (" + label +
                              "): logit difference " + std::to_string(diff));
    }
  }
  return Status::OK();
}

double AurocOf(const Matrix& logits, const std::vector<int>& labels) {
  return gnn4tdl::Auroc(gnn4tdl::PositiveClassScores(logits), labels);
}

// --- Ledger ------------------------------------------------------------------

StatusOr<ServedModel> ServedModel::Wrap(const FrozenModel* frozen) {
  ServedModel served;
  served.frozen_ = frozen;
  if (frozen->precision() == Precision::kF32) {
    StatusOr<gnn4tdl::F32Scorer> scorer =
        gnn4tdl::F32Scorer::Build(frozen->model());
    if (!scorer.ok()) return scorer.status();
    served.f32_.emplace(std::move(*scorer));
    served.x_train_f32_ =
        gnn4tdl::kernels::FMatrix::FromDouble(frozen->model().feature_cache());
  }
  return served;
}

namespace {

/// Runs `fn` under a `span` trace span and keeps its fastest time in
/// *best_ns.
template <typename Fn>
auto Timed(const char* span, int64_t* best_ns, Fn&& fn) {
  obs::TraceSpan trace_span(span);
  const int64_t t0 = NowNs();
  auto out = fn();
  *best_ns = std::min(*best_ns, NowNs() - t0);
  return out;
}

}  // namespace

StatusOr<Matrix> ServedModel::ForwardF64(gnn4tdl::AttachedBatch& batch,
                                         LedgerRow* row) const {
  StatusOr<Matrix> out = Timed("bench/forward", &row->forward_ns, [&] {
    return frozen_->model().ScoreOnGraph(batch.features, batch.graph,
                                         &batch.degrees);
  });
  if (!out.ok()) return out.status();
  const size_t n_sub = batch.train_nodes.size();
  return Timed("bench/assembly", &row->assembly_ns, [&] {
    return SliceRows(*out, n_sub, n_sub + batch.num_new);
  });
}

StatusOr<Matrix> ServedModel::ForwardF32(const Matrix& x,
                                         gnn4tdl::AttachedBatch& batch,
                                         LedgerRow* row) const {
  const size_t n_sub = batch.train_nodes.size();
  // ScoreFeatures' two f32 steps outside Attach and the forward: assembling
  // the feature matrix from the pre-cast training cache and the cast-down
  // new rows, and widening the new rows' logits.
  int64_t assembly_ns = std::numeric_limits<int64_t>::max();
  const gnn4tdl::kernels::FMatrix features =
      Timed("bench/assembly", &assembly_ns, [&] {
        gnn4tdl::kernels::FMatrix f(n_sub + batch.num_new,
                                    x_train_f32_.cols());
        for (size_t i = 0; i < n_sub; ++i) {
          f.SetRow(i, x_train_f32_, batch.train_nodes[i]);
        }
        for (size_t i = 0; i < batch.num_new; ++i) {
          f.SetRowFromDouble(n_sub + i, x.row_data(i));
        }
        return f;
      });
  StatusOr<gnn4tdl::kernels::FMatrix> out =
      Timed("bench/forward", &row->forward_ns, [&] {
        return f32_->Score(features, batch.graph, batch.degrees);
      });
  if (!out.ok()) return out.status();
  int64_t widen_ns = std::numeric_limits<int64_t>::max();
  Matrix logits = Timed("bench/assembly", &widen_ns, [&] {
    Matrix l(batch.num_new, out->cols());
    for (size_t i = 0; i < batch.num_new; ++i) {
      for (size_t j = 0; j < out->cols(); ++j) {
        l(i, j) = static_cast<double>((*out)(n_sub + i, j));
      }
    }
    return l;
  });
  row->assembly_ns = std::min(row->assembly_ns, assembly_ns + widen_ns);
  return logits;
}

StatusOr<LedgerRow> ServedModel::Replay(const Matrix& x) const {
  LedgerRow row;
  row.rows = x.rows();
  row.rows_scanned = static_cast<double>(frozen_->num_train_rows()) *
                     static_cast<double>(x.rows());
  for (int64_t* ns : {&row.knn_ns, &row.attach_ns, &row.forward_ns,
                      &row.assembly_ns, &row.score_ns}) {
    *ns = std::numeric_limits<int64_t>::max();
  }

  for (int rep = 0; rep < kReplayRepeats; ++rep) {
    StatusOr<Matrix> served = Timed("bench/score", &row.score_ns,
                                    [&] { return frozen_->ScoreFeatures(x); });
    if (!served.ok()) return served.status();

    const size_t hits = Timed("bench/knn", &row.knn_ns, [&] {
      return frozen_->index()
          .QueryBatch(x, frozen_->attacher().options().k)
          .size();
    });
    if (hits != x.rows()) return Status::Internal("QueryBatch size");

    StatusOr<gnn4tdl::AttachedBatch> batch =
        Timed("bench/attach", &row.attach_ns, [&] {
          return frozen_->attacher().Attach(
              x, /*with_features=*/!f32_.has_value());
        });
    if (!batch.ok()) return batch.status();
    row.receptive_rows = batch->train_nodes.size();
    row.edges = batch->graph.num_edges();

    StatusOr<Matrix> logits = f32_.has_value() ? ForwardF32(x, *batch, &row)
                                               : ForwardF64(*batch, &row);
    if (!logits.ok()) return logits.status();
    if (logits->rows() != served->rows() || logits->cols() != served->cols() ||
        std::memcmp(logits->data(), served->data(),
                    logits->size() * sizeof(double)) != 0) {
      return Status::Internal(
          "ledger_replay: layer-by-layer forward differs from ScoreFeatures");
    }
  }
  return row;
}

Status CheckLedgerSum(const LedgerRow& row) {
  const double tolerance =
      kLedgerTolFrac * static_cast<double>(row.score_ns) +
      static_cast<double>(kLedgerSlackNs);
  if (std::abs(static_cast<double>(row.residual_ns())) <= tolerance) {
    return Status::OK();
  }
  return Status::Internal(
      "ledger_sum: knn + attach_self + forward + unattributed = " +
      std::to_string(row.parts_ns() / 1000) + " us, ScoreFeatures = " +
      std::to_string(row.score_ns / 1000) + " us (" +
      std::to_string(row.rows) + "-row batch)");
}

Status Ledger::Replay(const ServedModel& served, const Matrix& x) {
  Status sum = Status::OK();
  for (int attempt = 0; attempt < kLedgerAttempts; ++attempt) {
    StatusOr<LedgerRow> row = served.Replay(x);
    if (!row.ok()) return row.status();
    sum = CheckLedgerSum(*row);
    if (sum.ok()) {
      if (attempt > 0) ++retried_;
      rows_.push_back(*row);
      return Status::OK();
    }
  }
  return sum;
}

void Ledger::Emit(Result* result) const {
  // Means, not medians: means keep the parts summing to the call as closely
  // as each batch does.
  auto mean = [this](auto field) {
    double sum = 0.0;
    for (const LedgerRow& r : rows_) sum += static_cast<double>(field(r));
    return rows_.empty() ? 0.0 : sum / static_cast<double>(rows_.size());
  };
  auto us = [&mean](auto field) { return 1e-3 * mean(field); };
  using R = const LedgerRow&;
  result->Add("knn.us_per_batch", us([](R r) { return r.knn_ns; }), "us");
  result->Add("knn.rows_scanned", mean([](R r) { return r.rows_scanned; }),
              "count");
  result->Add("attach.self_us_per_batch",
              us([](R r) { return r.attach_self_ns(); }), "us");
  result->Add("attach.receptive_rows",
              mean([](R r) { return r.receptive_rows; }), "count");
  result->Add("attach.edges", mean([](R r) { return r.edges; }), "count");
  result->Add("forward.us_per_batch", us([](R r) { return r.forward_ns; }),
              "us");
  result->Add("score.us_per_batch", us([](R r) { return r.score_ns; }), "us");
  result->Add("score.unattributed_us",
              us([](R r) { return r.unattributed_ns(); }), "us");
  result->Line(Fmt("ledger.batches", static_cast<double>(rows_.size()),
                   "count",
                   "mean rows per batch " +
                       std::to_string(mean([](R r) { return r.rows; }))));
  result->Line(Fmt("ledger.residual_us", us([](R r) { return r.residual_ns(); }),
                   "us",
                   "mean ScoreFeatures time no part accounts for; each part "
                   "the fastest of " +
                       std::to_string(kReplayRepeats) + " calls; " +
                       std::to_string(retried_) +
                       " batches replayed again to pass ledger_sum"));
}

void EmitOtherLayers(
    const SetupLayers& setup, const gnn4tdl::ServeStats& engine,
    double overhead_frac,
    const std::map<std::string, obs::KernelStats>& kernels, Result* result) {
  result->Add("frozen.save_ms", setup.save_ms, "ms");
  result->Add("frozen.load_ms", setup.load_ms, "ms");
  result->Add("construct.knn_graph_ms", setup.construct_ms, "ms");
  result->Add("train.epoch_ms",
              setup.epochs > 0 ? setup.fit_ms / setup.epochs : 0.0, "ms");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  result->Add("arena.high_water_bytes",
              registry.GetGauge("arena.high_water_bytes").Value(), "bytes");
  result->Add("tape.planned_peak_bytes",
              registry.GetGauge("tape.planned_peak_bytes").Value(), "bytes");
  result->Add("engine.batch_rows_mean", engine.mean_batch_rows, "count");
  result->Add("engine.batches", static_cast<double>(engine.batches), "count");
  result->Add("engine.rejected", static_cast<double>(engine.rejected), "count");
  result->Add("engine.max_queue_depth",
              static_cast<double>(engine.max_queue_depth), "count");
  result->Add("trace.overhead_frac", overhead_frac, "fraction");

  obs::KernelStats other;
  std::map<std::string, obs::KernelStats> remaining = kernels;
  for (const char* name : kReportedKernels) {
    obs::KernelStats stats;
    auto it = remaining.find(name);
    if (it != remaining.end()) {
      stats = it->second;
      remaining.erase(it);
    }
    const std::string prefix = std::string("kernel.") + name;
    result->Add(prefix + ".calls", static_cast<double>(stats.calls), "count");
    result->Add(prefix + ".flops", stats.flops, "count");
    result->Add(prefix + ".bytes", stats.bytes, "bytes");
  }
  std::string other_names;
  for (const auto& [name, stats] : remaining) {
    other.calls += stats.calls;
    other.flops += stats.flops;
    other.bytes += stats.bytes;
    other_names += (other_names.empty() ? "" : ",") + name;
  }
  result->Add("kernel.other.calls", static_cast<double>(other.calls), "count");
  result->Add("kernel.other.flops", other.flops, "count");
  result->Add("kernel.other.bytes", other.bytes, "bytes");
  if (!other_names.empty()) {
    result->Line("kernel.other covers: " + other_names);
  }
}

void SetMetrics(bool on) {
  if (on) {
    obs::EnableMetrics();
  } else {
    obs::DisableMetrics();
  }
}

void StartTracing() {
  obs::EnableMetrics();
  obs::Tracer::Global().Start();
}

Status StopTracing(const std::string& path) {
  obs::Tracer::Global().Stop();
  obs::DisableMetrics();
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write trace '" + path + "'");
  obs::Tracer::Global().WriteChromeTrace(out);
  if (!out) return Status::IoError("write failure on '" + path + "'");
  return Status::OK();
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void EmitEndToEnd(const EndToEnd& e2e, const std::string& what,
                  Result* result) {
  const double setup = NearestRank(e2e.setup_s, 0.5);
  const double p50 = NearestRank(e2e.latency_ms, 0.5);
  const Tail tail = SupportedTail(e2e.latency_ms);
  const double rows_per_s = e2e.wall_s > 0.0 ? e2e.rows / e2e.wall_s : 0.0;
  const double rss = PeakRssMb();
  result->Add("setup_s", setup, "s");
  result->Add("p50_ms", p50, "ms");
  result->Add("rows_per_s", rows_per_s, "rows/s");
  result->Add("auroc", e2e.auroc, "fraction");
  result->Add("peak_rss_mb", rss, "MB");

  const std::string n = "n=" + std::to_string(tail.n);
  std::string each;
  for (double s : e2e.setup_s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.3f", each.empty() ? "" : " ", s);
    each += buf;
  }
  result->Line(Fmt("setup_s", setup, "s",
                   "median of " + std::to_string(e2e.setup_s.size()) +
                       " set-ups: " + each));
  result->Line(Fmt("p50_ms", p50, "ms",
                   what + ", " + n + ", min " +
                       std::to_string(NearestRank(e2e.latency_ms, 0.0)) +
                       " max " +
                       std::to_string(NearestRank(e2e.latency_ms, 1.0))));
  result->Line(Fmt("tail_ms", tail.value, "ms",
                   PercentileName(tail.q) + " of " + what + ", " + n +
                       (tail.fallback ? "; p99 unsupported: fewer than " +
                                            std::to_string(kMinBeyond) +
                                            " samples beyond it"
                                      : "")));
  result->Line(Fmt("rows_per_s", rows_per_s, "rows/s",
                   std::to_string(static_cast<uint64_t>(e2e.rows)) +
                       " rows in " + std::to_string(e2e.wall_s) + " s"));
  result->Line(Fmt("auroc", e2e.auroc, "fraction"));
  result->Line(Fmt("peak_rss_mb", rss, "MB"));
}

double OverheadFrac(const std::vector<double>& before_ms,
                    const std::vector<double>& traced_ms,
                    const std::vector<double>& after_ms) {
  const double untraced =
      0.5 * (NearestRank(before_ms, 0.5) + NearestRank(after_ms, 0.5));
  if (untraced <= 0.0) return 0.0;
  return (NearestRank(traced_ms, 0.5) - untraced) / untraced;
}

std::string Fmt(const std::string& name, double value, const std::string& unit,
                const std::string& detail) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return "  " + name + " = " + buf + " " + unit +
         (detail.empty() ? "" : "  (" + detail + ")");
}

}  // namespace perfbench
