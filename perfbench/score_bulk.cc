// score_bulk: one caller making back-to-back FrozenModel::ScoreFeatures
// calls on 64-row batches against a 1000-row table (GCN, f64, 3 layers).
// Three hops from 64 new rows reach the whole table, so the forward pass and
// its kernels dominate each call and the engine is not involved at all.

#include <memory>

#include "harness.h"

namespace perfbench {

using gnn4tdl::FrozenModel;
using gnn4tdl::GnnBackbone;
using gnn4tdl::kernels::Precision;

namespace {

constexpr size_t kTrainRows = 1000;
constexpr size_t kHeldoutRows = 2048;
constexpr size_t kDim = 32;
constexpr size_t kBatchRows = 64;
constexpr size_t kSampleRows = 16;
constexpr size_t kWarmupBatches = 2;
constexpr size_t kCanonicalBatches = 8;

gnn4tdl::InstanceGraphGnnOptions ModelOptions(uint64_t seed) {
  gnn4tdl::InstanceGraphGnnOptions o;
  o.backbone = GnnBackbone::kGcn;
  o.hidden_dim = 64;
  o.num_layers = 3;
  o.knn.k = 10;
  o.train.max_epochs = 30;
  o.seed = DeriveSeed(seed, 3);
  return o;
}

struct State {
  Tables tables;
  std::unique_ptr<FrozenModel> frozen;
  std::vector<Matrix> batches;  // the featurized held-out table, in order
  SetupLayers layers;
};

StatusOr<std::unique_ptr<State>> Setup(const RunOptions& options) {
  auto s = std::make_unique<State>();
  s->tables = MakeTables(options.seed, kTrainRows, kHeldoutRows, kDim);
  const gnn4tdl::InstanceGraphGnnOptions model_options =
      ModelOptions(options.seed);
  StatusOr<Matrix> x = GraphFeatures(model_options, s->tables);
  if (!x.ok()) return x.status();
  StatusOr<Fitted> fitted = FitOnGraph(
      model_options,
      BuildKnnGraph(*x, model_options.knn, &s->layers.construct_ms),
      s->tables);
  if (!fitted.ok()) return fitted.status();
  s->layers.fit_ms = fitted->fit_ms;
  s->layers.epochs = fitted->epochs;
  StatusOr<std::string> artifact =
      SaveArtifact(*fitted->model, &s->layers.save_ms);
  if (!artifact.ok()) return artifact.status();
  GNN4TDL_RETURN_IF_ERROR(CheckServedLogits(
      *fitted->model, *artifact, TakeRows(s->tables.heldout, 0, kSampleRows),
      "gcn3"));
  StatusOr<FrozenModel> frozen =
      LoadArtifact(*artifact, Precision::kF64, &s->layers.load_ms);
  if (!frozen.ok()) return frozen.status();
  s->frozen = std::make_unique<FrozenModel>(std::move(*frozen));

  StatusOr<Matrix> heldout = s->frozen->Featurize(s->tables.heldout);
  if (!heldout.ok()) return heldout.status();
  for (size_t begin = 0; begin + kBatchRows <= heldout->rows();
       begin += kBatchRows) {
    s->batches.push_back(SliceRows(*heldout, begin, begin + kBatchRows));
  }
  for (size_t b = 0; b < kWarmupBatches; ++b) {
    StatusOr<Matrix> warm = s->frozen->ScoreFeatures(s->batches[b]);
    if (!warm.ok()) return warm.status();
  }
  return s;
}

struct Phase {
  std::vector<double> latency_ms;
  uint64_t calls = 0;
  uint64_t failed = 0;
  double rows = 0.0;
  double wall_s = 0.0;
  double auroc = 0.0;
};

/// Closed loop over the held-out batches for `seconds`, and at least once
/// over all of them so AUROC covers the whole held-out table.
Phase ScorePhase(const State& s, double seconds) {
  Phase phase;
  Matrix logits(kBatchRows * s.batches.size(), 2);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0; NowNs() < end || i < s.batches.size(); ++i) {
    const size_t b = i % s.batches.size();
    const int64_t t0 = NowNs();
    StatusOr<Matrix> out = s.frozen->ScoreFeatures(s.batches[b]);
    phase.latency_ms.push_back(MsBetween(t0, NowNs()));
    ++phase.calls;
    if (!out.ok() || out->cols() != 2) {
      ++phase.failed;
      continue;
    }
    phase.rows += static_cast<double>(kBatchRows);
    if (i < s.batches.size()) {
      for (size_t r = 0; r < kBatchRows; ++r) {
        logits(b * kBatchRows + r, 0) = (*out)(r, 0);
        logits(b * kBatchRows + r, 1) = (*out)(r, 1);
      }
    }
  }
  phase.wall_s = MsBetween(start, NowNs()) / 1e3;
  std::vector<int> labels(s.tables.heldout.class_labels().begin(),
                          s.tables.heldout.class_labels().begin() +
                              static_cast<ptrdiff_t>(logits.rows()));
  phase.auroc = AurocOf(logits, labels);
  return phase;
}

Status CanonicalPass(const State& s) {
  for (size_t b = 0; b < kCanonicalBatches; ++b) {
    StatusOr<Matrix> out = s.frozen->ScoreFeatures(s.batches[b]);
    if (!out.ok()) return out.status();
  }
  return Status::OK();
}

Status ReplayAll(const State& s, Ledger* ledger) {
  StatusOr<ServedModel> served = ServedModel::Wrap(s.frozen.get());
  if (!served.ok()) return served.status();
  for (const Matrix& batch : s.batches) {
    GNN4TDL_RETURN_IF_ERROR(ledger->Replay(*served, batch));
  }
  return Status::OK();
}

}  // namespace

RunOutcome RunScoreBulk(const RunOptions& options) {
  RunOutcome out;
  const double slice_seconds = SliceSeconds(options);
  std::vector<double> setup_s;
  StatusOr<std::unique_ptr<State>> state = RepeatSetup<State>(
      options, [&] { return Setup(options); }, &setup_s);
  if (!state.ok()) {
    out.failed_check = state.status().ToString();
    return out;
  }
  const State& s = **state;
  out.result.Line("score_bulk: " + std::to_string(kTrainRows) +
                  "-row table, GCN f64 3 layers, " +
                  std::to_string(kBatchRows) + "-row ScoreFeatures calls");

  auto score = [&] {
    Phase phase = ScorePhase(s, slice_seconds);
    out.attempted += phase.calls;
    out.failed += phase.failed;
    return phase;
  };
  const Phase first = score();
  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.latency_ms = first.latency_ms;
    e2e.rows = first.rows;
    e2e.wall_s = first.wall_s;
    e2e.auroc = first.auroc;
    EmitEndToEnd(e2e, "one 64-row ScoreFeatures call", &out.result);
    return out;
  }

  // Traced run: untraced, traced (plus kernel counts and the ledger), and
  // untraced again.
  StartTracing();
  const Phase traced = score();
  StatusOr<std::map<std::string, gnn4tdl::obs::KernelStats>> kernels =
      CountKernels([&] { return CanonicalPass(s); });
  Ledger ledger;
  Status replay = kernels.ok() ? ReplayAll(s, &ledger) : kernels.status();
  Status written = StopTracing(options.trace_out);
  if (!replay.ok() || !written.ok()) {
    out.failed_check = (!replay.ok() ? replay : written).ToString();
    return out;
  }
  const Phase last = score();
  ledger.Emit(&out.result);
  EmitOtherLayers(s.layers, gnn4tdl::ServeStats{},
                  OverheadFrac(first.latency_ms, traced.latency_ms,
                               last.latency_ms),
                  *kernels, &out.result);
  return out;
}

}  // namespace perfbench
