// train_fit: repeated fits of a GCN (2 layers, hidden 64) on a 2000-row
// table for a fixed number of epochs with early stopping off. The kNN graph
// comes from an explicit KnnGraph call passed in as a precomputed graph, so
// construction and training are timed apart. Training shares the tensor/
// kernels and the thread pool with serving but adds backward and optimizer
// writes; a serving-side kernel or pool change that costs training shows up
// here. No serving code is timed on this path.

#include <memory>

#include "harness.h"

namespace perfbench {

using gnn4tdl::FrozenModel;
using gnn4tdl::GnnBackbone;
using gnn4tdl::kernels::Precision;

namespace {

constexpr size_t kTrainRows = 2000;
constexpr size_t kHeldoutRows = 2048;
constexpr size_t kDim = 32;
constexpr int kEpochs = 10;
constexpr size_t kSampleRows = 16;
constexpr size_t kReplayRows = 64;

gnn4tdl::InstanceGraphGnnOptions ModelOptions(uint64_t seed) {
  gnn4tdl::InstanceGraphGnnOptions o;
  o.backbone = GnnBackbone::kGcn;
  o.hidden_dim = 64;
  o.num_layers = 2;
  o.knn.k = 10;
  o.train.max_epochs = kEpochs;
  o.seed = DeriveSeed(seed, 3);
  return o;
}

struct State {
  Tables tables;
  gnn4tdl::InstanceGraphGnnOptions model_options;
  Matrix graph_x;  // featurized training rows KnnGraph runs on
  std::unique_ptr<FrozenModel> frozen;  // the set-up fit, frozen
  Matrix heldout;                       // featurized held-out rows
  double auroc = 0.0;
  SetupLayers layers;
};

StatusOr<std::unique_ptr<State>> Setup(const RunOptions& options) {
  auto s = std::make_unique<State>();
  s->tables = MakeTables(options.seed, kTrainRows, kHeldoutRows, kDim);
  s->model_options = ModelOptions(options.seed);
  StatusOr<Matrix> x = GraphFeatures(s->model_options, s->tables);
  if (!x.ok()) return x.status();
  s->graph_x = std::move(*x);
  // The set-up fit doubles as the warm-up and as the model the output
  // checks and the ledger serve.
  StatusOr<Fitted> fitted = FitOnGraph(
      s->model_options,
      BuildKnnGraph(s->graph_x, s->model_options.knn, &s->layers.construct_ms),
      s->tables);
  if (!fitted.ok()) return fitted.status();
  s->layers.fit_ms = fitted->fit_ms;
  s->layers.epochs = fitted->epochs;
  StatusOr<std::string> artifact =
      SaveArtifact(*fitted->model, &s->layers.save_ms);
  if (!artifact.ok()) return artifact.status();
  GNN4TDL_RETURN_IF_ERROR(CheckServedLogits(
      *fitted->model, *artifact, TakeRows(s->tables.heldout, 0, kSampleRows),
      "gcn2"));
  StatusOr<FrozenModel> frozen =
      LoadArtifact(*artifact, Precision::kF64, &s->layers.load_ms);
  if (!frozen.ok()) return frozen.status();
  s->frozen = std::make_unique<FrozenModel>(std::move(*frozen));
  StatusOr<Matrix> heldout = s->frozen->Featurize(s->tables.heldout);
  if (!heldout.ok()) return heldout.status();
  s->heldout = std::move(*heldout);
  StatusOr<Matrix> logits = s->frozen->ScoreFeatures(s->heldout);
  if (!logits.ok()) return logits.status();
  s->auroc = AurocOf(*logits, s->tables.heldout.class_labels());
  return s;
}

struct Phase {
  std::vector<double> latency_ms;  // KnnGraph + Fit
  std::vector<double> construct_ms;
  std::vector<double> fit_ms;
  uint64_t fits = 0;
  uint64_t failed = 0;
  double rows = 0.0;  // training rows x epochs
  double wall_s = 0.0;
};

/// One KnnGraph + Fit; appends its timings to `phase`.
Status FitOnce(const State& s, Phase* phase) {
  double construct_ms = 0.0;
  const int64_t t0 = NowNs();
  gnn4tdl::Graph graph =
      BuildKnnGraph(s.graph_x, s.model_options.knn, &construct_ms);
  StatusOr<Fitted> fitted =
      FitOnGraph(s.model_options, std::move(graph), s.tables);
  const int64_t t1 = NowNs();
  ++phase->fits;
  if (!fitted.ok()) {
    ++phase->failed;
    return fitted.status();
  }
  phase->latency_ms.push_back(MsBetween(t0, t1));
  phase->construct_ms.push_back(construct_ms);
  phase->fit_ms.push_back(fitted->fit_ms);
  phase->rows += static_cast<double>(kTrainRows) * fitted->epochs;
  return Status::OK();
}

/// Fits back to back for `seconds` (at least one fit).
Phase FitPhase(const State& s, double seconds) {
  Phase phase;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  do {
    (void)FitOnce(s, &phase);  // a failed fit is counted in phase.failed
  } while (NowNs() < end);
  phase.wall_s = MsBetween(start, NowNs()) / 1e3;
  return phase;
}

Status ReplayHeldout(const State& s, Ledger* ledger) {
  StatusOr<ServedModel> served = ServedModel::Wrap(s.frozen.get());
  if (!served.ok()) return served.status();
  for (size_t begin = 0; begin + kReplayRows <= s.heldout.rows();
       begin += kReplayRows) {
    GNN4TDL_RETURN_IF_ERROR(ledger->Replay(
        *served, SliceRows(s.heldout, begin, begin + kReplayRows)));
  }
  return Status::OK();
}

}  // namespace

RunOutcome RunTrainFit(const RunOptions& options) {
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
  out.result.Line("train_fit: " + std::to_string(kTrainRows) +
                  "-row table, GCN 2 layers hidden 64, " +
                  std::to_string(kEpochs) + " epochs per fit");

  auto fit = [&] {
    Phase phase = FitPhase(s, slice_seconds);
    out.attempted += phase.fits;
    out.failed += phase.failed;
    return phase;
  };
  const Phase first = fit();
  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.latency_ms = first.latency_ms;
    e2e.rows = first.rows;
    e2e.wall_s = first.wall_s;
    e2e.auroc = s.auroc;
    EmitEndToEnd(e2e, "one KnnGraph + Fit (fit_s)", &out.result);
    out.result.Line(Fmt("fit_s", NearestRank(first.latency_ms, 0.5) / 1e3,
                        "s", "median, n=" +
                                 std::to_string(first.latency_ms.size())));
    return out;
  }

  // Traced run: untraced, traced (plus kernel counts and the ledger), and
  // untraced again.
  StartTracing();
  const Phase traced = fit();
  StatusOr<std::map<std::string, gnn4tdl::obs::KernelStats>> kernels =
      CountKernels([&] {
        Phase one;
        return FitOnce(s, &one);
      });
  Ledger ledger;
  Status replay = kernels.ok() ? ReplayHeldout(s, &ledger) : kernels.status();
  Status written = StopTracing(options.trace_out);
  if (!replay.ok() || !written.ok()) {
    out.failed_check = (!replay.ok() ? replay : written).ToString();
    return out;
  }
  const Phase last = fit();

  // Construction and epoch time from the traced fits, not the single set-up
  // fit.
  SetupLayers layers = s.layers;
  layers.construct_ms = NearestRank(traced.construct_ms, 0.5);
  layers.fit_ms = NearestRank(traced.fit_ms, 0.5);
  layers.epochs = kEpochs;
  ledger.Emit(&out.result);
  EmitOtherLayers(layers, gnn4tdl::ServeStats{},
                  OverheadFrac(first.latency_ms, traced.latency_ms,
                               last.latency_ms),
                  *kernels, &out.result);
  return out;
}

}  // namespace perfbench
