#pragma once

// Shared pieces of the three workloads: seeded inputs, the train -> freeze
// path, the output checks, and the per-layer ledger. Every layer is timed
// from outside the library, around the benchmark's own calls into that
// layer's public functions, each call wrapped in a bench/<layer> trace span.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/split.h"
#include "data/tabular.h"
#include "graph/graph.h"
#include "kernels/fmatrix.h"
#include "kernels/kernels.h"
#include "models/knn_gnn.h"
#include "obs/kernel_hooks.h"
#include "serve/f32_scorer.h"
#include "serve/frozen_model.h"
#include "serve/tenant_engine.h"
#include "stats.h"
#include "tensor/matrix.h"

namespace perfbench {

using gnn4tdl::Matrix;
using gnn4tdl::Status;
using gnn4tdl::StatusOr;

/// What main hands every workload.
struct RunOptions {
  uint64_t seed = 1;
  /// Length of the measured phase. A traced run splits it into kTracedSlices
  /// slices: untraced, traced, untraced.
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its Chrome trace.
  std::string trace_out;
};

/// Slices of a traced run's measured phase (see RunOptions::seconds).
constexpr int kTracedSlices = 3;

/// Seconds of one measured slice: all of `seconds` untraced, a third traced.
inline double SliceSeconds(const RunOptions& options) {
  return options.trace ? options.seconds / kTracedSlices : options.seconds;
}

/// What a workload hands back to main.
struct RunOutcome {
  /// Empty when every output check passed; else the failed check's name and
  /// what it saw.
  std::string failed_check;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Result result;
};

RunOutcome RunServeOpen(const RunOptions& options);
RunOutcome RunScoreBulk(const RunOptions& options);
RunOutcome RunTrainFit(const RunOptions& options);

/// Set-up runs this many times per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 5;

/// Logit bound between the f32 and f64 serving paths.
constexpr double kF32LogitTol = 1e-3;

int64_t NowNs();
double MsBetween(int64_t begin_ns, int64_t end_ns);

/// Independent stream `stream` of the workload seed (splitmix64), so tables,
/// splits, model init and schedules never share random draws.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// A seeded two-class table split into training rows (with a stratified
/// train/val/test split for Fit) and held-out rows from the same
/// distribution, used for request payloads and AUROC.
struct Tables {
  gnn4tdl::TabularDataset train;
  gnn4tdl::Split split;
  gnn4tdl::TabularDataset heldout;
};
Tables MakeTables(uint64_t seed, size_t train_rows, size_t heldout_rows,
                  size_t dim);

/// Rows [begin, end) of a numeric, class-labelled table.
gnn4tdl::TabularDataset TakeRows(const gnn4tdl::TabularDataset& data,
                                 size_t begin, size_t end);

/// Rows [begin, end) of a matrix.
Matrix SliceRows(const Matrix& m, size_t begin, size_t end);

/// The featurized training matrix Fit will see (the same featurizer, fitted
/// on the same rows), i.e. what a kKnn model builds its graph from.
StatusOr<Matrix> GraphFeatures(const gnn4tdl::InstanceGraphGnnOptions& options,
                               const Tables& tables);

/// KnnGraph under a bench/construct span; adds its wall time to *ms.
gnn4tdl::Graph BuildKnnGraph(const Matrix& x,
                             const gnn4tdl::KnnGraphOptions& options,
                             double* ms);

/// A model fitted on a precomputed graph under a bench/fit span.
struct Fitted {
  std::unique_ptr<gnn4tdl::InstanceGraphGnn> model;
  double fit_ms = 0.0;
  int epochs = 0;
};
/// Fits `options` (graph source forced to kPrecomputed, early stopping off)
/// on `graph`.
StatusOr<Fitted> FitOnGraph(gnn4tdl::InstanceGraphGnnOptions options,
                            gnn4tdl::Graph graph, const Tables& tables);

/// FrozenModel::Save into memory; adds its wall time to *ms.
StatusOr<std::string> SaveArtifact(const gnn4tdl::InstanceGraphGnn& model,
                                   double* ms);
/// FrozenModel::Load from memory at `precision`; adds its wall time to *ms.
StatusOr<gnn4tdl::FrozenModel> LoadArtifact(
    const std::string& artifact, gnn4tdl::kernels::Precision precision,
    double* ms);

/// The output checks on a fixed sample batch: f64 serving is bit-identical
/// to PredictInductive, and f32 serving stays within kF32LogitTol of it.
/// A failure names the check, and `label` the model.
Status CheckServedLogits(gnn4tdl::InstanceGraphGnn& model,
                         const std::string& artifact,
                         const gnn4tdl::TabularDataset& sample,
                         const std::string& label);

/// AUROC of served two-class logits against labels.
double AurocOf(const Matrix& logits, const std::vector<int>& labels);

// --- Per-layer ledger --------------------------------------------------------

/// Each call of a replayed batch runs this many times; the ledger keeps the
/// fastest, so a one-off stall of the host does not land on a single part.
constexpr int kReplayRepeats = 3;

/// The ledger check: the parts of a batch must add up to its ScoreFeatures
/// call within kLedgerTolFrac of the call plus kLedgerSlackNs, in one of
/// kLedgerAttempts replays of the batch.
constexpr double kLedgerTolFrac = 0.25;
constexpr int64_t kLedgerSlackNs = 100'000;
constexpr int kLedgerAttempts = 3;

/// One served batch split into layers. The parts are separate calls on the
/// same input, each timed on its own: ScoreFeatures first, then QueryBatch,
/// Attach, ScoreFeatures' own feature assembly and logit copy, and the
/// forward.
struct LedgerRow {
  size_t rows = 0;
  int64_t knn_ns = 0;       // KnnIndex::QueryBatch
  int64_t attach_ns = 0;    // InductiveAttacher::Attach (includes the kNN)
  int64_t forward_ns = 0;   // ScoreOnGraph (f64) or F32Scorer::Score (f32)
  int64_t assembly_ns = 0;  // f32 feature assembly and casts, logit copy
  int64_t score_ns = 0;     // FrozenModel::ScoreFeatures
  size_t receptive_rows = 0;
  size_t edges = 0;
  double rows_scanned = 0.0;  // training rows x query rows

  int64_t attach_self_ns() const { return attach_ns - knn_ns; }
  /// What ScoreFeatures spends outside Attach and the forward, timed
  /// directly: the steps of ScoreFeatures no library span covers.
  int64_t unattributed_ns() const { return assembly_ns; }
  /// knn + attach_self + forward + unattributed.
  int64_t parts_ns() const {
    return knn_ns + attach_self_ns() + forward_ns + unattributed_ns();
  }
  /// The call's time that no part accounts for (negative when the separate
  /// parts took longer than the call).
  int64_t residual_ns() const { return score_ns - parts_ns(); }
};

/// ledger_sum: OK when |residual| is within the ledger tolerance.
Status CheckLedgerSum(const LedgerRow& row);

/// A frozen model plus what the ledger needs to call its layers one by one.
class ServedModel {
 public:
  /// `frozen` must outlive the returned object. f32 models get an
  /// F32Scorer::Build of their own, mirroring FrozenModel's.
  static StatusOr<ServedModel> Wrap(const gnn4tdl::FrozenModel* frozen);

  /// Runs one batch through every layer, kReplayRepeats times, and checks
  /// the layer-by-layer logits reproduce ScoreFeatures bit for bit.
  StatusOr<LedgerRow> Replay(const Matrix& x) const;

 private:
  // The forward plus ScoreFeatures' steps around it, for one precision;
  // record into `row` and return the new rows' logits.
  StatusOr<Matrix> ForwardF64(gnn4tdl::AttachedBatch& batch,
                              LedgerRow* row) const;
  StatusOr<Matrix> ForwardF32(const Matrix& x, gnn4tdl::AttachedBatch& batch,
                              LedgerRow* row) const;

  const gnn4tdl::FrozenModel* frozen_ = nullptr;
  std::optional<gnn4tdl::F32Scorer> f32_;
  gnn4tdl::kernels::FMatrix x_train_f32_;
};

/// Mean per-batch ledger over many replayed batches.
class Ledger {
 public:
  /// Replays `x` through `served` and adds its row once the row passes
  /// CheckLedgerSum. A batch that fails is replayed again, up to
  /// kLedgerAttempts times in all, so a stall of the host during one replay
  /// does not fail the run; parts that miss the call every time do.
  Status Replay(const ServedModel& served, const Matrix& x);
  /// Emits the knn.*, attach.*, forward.* and score.* per-layer metrics.
  void Emit(Result* result) const;

 private:
  std::vector<LedgerRow> rows_;
  size_t retried_ = 0;  // batches that needed more than one replay
};

/// Set-up and layer timings outside the replay.
struct SetupLayers {
  double save_ms = 0.0;       // every FrozenModel::Save of one set-up
  double load_ms = 0.0;       // every serving FrozenModel::Load of one set-up
  double construct_ms = 0.0;  // KnnGraph
  double fit_ms = 0.0;        // Fit on the precomputed graph
  int epochs = 0;
};

/// Emits every per-layer metric other than the ledger's (which Ledger::Emit
/// adds): frozen.*, construct.*, train.*, the arena/tape gauges, the engine
/// counters from `engine` (MultiTenantEngine::Stats, all zero on workloads
/// without an engine), trace.overhead_frac and the kernel counters.
void EmitOtherLayers(const SetupLayers& setup,
                     const gnn4tdl::ServeStats& engine,
                     double overhead_frac,
                     const std::map<std::string, gnn4tdl::obs::KernelStats>&
                         kernels,
                     Result* result);

/// Turns metrics gauges on or off. A traced run keeps them on through its
/// set-up, so the arena and tape gauges see the set-up fits.
void SetMetrics(bool on);
/// Turns on the traced slice's instrumentation: obs::Tracer, metrics gauges.
void StartTracing();
/// Stops the tracer, writes the Chrome trace to `path`, and turns every obs
/// switch off again for the last untraced slice.
Status StopTracing(const std::string& path);

/// Kernel counters over exactly the work `fn` does (reset, enable, run,
/// disable). The work must be deterministic for the counts to repeat.
template <typename Fn>
StatusOr<std::map<std::string, gnn4tdl::obs::KernelStats>> CountKernels(
    Fn&& fn) {
  gnn4tdl::obs::KernelCounters::Reset();
  gnn4tdl::obs::KernelCounters::Enable();
  Status status = fn();
  gnn4tdl::obs::KernelCounters::Disable();
  if (!status.ok()) return status;
  return gnn4tdl::obs::KernelCounters::Snapshot();
}

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// The end-to-end metrics every workload reports, from one measured phase.
struct EndToEnd {
  std::vector<double> setup_s;     // one per set-up repetition
  std::vector<double> latency_ms;  // the workload's unit of work
  double rows = 0.0;               // rows of work completed
  double wall_s = 0.0;             // measured wall time
  double auroc = 0.0;
};
/// Emits setup_s, p50_ms, rows_per_s, auroc and peak_rss_mb, and prints
/// them with `what` (the unit of work), sample counts and tail_ms, the
/// highest percentile up to p99 the sample supports.
void EmitEndToEnd(const EndToEnd& e2e, const std::string& what,
                  Result* result);

/// trace.overhead_frac: the traced slice's median minus the mean of the
/// untraced slices' medians (one before it, one after), over that mean, so
/// a drift of the host's speed during the run mostly cancels.
double OverheadFrac(const std::vector<double>& before_ms,
                    const std::vector<double>& traced_ms,
                    const std::vector<double>& after_ms);

/// Formats "name = value unit (detail)" report lines.
std::string Fmt(const std::string& name, double value, const std::string& unit,
                const std::string& detail = "");

/// Runs `setup` kSetupRepeats times (or once when tracing, with metrics
/// gauges on), keeping the last state. Every repetition is timed the same
/// way, from its own start; main reports process start-up apart. Returns the
/// per-repetition seconds in *setup_s.
template <typename State, typename SetupFn>
StatusOr<std::unique_ptr<State>> RepeatSetup(const RunOptions& options,
                                             SetupFn&& setup,
                                             std::vector<double>* setup_s) {
  const int repeats = options.trace ? 1 : kSetupRepeats;
  if (options.trace) SetMetrics(true);
  std::unique_ptr<State> state;
  for (int rep = 0; rep < repeats; ++rep) {
    state.reset();  // one state alive at a time, so peak RSS is one set-up's
    const int64_t begin = NowNs();
    StatusOr<std::unique_ptr<State>> made = setup();
    if (!made.ok()) return made.status();
    state = std::move(*made);
    setup_s->push_back(MsBetween(begin, NowNs()) / 1e3);
  }
  if (options.trace) SetMetrics(false);
  return state;
}

}  // namespace perfbench
