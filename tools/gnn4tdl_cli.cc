// gnn4tdl command-line runner: the GNN4TDL pipeline on any CSV file.
//
//   gnn4tdl_cli --csv data.csv --label target
//               --formulation instance_graph --construction knn
//               --backbone gcn --knn-k 10 --epochs 200
//
// Without --csv it runs a synthetic demo. With --folds N it reports
// N-fold cross-validated metrics instead of a single split.
//
// Serving subcommands (the online-inference path):
//
//   gnn4tdl_cli freeze --out model.gnn4tdl [--csv data.csv ...]
//   gnn4tdl_cli score --model model.gnn4tdl [--csv new_rows.csv]
//   gnn4tdl_cli serve --model model.gnn4tdl [--batch 16]
//   gnn4tdl_cli loadgen [--rps 200 --duration-s 1 --mode open]
//
// `freeze` trains an instance-graph GNN and writes a frozen artifact;
// `score` reloads it in a fresh process and scores rows inductively;
// `serve` pushes rows through the micro-batching engine and reports
// latency/throughput stats; `loadgen` stands up a two-tenant registry
// (interactive + batch policies over the same artifact) and drives it with
// the seeded load harness, failing the process on any error or on a
// rejection-accounting mismatch. Without --csv all four use the same
// synthetic demo table (regenerated deterministically from --seed).
//
// Numeric flags are parsed whole and range-checked: a bad value is a usage
// error (exit 2) naming the flag, raised before anything runs.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/text_io.h"
#include "core/pipeline.h"
#include "kernels/kernels.h"
#include "load/loadgen.h"
#include "data/cross_validation.h"
#include "data/csv.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "models/knn_gnn.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "serve/frozen_model.h"

namespace gnn4tdl {
namespace {

struct CliArgs {
  // "", "freeze", "score", "serve", "loadgen", or "obsdump"
  std::string command;
  std::string out = "model.gnn4tdl";
  std::string model;
  size_t batch = 16;
  size_t queue_capacity = 4096;
  // loadgen traffic shape.
  std::string mode = "open";  // open | closed
  double rps = 200.0;
  double duration_s = 1.0;
  size_t workers = 4;
  double think_ms = 0.0;
  std::string csv;
  std::string label = "label";
  bool regression = false;
  std::string formulation = "instance_graph";
  std::string construction = "knn";
  std::string backbone = "gcn";
  size_t knn_k = 10;
  size_t hidden = 32;
  size_t layers = 2;
  int epochs = 200;
  double lr = 0.02;
  double train_frac = 0.6;
  double val_frac = 0.2;
  size_t folds = 0;
  uint64_t seed = 42;
  std::string trace_out;    // chrome://tracing span tree
  std::string metrics_out;  // Prometheus text dump
  std::string obsdump_out;  // flight-recorder JSON dump
  uint64_t print_trace_id = 0;  // look up one trace in the recorder
  // Serving tier: "f32" | "f64". freeze: recorded in the artifact (empty =
  // f64). score/serve: overrides the artifact's record (empty = honor it).
  std::string precision;
};

/// Parses --precision, empty meaning "no explicit choice".
StatusOr<kernels::Precision> ParsePrecisionFlag(const std::string& flag,
                                                kernels::Precision fallback) {
  if (flag.empty()) return fallback;
  return kernels::PrecisionFromName(flag);
}

void PrintUsage() {
  std::printf(
      "usage: gnn4tdl_cli [options]\n"
      "  --csv PATH            input CSV (header row; omit for a synthetic demo)\n"
      "  --label NAME          label column name (default: label)\n"
      "  --regression          treat the label as a regression target\n"
      "  --formulation NAME    instance_graph | feature_graph | bipartite |\n"
      "                        multiplex | hetero_graph | hypergraph | no_graph\n"
      "  --construction NAME   intrinsic | knn | threshold | fully_connected |\n"
      "                        same_feature_value | learned_metric |\n"
      "                        learned_neural | learned_direct\n"
      "  --backbone NAME       gcn | sage | gat | gin | ggnn | appnp |\n"
      "                        graph_transformer\n"
      "  --knn-k N             kNN degree (default 10)\n"
      "  --hidden N            hidden width (default 32)\n"
      "  --layers N            GNN depth (default 2)\n"
      "  --epochs N            max training epochs (default 200)\n"
      "  --lr F                learning rate (default 0.02)\n"
      "  --train-frac F        training fraction (default 0.6)\n"
      "  --val-frac F          validation fraction (default 0.2)\n"
      "  --folds N             N-fold cross-validation instead of one split\n"
      "  --seed N              rng seed (default 42)\n"
      "  --trace-out PATH      write a chrome://tracing span tree of the run\n"
      "  --metrics-out PATH    write a Prometheus-style metrics dump\n"
      "\n"
      "subcommands:\n"
      "  freeze                train an instance-graph GNN and write a frozen\n"
      "                        artifact (--out, default model.gnn4tdl)\n"
      "  score                 load a frozen artifact (--model) and score rows\n"
      "                        inductively\n"
      "  serve                 load a frozen artifact (--model) and run the\n"
      "                        micro-batching engine over the input rows\n"
      "  loadgen               serve one artifact under two tenants\n"
      "                        (interactive + batch policies) and drive them\n"
      "                        with the seeded load harness; exits nonzero on\n"
      "                        errors or a rejection-accounting mismatch\n"
      "  obsdump               loadgen, then write the engine's flight\n"
      "                        recorder as JSON (--obsdump, default\n"
      "                        obsdump.json)\n"
      "  --out PATH            freeze: artifact output path\n"
      "  --model PATH          score/serve/loadgen: artifact to load\n"
      "  --batch N             serve: max rows per micro-batch (default 16)\n"
      "  --queue-capacity N    serve/loadgen: per-tenant queue bound\n"
      "                        (default 4096); overflow rejects admission\n"
      "  --obsdump PATH        loadgen/obsdump: write the flight-recorder\n"
      "                        ring + retained digests as JSON\n"
      "  --trace-id N          loadgen/obsdump: after the run, look up one\n"
      "                        trace id in the recorder and print its digest\n"
      "  --mode NAME           loadgen: open | closed arrival loop\n"
      "  --rps F               loadgen: offered requests/s (default 200)\n"
      "  --duration-s F        loadgen: open-loop duration (default 1);\n"
      "                        closed loop: --rps x --duration-s requests\n"
      "                        split evenly over --workers\n"
      "  --workers N           loadgen: closed-loop clients (default 4,\n"
      "                        at most 256)\n"
      "  --think-ms F          loadgen: closed-loop think time (default 0)\n"
      "  --precision NAME      f32 | f64. freeze: serving tier recorded in\n"
      "                        the artifact (default f64). score/serve:\n"
      "                        override the artifact's recorded tier\n");
}

/// Most closed-loop clients `loadgen --workers` may start (one thread each).
constexpr size_t kMaxWorkers = 256;
/// Most requests `loadgen` may offer (--rps x --duration-s); the open loop
/// builds its whole arrival schedule up front.
constexpr double kMaxOfferedRequests = 1e7;
/// Upper bounds for flags with no natural cap of their own.
constexpr uint64_t kAnyU64 = std::numeric_limits<uint64_t>::max();
constexpr double kAnyRate = std::numeric_limits<double>::max();

/// Parses the whole of `text` as a number in [lo, hi] into `*out`. Anything
/// else — trailing characters, a sign on an unsigned count, overflow, NaN or
/// infinity, a value out of range — is reported against `flag` on stderr
/// and returns false.
template <typename T>
bool ParseNumber(const std::string& flag, const char* text, T lo, T hi,
                 T* out) {
  T value{};
  if (!ParseWholeNumber(std::string_view(text), &value) || value < lo ||
      value > hi) {
    std::ostringstream range;
    range << (std::is_floating_point_v<T> ? "a finite number" : "an integer");
    if (hi == std::numeric_limits<T>::max()) {
      range << " >= " << lo;
    } else {
      range << " in [" << lo << ", " << hi << "]";
    }
    std::fprintf(stderr, "bad value for %s: '%s' (want %s)\n", flag.c_str(),
                 text, range.str().c_str());
    return false;
  }
  *out = value;
  return true;
}

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  int start = 1;
  if (argc > 1 && argv[1][0] != '-') {
    args->command = argv[1];
    if (args->command != "freeze" && args->command != "score" &&
        args->command != "serve" && args->command != "loadgen" &&
        args->command != "obsdump") {
      std::fprintf(stderr, "unknown subcommand: %s\n", args->command.c_str());
      PrintUsage();
      return false;
    }
    start = 2;
  }
  for (int i = start; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    // The flag's value as a number in [lo, hi]; false when missing or bad.
    auto number = [&]<typename T>(T* out, std::type_identity_t<T> lo,
                                  std::type_identity_t<T> hi) {
      const char* v = next();
      return v != nullptr && ParseNumber(flag, v, lo, hi, out);
    };
    if (flag == "--help" || flag == "-h") {
      PrintUsage();
      std::exit(0);
    } else if (flag == "--regression") {
      args->regression = true;
    } else if (flag == "--csv") {
      const char* v = next();
      if (!v) return false;
      args->csv = v;
    } else if (flag == "--label") {
      const char* v = next();
      if (!v) return false;
      args->label = v;
    } else if (flag == "--formulation") {
      const char* v = next();
      if (!v) return false;
      args->formulation = v;
    } else if (flag == "--construction") {
      const char* v = next();
      if (!v) return false;
      args->construction = v;
    } else if (flag == "--backbone") {
      const char* v = next();
      if (!v) return false;
      args->backbone = v;
    } else if (flag == "--precision") {
      const char* v = next();
      if (!v) return false;
      args->precision = v;
    } else if (flag == "--knn-k") {
      if (!number(&args->knn_k, 1, 4096)) return false;
    } else if (flag == "--hidden") {
      if (!number(&args->hidden, 1, 65536)) return false;
    } else if (flag == "--layers") {
      if (!number(&args->layers, 1, 64)) return false;
    } else if (flag == "--epochs") {
      if (!number(&args->epochs, 1, 1000000)) return false;
    } else if (flag == "--lr") {
      if (!number(&args->lr, 0.0, kAnyRate)) return false;
    } else if (flag == "--train-frac") {
      if (!number(&args->train_frac, 0.0, 1.0)) return false;
    } else if (flag == "--val-frac") {
      if (!number(&args->val_frac, 0.0, 1.0)) return false;
    } else if (flag == "--folds") {
      if (!number(&args->folds, 0, 1000)) return false;
    } else if (flag == "--seed") {
      if (!number(&args->seed, 0, kAnyU64)) return false;
    } else if (flag == "--out") {
      const char* v = next();
      if (!v) return false;
      args->out = v;
    } else if (flag == "--model") {
      const char* v = next();
      if (!v) return false;
      args->model = v;
    } else if (flag == "--batch") {
      if (!number(&args->batch, 1, 65536)) return false;
    } else if (flag == "--queue-capacity") {
      if (!number(&args->queue_capacity, 1, 1 << 24)) return false;
    } else if (flag == "--mode") {
      const char* v = next();
      if (!v) return false;
      args->mode = v;
      if (args->mode != "open" && args->mode != "closed") {
        std::fprintf(stderr, "--mode must be open or closed, got %s\n", v);
        return false;
      }
    } else if (flag == "--rps") {
      if (!number(&args->rps, 0.0, kAnyRate)) return false;
    } else if (flag == "--duration-s") {
      if (!number(&args->duration_s, 0.0, kAnyRate)) return false;
    } else if (flag == "--workers") {
      if (!number(&args->workers, 1, kMaxWorkers)) return false;
    } else if (flag == "--think-ms") {
      if (!number(&args->think_ms, 0.0, 60000.0)) return false;
    } else if (flag == "--trace-out") {
      const char* v = next();
      if (!v) return false;
      args->trace_out = v;
    } else if (flag == "--metrics-out") {
      const char* v = next();
      if (!v) return false;
      args->metrics_out = v;
    } else if (flag == "--obsdump") {
      const char* v = next();
      if (!v) return false;
      args->obsdump_out = v;
    } else if (flag == "--trace-id") {
      if (!number(&args->print_trace_id, 0, kAnyU64)) return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      PrintUsage();
      return false;
    }
  }
  if (args->rps * args->duration_s > kMaxOfferedRequests) {
    std::fprintf(stderr,
                 "--rps x --duration-s offers %.0f requests, more than %.0f\n",
                 args->rps * args->duration_s, kMaxOfferedRequests);
    return false;
  }
  return true;
}

StatusOr<TabularDataset> LoadData(const CliArgs& args) {
  if (args.csv.empty()) {
    std::printf("no --csv given: using the synthetic demo dataset\n");
    return MakeMultiRelational({.num_rows = 500,
                                .num_relations = 2,
                                .cardinality = 20,
                                .numeric_signal = 0.6,
                                .seed = args.seed});
  }
  CsvReadOptions read_opts;
  read_opts.label_column = args.label;
  read_opts.regression_label = args.regression;
  return ReadCsv(args.csv, read_opts);
}

int RunFreeze(const CliArgs& args) {
  StatusOr<TabularDataset> data = LoadData(args);
  if (!data.ok()) {
    std::fprintf(stderr, "failed to load data: %s\n",
                 data.status().ToString().c_str());
    return 1;
  }

  InstanceGraphGnnOptions options;
  {
    auto b = GnnBackboneFromName(args.backbone);
    if (!b.ok()) {
      std::fprintf(stderr, "%s\n", b.status().ToString().c_str());
      return 1;
    }
    options.backbone = *b;
  }
  options.knn.k = args.knn_k;
  options.hidden_dim = args.hidden;
  options.num_layers = args.layers;
  options.train.max_epochs = args.epochs;
  options.train.learning_rate = args.lr;
  options.seed = args.seed;

  const bool classification = data->task() != TaskType::kRegression;
  Rng rng(args.seed);
  Split split = classification
                    ? StratifiedSplit(data->class_labels(), args.train_frac,
                                      args.val_frac, rng)
                    : RandomSplit(data->NumRows(), args.train_frac,
                                  args.val_frac, rng);

  InstanceGraphGnn model(options);
  std::printf("training %s on %zu rows...\n", GnnBackboneName(options.backbone),
              data->NumRows());
  Status fit = model.Fit(*data, split);
  if (!fit.ok()) {
    std::fprintf(stderr, "fit failed: %s\n", fit.ToString().c_str());
    return 1;
  }
  StatusOr<kernels::Precision> precision =
      ParsePrecisionFlag(args.precision, kernels::Precision::kF64);
  if (!precision.ok()) {
    std::fprintf(stderr, "bad --precision: %s\n",
                 precision.status().ToString().c_str());
    return 1;
  }
  Status save = FrozenModel::Save(model, args.out, *precision);
  if (!save.ok()) {
    std::fprintf(stderr, "freeze failed: %s\n", save.ToString().c_str());
    return 1;
  }
  std::printf("frozen artifact written to %s (%zu train rows, graph %zu edges, "
              "%zu outputs, serve precision %s)\n",
              args.out.c_str(), model.feature_cache().rows(),
              model.graph().num_edges(), model.output_dim(),
              kernels::PrecisionName(*precision));
  return 0;
}

/// Load options for score/serve/loadgen: --precision, when given, overrides
/// the artifact's recorded serving tier.
StatusOr<FrozenModelOptions> LoadOptionsFromArgs(const CliArgs& args) {
  FrozenModelOptions options;
  if (!args.precision.empty()) {
    StatusOr<kernels::Precision> precision =
        kernels::PrecisionFromName(args.precision);
    if (!precision.ok()) return precision.status();
    options.precision = *precision;
  }
  return options;
}

int RunScore(const CliArgs& args) {
  if (args.model.empty()) {
    std::fprintf(stderr, "score requires --model PATH\n");
    return 1;
  }
  StatusOr<FrozenModelOptions> load_options = LoadOptionsFromArgs(args);
  if (!load_options.ok()) {
    std::fprintf(stderr, "bad --precision: %s\n",
                 load_options.status().ToString().c_str());
    return 1;
  }
  StatusOr<FrozenModel> frozen = FrozenModel::Load(args.model, *load_options);
  if (!frozen.ok()) {
    std::fprintf(stderr, "failed to load %s: %s\n", args.model.c_str(),
                 frozen.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %s: task=%s, %zu train rows, %zu features, %zu outputs, "
              "precision %s\n",
              args.model.c_str(), TaskTypeName(frozen->task()),
              frozen->num_train_rows(), frozen->feature_dim(),
              frozen->num_outputs(),
              kernels::PrecisionName(frozen->precision()));

  StatusOr<TabularDataset> data = LoadData(args);
  if (!data.ok()) {
    std::fprintf(stderr, "failed to load data: %s\n",
                 data.status().ToString().c_str());
    return 1;
  }
  StatusOr<Matrix> logits = frozen->Score(*data);
  if (!logits.ok()) {
    std::fprintf(stderr, "scoring failed: %s\n",
                 logits.status().ToString().c_str());
    return 1;
  }

  const bool classification = frozen->task() != TaskType::kRegression;
  const size_t preview = std::min<size_t>(logits->rows(), 10);
  for (size_t i = 0; i < preview; ++i) {
    if (classification) {
      std::printf("row %zu: class %zu\n", i, logits->ArgMaxRow(i));
    } else {
      std::printf("row %zu: %.6f\n", i, (*logits)(i, 0));
    }
  }
  if (logits->rows() > preview) {
    std::printf("... (%zu rows scored)\n", logits->rows());
  }

  if (classification && !data->class_labels().empty()) {
    size_t correct = 0;
    for (size_t i = 0; i < logits->rows(); ++i) {
      if (static_cast<int>(logits->ArgMaxRow(i)) == data->class_labels()[i])
        ++correct;
    }
    std::printf("inductive accuracy vs labels: %.4f\n",
                static_cast<double>(correct) /
                    static_cast<double>(logits->rows()));
  }
  return 0;
}

// Without --model, `serve`/`loadgen` train an instance-graph GNN through the
// full pipeline and freeze it to in-memory artifact bytes — one invocation
// exercising pipeline stages, trainer epochs, kernels, and serving batches,
// which is what the `--trace-out` smoke in tools/check.sh relies on. Bytes
// (not a loaded model) so loadgen can load the same artifact once per tenant.
StatusOr<std::string> TrainArtifactForServe(const CliArgs& args,
                                            const TabularDataset& data) {
  PipelineConfig config;
  config.formulation = GraphFormulation::kInstanceGraph;
  config.construction = ConstructionMethod::kKnn;
  {
    auto b = GnnBackboneFromName(args.backbone);
    if (!b.ok()) return b.status();
    config.backbone = *b;
  }
  config.knn_k = args.knn_k;
  config.hidden_dim = args.hidden;
  config.num_layers = args.layers;
  config.train.max_epochs = args.epochs;
  config.train.learning_rate = args.lr;
  config.seed = args.seed;

  const bool classification = data.task() != TaskType::kRegression;
  Rng rng(args.seed);
  Split split = classification
                    ? StratifiedSplit(data.class_labels(), args.train_frac,
                                      args.val_frac, rng)
                    : RandomSplit(data.NumRows(), args.train_frac,
                                  args.val_frac, rng);
  std::printf("no --model given: training %s for serving...\n",
              args.backbone.c_str());
  StatusOr<PipelineResult> result = RunPipeline(config, data, split);
  if (!result.ok()) return result.status();
  auto* gnn = dynamic_cast<InstanceGraphGnn*>(result->model.get());
  if (gnn == nullptr) {
    return Status::Internal("pipeline did not produce a freezable model");
  }
  StatusOr<kernels::Precision> precision =
      ParsePrecisionFlag(args.precision, kernels::Precision::kF64);
  if (!precision.ok()) return precision.status();
  std::stringstream artifact;
  GNN4TDL_RETURN_IF_ERROR(FrozenModel::Save(*gnn, artifact, *precision));
  return artifact.str();
}

StatusOr<FrozenModel> TrainAndFreezeForServe(const CliArgs& args,
                                             const TabularDataset& data,
                                             const FrozenModelOptions& options) {
  StatusOr<std::string> bytes = TrainArtifactForServe(args, data);
  if (!bytes.ok()) return bytes.status();
  std::stringstream artifact(*bytes);
  return FrozenModel::Load(artifact, options);
}

int RunServe(const CliArgs& args) {
  StatusOr<TabularDataset> data = LoadData(args);
  if (!data.ok()) {
    std::fprintf(stderr, "failed to load data: %s\n",
                 data.status().ToString().c_str());
    return 1;
  }
  StatusOr<FrozenModelOptions> load_options = LoadOptionsFromArgs(args);
  if (!load_options.ok()) {
    std::fprintf(stderr, "bad --precision: %s\n",
                 load_options.status().ToString().c_str());
    return 1;
  }
  StatusOr<FrozenModel> frozen =
      args.model.empty() ? TrainAndFreezeForServe(args, *data, *load_options)
                         : FrozenModel::Load(args.model, *load_options);
  if (!frozen.ok()) {
    std::fprintf(stderr, "failed to prepare a frozen model: %s\n",
                 frozen.status().ToString().c_str());
    return 1;
  }
  StatusOr<Matrix> x = frozen->Featurize(*data);
  if (!x.ok()) {
    std::fprintf(stderr, "featurize failed: %s\n",
                 x.status().ToString().c_str());
    return 1;
  }

  ServingOptions serve_opts;
  serve_opts.max_batch = args.batch;
  serve_opts.queue_capacity = args.queue_capacity;
  ServingEngine engine(&*frozen, serve_opts);
  std::printf("serving %zu rows (max_batch=%zu, precision %s)...\n",
              x->rows(), serve_opts.max_batch,
              kernels::PrecisionName(frozen->precision()));

  std::vector<std::future<std::vector<double>>> futures;
  futures.reserve(x->rows());
  size_t rejected = 0;
  for (size_t i = 0; i < x->rows(); ++i) {
    StatusOr<std::future<std::vector<double>>> f = engine.Submit(
        std::vector<double>(x->row_data(i), x->row_data(i) + x->cols()));
    if (f.ok()) {
      futures.push_back(std::move(*f));
    } else {
      if (++rejected == 1)
        std::fprintf(stderr, "submission rejected: %s\n",
                     f.status().ToString().c_str());
    }
  }
  size_t failed = 0;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (const std::exception& e) {
      if (++failed == 1)
        std::fprintf(stderr, "request failed: %s\n", e.what());
    }
  }
  engine.Stop();
  ServeStats stats = engine.Stats();
  std::printf("%s\n", stats.ToString().c_str());
  if (rejected > 0)
    std::fprintf(stderr, "%zu submissions rejected\n", rejected);
  if (failed > 0) {
    std::fprintf(stderr, "%zu requests failed\n", failed);
    return 1;
  }
  return 0;
}

// Serves one artifact under two tenants — "interactive" (--batch rows per
// batch, 3x scheduling weight, 50ms SLO) and "batch" (4x the batch size,
// 250ms SLO) — and drives both with the seeded load harness. After the run
// it prints each tenant's engine batch count and mean batch rows, which show
// how full batches get at the offered load. The process fails on any request
// error or when the generator's tallies disagree with the engine's counters,
// so tools/check.sh can gate its `load` stage on the exit code alone.
int RunLoadgen(const CliArgs& args) {
  StatusOr<TabularDataset> data = LoadData(args);
  if (!data.ok()) {
    std::fprintf(stderr, "failed to load data: %s\n",
                 data.status().ToString().c_str());
    return 1;
  }

  std::string artifact;
  if (args.model.empty()) {
    StatusOr<std::string> trained = TrainArtifactForServe(args, *data);
    if (!trained.ok()) {
      std::fprintf(stderr, "failed to prepare a frozen model: %s\n",
                   trained.status().ToString().c_str());
      return 1;
    }
    artifact = std::move(*trained);
  } else {
    std::ifstream in(args.model, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", args.model.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    artifact = buffer.str();
  }

  StatusOr<FrozenModelOptions> load_options = LoadOptionsFromArgs(args);
  if (!load_options.ok()) {
    std::fprintf(stderr, "bad --precision: %s\n",
                 load_options.status().ToString().c_str());
    return 1;
  }

  TenantOptions interactive;
  interactive.max_batch = args.batch;
  interactive.queue_capacity = args.queue_capacity;
  interactive.weight = 3;
  interactive.slo_ms = 50.0;
  TenantOptions batch;
  batch.max_batch = args.batch * 4;
  batch.queue_capacity = args.queue_capacity;
  batch.weight = 1;
  batch.slo_ms = 250.0;

  ModelRegistry registry;
  std::optional<Matrix> features;
  const std::pair<const char*, const TenantOptions*> tenants[] = {
      {"interactive", &interactive}, {"batch", &batch}};
  for (const auto& [name, options] : tenants) {
    std::stringstream in(artifact);
    StatusOr<FrozenModel> model = FrozenModel::Load(in, *load_options);
    if (!model.ok()) {
      std::fprintf(stderr, "failed to load tenant %s: %s\n", name,
                   model.status().ToString().c_str());
      return 1;
    }
    if (!features) {
      StatusOr<Matrix> x = model->Featurize(*data);
      if (!x.ok()) {
        std::fprintf(stderr, "featurize failed: %s\n",
                     x.status().ToString().c_str());
        return 1;
      }
      features.emplace(std::move(*x));
      std::printf("loadgen precision %s\n",
                  kernels::PrecisionName(model->precision()));
    }
    Status added = registry.AddTenant(name, std::move(*model), *options);
    if (!added.ok()) {
      std::fprintf(stderr, "failed to register tenant %s: %s\n", name,
                   added.ToString().c_str());
      return 1;
    }
  }

  MultiTenantEngine engine(&registry);
  std::vector<TenantTraffic> traffic = {{"interactive", 2.0, &*features},
                                        {"batch", 1.0, &*features}};
  LoadOptions load;
  load.mode = args.mode == "closed" ? LoadOptions::Mode::kClosedLoop
                                    : LoadOptions::Mode::kOpenLoop;
  load.offered_rps = args.rps;
  load.duration_s = args.duration_s;
  load.closed_workers = args.workers;
  load.think_time_ms = args.think_ms;
  // Let --rps/--duration-s size the closed-loop run too, so both modes scale
  // with the same flags.
  load.requests_per_worker = std::max<size_t>(
      1, static_cast<size_t>(args.rps * args.duration_s /
                             static_cast<double>(std::max<size_t>(
                                 1, args.workers))));
  load.seed = args.seed;
  if (load.mode == LoadOptions::Mode::kClosedLoop) {
    // The closed loop is unpaced: each client sends its next request as soon
    // as the previous reply (and the think time) is over.
    std::printf("loadgen: closed loop, %zu workers x %zu requests each, "
                "unpaced (think time %.1f ms) across 2 tenants (seed %llu)\n",
                load.closed_workers, load.requests_per_worker,
                load.think_time_ms,
                static_cast<unsigned long long>(args.seed));
  } else {
    std::printf("loadgen: open loop, %.0f rps offered for %.1fs across "
                "2 tenants (seed %llu)\n",
                args.rps, args.duration_s,
                static_cast<unsigned long long>(args.seed));
  }

  LoadGenerator generator(&engine, std::move(traffic), load);
  StatusOr<LoadReport> report = generator.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "loadgen failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  engine.Stop();  // flush accounting before reconciling against it
  std::printf("%s\n", report->ToString().c_str());
  for (const auto& [name, options] : tenants) {
    const ServeStats stats = engine.TenantStats(name).value();
    std::printf("engine tenant %s: batches=%zu mean_batch_rows=%.2f "
                "(max_batch %zu)\n",
                name, stats.batches, stats.mean_batch_rows,
                options->max_batch);
  }

  Status accounting = CheckAccounting(engine, *report);
  if (!accounting.ok()) {
    std::fprintf(stderr, "accounting mismatch: %s\n",
                 accounting.ToString().c_str());
    return 1;
  }
  std::printf("accounting: generator and engine agree "
              "(%zu offered = %zu completed + %zu rejected + %zu errors)\n",
              report->offered, report->completed, report->rejected,
              report->errors);

  std::string dump_path = args.obsdump_out;
  if (args.command == "obsdump" && dump_path.empty()) {
    dump_path = "obsdump.json";
  }
  if (!dump_path.empty()) {
    std::ofstream out(dump_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", dump_path.c_str());
      return 1;
    }
    engine.recorder().WriteJson(out);
    const obs::FlightRecorder::Stats stats = engine.recorder().stats();
    std::printf("obsdump: %s (%llu recorded, %llu in ring, %llu retained "
                "slo-breach digests)\n",
                dump_path.c_str(),
                static_cast<unsigned long long>(stats.recorded),
                static_cast<unsigned long long>(engine.recorder()
                                                    .RingSnapshot()
                                                    .size()),
                static_cast<unsigned long long>(stats.retained));
  }
  if (args.print_trace_id != 0) {
    std::optional<obs::RequestDigest> digest =
        engine.recorder().FindTrace(args.print_trace_id);
    if (!digest) {
      std::fprintf(stderr, "trace %llu not found in the flight recorder\n",
                   static_cast<unsigned long long>(args.print_trace_id));
      return 1;
    }
    std::printf("trace %llu: tenant=%s wait=%.3fms compute=%.3fms "
                "total=%.3fms batch=%zu slo=%.1fms%s spans=%zu\n",
                static_cast<unsigned long long>(digest->trace_id),
                digest->tenant.c_str(), digest->queue_wait_ms,
                digest->compute_ms, digest->total_ms, digest->batch_size,
                digest->slo_ms, digest->slo_breach ? " BREACH" : "",
                digest->spans.size());
  }
  if (report->errors > 0) {
    std::fprintf(stderr, "%zu requests errored\n", report->errors);
    return 1;
  }
  return 0;
}

int Run(const CliArgs& args) {
  // --- Data ------------------------------------------------------------------
  TabularDataset data;
  if (args.csv.empty()) {
    std::printf("no --csv given: running the synthetic demo dataset\n");
    data = MakeMultiRelational({.num_rows = 500,
                                .num_relations = 2,
                                .cardinality = 20,
                                .numeric_signal = 0.6,
                                .seed = args.seed});
  } else {
    CsvReadOptions read_opts;
    read_opts.label_column = args.label;
    read_opts.regression_label = args.regression;
    StatusOr<TabularDataset> loaded = ReadCsv(args.csv, read_opts);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to read %s: %s\n", args.csv.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    data = std::move(*loaded);
  }
  std::printf("data: %zu rows x %zu columns, task=%s\n", data.NumRows(),
              data.NumCols(), TaskTypeName(data.task()));

  // --- Config ----------------------------------------------------------------
  PipelineConfig config;
  {
    auto f = GraphFormulationFromName(args.formulation);
    auto c = ConstructionMethodFromName(args.construction);
    if (!f.ok() || !c.ok()) {
      std::fprintf(stderr, "%s\n",
                   (!f.ok() ? f.status() : c.status()).ToString().c_str());
      return 1;
    }
    config.formulation = *f;
    config.construction = *c;
  }
  {
    auto b = GnnBackboneFromName(args.backbone);
    if (!b.ok()) {
      std::fprintf(stderr, "%s\n", b.status().ToString().c_str());
      return 1;
    }
    config.backbone = *b;
  }
  config.knn_k = args.knn_k;
  config.hidden_dim = args.hidden;
  config.num_layers = args.layers;
  config.train.max_epochs = args.epochs;
  config.train.learning_rate = args.lr;
  config.seed = args.seed;
  std::printf("pipeline: %s\n\n", config.Describe().c_str());

  const bool classification = data.task() != TaskType::kRegression;

  // --- Cross-validation mode ---------------------------------------------------
  if (args.folds >= 2) {
    Rng rng(args.seed);
    auto result = CrossValidate(
        data, args.folds, args.val_frac, rng,
        [&](const TabularDataset& d, const Split& split) -> StatusOr<double> {
          auto r = RunPipeline(config, d, split);
          if (!r.ok()) return r.status();
          return classification ? r->eval.accuracy : r->eval.r2;
        });
    if (!result.ok()) {
      std::fprintf(stderr, "cross-validation failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%zu-fold %s: %.4f ± %.4f\n", args.folds,
                classification ? "accuracy" : "R^2", result->mean,
                result->stddev);
    return 0;
  }

  // --- Single split -------------------------------------------------------------
  Rng rng(args.seed);
  Split split = classification
                    ? StratifiedSplit(data.class_labels(), args.train_frac,
                                      args.val_frac, rng)
                    : RandomSplit(data.NumRows(), args.train_frac,
                                  args.val_frac, rng);
  auto result = RunPipeline(config, data, split);
  if (!result.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("model: %s   fit: %.2fs\n", result->model_name.c_str(),
              result->fit_seconds);
  if (classification) {
    std::printf("test accuracy: %.4f   macro-F1: %.4f", result->eval.accuracy,
                result->eval.macro_f1);
    if (data.num_classes() == 2)
      std::printf("   AUROC: %.4f", result->eval.auroc);
    std::printf("\n");
  } else {
    std::printf("test RMSE: %.4f   MAE: %.4f   R^2: %.4f\n", result->eval.rmse,
                result->eval.mae, result->eval.r2);
  }
  if (result->graph_edges > 0) {
    std::printf("graph: %zu edges, label homophily %.2f\n",
                result->graph_edges, result->edge_homophily);
  }
  return 0;
}

// Writes the trace/metrics artifacts requested on the command line after the
// subcommand ran. Failures are reported but do not change the exit code —
// observability output must never mask the run's own result.
void WriteObsArtifacts(const CliArgs& args) {
  if (!args.trace_out.empty()) {
    obs::Tracer::Global().Stop();
    std::ofstream out(args.trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   args.trace_out.c_str());
    } else {
      obs::Tracer::Global().WriteChromeTrace(out);
      std::printf("trace written to %s (open in chrome://tracing)\n",
                  args.trace_out.c_str());
    }
  }
  if (!args.metrics_out.empty()) {
    std::ofstream out(args.metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   args.metrics_out.c_str());
    } else {
      obs::MetricsRegistry::Global().WritePrometheus(out);
      std::printf("metrics written to %s\n", args.metrics_out.c_str());
    }
  }
}

int Dispatch(const CliArgs& args) {
  if (args.command == "freeze") return RunFreeze(args);
  if (args.command == "score") return RunScore(args);
  if (args.command == "serve") return RunServe(args);
  if (args.command == "loadgen" || args.command == "obsdump") {
    return RunLoadgen(args);
  }
  return Run(args);
}

}  // namespace
}  // namespace gnn4tdl

int main(int argc, char** argv) {
  gnn4tdl::CliArgs args;
  if (!gnn4tdl::ParseArgs(argc, argv, &args)) return 2;
  if (!args.trace_out.empty()) gnn4tdl::obs::Tracer::Global().Start();
  if (!args.metrics_out.empty()) gnn4tdl::obs::EnableMetrics();
  int code = gnn4tdl::Dispatch(args);
  gnn4tdl::WriteObsArtifacts(args);
  return code;
}
