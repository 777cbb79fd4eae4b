#include "serve/frozen_model.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

#include "common/text_io.h"
#include "graph/graph_io.h"

namespace gnn4tdl {

namespace {

// v2 added the `precision` field (serving tier). v1 artifacts are still
// accepted and serve as double.
constexpr char kFrozenMagicV1[] = "gnn4tdl-frozen-model-v1";
constexpr char kFrozenMagic[] = "gnn4tdl-frozen-model-v2";
/// The one error that says a stream is not a frozen model at all.
constexpr char kNotFrozenModel[] =
    "stream is not a gnn4tdl frozen model (bad magic)";

/// Rejects model-size header fields that a parameter block of `bytes_left`
/// bytes cannot back, before anything is allocated from them. Every weight
/// takes at least two bytes there (a digit and a separator). The weights
/// include at least the head's hidden x outputs matrix, the first layer's
/// in_dim x hidden projection, and hidden x hidden matrices: one per layer
/// after the first for GCN, SAGE and GAT, one per layer for GIN and the
/// transformer, one shared block for GGNN and APPNP. The loop counts are
/// held to the same budget so an inflated one cannot spin the constructor or
/// the forward. Counts are doubles so no product overflows.
Status CheckModelSizes(const InstanceGraphGnnOptions& o, size_t in_dim,
                       size_t num_outputs, size_t bytes_left) {
  const double h = static_cast<double>(o.hidden_dim);
  const double layers = static_cast<double>(o.num_layers);
  double square_blocks = 0.0;
  if (o.num_layers > 0) {
    switch (o.backbone) {
      case GnnBackbone::kGcn:
      case GnnBackbone::kSage:
      case GnnBackbone::kGat:
        square_blocks = layers - 1.0;
        break;
      case GnnBackbone::kGin:
      case GnnBackbone::kTransformer:
        square_blocks = layers;
        break;
      case GnnBackbone::kGgnn:
      case GnnBackbone::kAppnp:
        square_blocks = 1.0;
        break;
    }
  }
  const double min_weights =
      h * static_cast<double>(num_outputs) +
      (o.num_layers > 0 ? static_cast<double>(in_dim) * h : 0.0) +
      square_blocks * h * h;
  const std::pair<const char*, double> sizes[] = {
      {"num_outputs", static_cast<double>(num_outputs)},
      {"hidden_dim", h},
      {"num_layers", layers},
      {"gat_heads", static_cast<double>(o.gat_heads)},
      {"appnp_steps", static_cast<double>(o.appnp_steps)},
      {"weight count implied by the header", min_weights}};
  const double budget = static_cast<double>(bytes_left) / 2.0;
  for (const auto& [name, value] : sizes) {
    if (value > budget) {
      std::ostringstream msg;
      msg << std::fixed;
      msg.precision(0);
      msg << "frozen model: " << name << " " << value
          << " needs more than the " << bytes_left
          << " bytes left in the artifact";
      return Status::IoError(msg.str());
    }
  }
  // GatLayer CHECKs these; from an artifact they are corrupt input.
  if (o.backbone == GnnBackbone::kGat &&
      (o.gat_heads == 0 || o.hidden_dim % o.gat_heads != 0)) {
    return Status::IoError("frozen model: gat_heads " +
                           std::to_string(o.gat_heads) +
                           " does not divide hidden_dim " +
                           std::to_string(o.hidden_dim));
  }
  return Status::OK();
}

}  // namespace

Status CheckFiniteFeatures(const double* features, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    if (!std::isfinite(features[i])) {
      return Status::InvalidArgument("feature " + std::to_string(i) +
                                     " is not finite (" +
                                     std::to_string(features[i]) + ")");
    }
  }
  return Status::OK();
}

Status FrozenModel::Save(const InstanceGraphGnn& model, std::ostream& out,
                         kernels::Precision precision) {
  if (!model.fitted()) {
    return Status::FailedPrecondition("FrozenModel::Save before Fit");
  }
  if (model.options().node_init == NodeInit::kIdentity) {
    return Status::FailedPrecondition(
        "identity node init is transductive-only and cannot be frozen for "
        "inductive serving");
  }
  if (!out) return Status::IoError("frozen model stream is not writable");

  const InstanceGraphGnnOptions& o = model.options();
  TextWriter text;
  text << kFrozenMagic << '\n';
  text << "task " << static_cast<int>(model.task()) << '\n';
  text << "num_outputs " << model.output_dim() << '\n';
  text << "precision " << kernels::PrecisionName(precision) << '\n';
  text << "backbone " << GnnBackboneName(o.backbone) << '\n';
  text << "hidden_dim " << o.hidden_dim << '\n';
  text << "num_layers " << o.num_layers << '\n';
  text << "gat_heads " << o.gat_heads << '\n';
  text << "appnp_steps " << o.appnp_steps << '\n';
  text << "appnp_alpha " << o.appnp_alpha << '\n';
  text << "use_pair_norm " << (o.use_pair_norm ? 1 : 0) << '\n';
  text << "use_jumping_knowledge " << (o.use_jumping_knowledge ? 1 : 0)
       << '\n';
  text << "knn_k " << o.knn.k << '\n';
  text << "knn_metric " << SimilarityMetricName(o.knn.metric) << '\n';
  text << "knn_gamma " << o.knn.gamma << '\n';
  text << "seed " << o.seed << '\n';

  GNN4TDL_RETURN_IF_ERROR(model.featurizer().Save(text));
  GNN4TDL_RETURN_IF_ERROR(
      WriteEdgeList(model.graph(), text, /*with_edge_count=*/true));

  const Matrix& x = model.feature_cache();
  text << "features " << x.rows() << ' ' << x.cols() << '\n';
  for (size_t i = 0; i < x.rows(); ++i) {
    const double* row = x.row_data(i);
    for (size_t j = 0; j < x.cols(); ++j) {
      text << row[j] << (j + 1 < x.cols() ? ' ' : '\n');
    }
  }

  GNN4TDL_RETURN_IF_ERROR(model.SaveTrainedParameters(text));
  return text.WriteTo(out, "frozen model stream");
}

Status FrozenModel::Save(const InstanceGraphGnn& model, const std::string& path,
                         kernels::Precision precision) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  GNN4TDL_RETURN_IF_ERROR(Save(model, out, precision));
  if (!out) return Status::IoError("write failure on '" + path + "'");
  return Status::OK();
}

StatusOr<FrozenModel> FrozenModel::Load(BoundedReader& in,
                                        FrozenModelOptions options) {
  const std::string_view magic = in.Token();
  if (magic != kFrozenMagic && magic != kFrozenMagicV1) {
    return Status::InvalidArgument(kNotFrozenModel);
  }
  const bool v1 = magic == kFrozenMagicV1;

  // Each header line is "<name> <value>".
  auto number = [&in](std::string_view name, auto* out) -> Status {
    GNN4TDL_RETURN_IF_ERROR(in.Expect(name));
    if constexpr (std::is_same_v<decltype(out), double*>) {
      return in.Double(name, out);
    } else {
      return in.Integer(name, out);
    }
  };
  auto word = [&in](std::string_view name, std::string* out) -> Status {
    GNN4TDL_RETURN_IF_ERROR(in.Expect(name));
    *out = std::string(in.Token());
    return Status::OK();
  };

  int task_int = 0;
  size_t num_outputs = 0;
  GNN4TDL_RETURN_IF_ERROR(number("task", &task_int));
  GNN4TDL_RETURN_IF_ERROR(number("num_outputs", &num_outputs));

  kernels::Precision artifact_precision = kernels::Precision::kF64;
  if (!v1) {
    std::string precision_name;
    GNN4TDL_RETURN_IF_ERROR(word("precision", &precision_name));
    StatusOr<kernels::Precision> parsed =
        kernels::PrecisionFromName(precision_name);
    // IoError, not the parser's InvalidArgument: a bad precision value is a
    // corrupt artifact.
    if (!parsed.ok()) {
      return in.Error("precision", precision_name, parsed.status().message());
    }
    artifact_precision = *parsed;
  }

  InstanceGraphGnnOptions o;
  std::string backbone_name, metric_name;
  int pair_norm = 0, jk = 0;
  GNN4TDL_RETURN_IF_ERROR(word("backbone", &backbone_name));
  GNN4TDL_RETURN_IF_ERROR(number("hidden_dim", &o.hidden_dim));
  GNN4TDL_RETURN_IF_ERROR(number("num_layers", &o.num_layers));
  GNN4TDL_RETURN_IF_ERROR(number("gat_heads", &o.gat_heads));
  GNN4TDL_RETURN_IF_ERROR(number("appnp_steps", &o.appnp_steps));
  GNN4TDL_RETURN_IF_ERROR(number("appnp_alpha", &o.appnp_alpha));
  GNN4TDL_RETURN_IF_ERROR(number("use_pair_norm", &pair_norm));
  GNN4TDL_RETURN_IF_ERROR(number("use_jumping_knowledge", &jk));
  GNN4TDL_RETURN_IF_ERROR(number("knn_k", &o.knn.k));
  GNN4TDL_RETURN_IF_ERROR(word("knn_metric", &metric_name));
  GNN4TDL_RETURN_IF_ERROR(number("knn_gamma", &o.knn.gamma));
  GNN4TDL_RETURN_IF_ERROR(number("seed", &o.seed));

  StatusOr<GnnBackbone> backbone = GnnBackboneFromName(backbone_name);
  if (!backbone.ok()) return backbone.status();
  o.backbone = *backbone;
  StatusOr<SimilarityMetric> metric = SimilarityMetricFromName(metric_name);
  if (!metric.ok()) return metric.status();
  o.knn.metric = *metric;
  o.use_pair_norm = pair_norm != 0;
  o.use_jumping_knowledge = jk != 0;
  o.node_init = NodeInit::kFeatures;
  // The graph ships with the artifact; construction never reruns at serve
  // time.
  o.graph_source = GraphSource::kPrecomputed;

  const TaskType task = static_cast<TaskType>(task_int);
  if (task != TaskType::kBinaryClassification &&
      task != TaskType::kMultiClassification &&
      task != TaskType::kRegression && task != TaskType::kAnomalyDetection) {
    return Status::IoError("frozen model: unknown task code " +
                           std::to_string(task_int));
  }

  StatusOr<Featurizer> featurizer = Featurizer::Load(in);
  if (!featurizer.ok()) return featurizer.status();

  // Every node needs a feature row later in the artifact, so the node count
  // cannot exceed the bytes left.
  StatusOr<Graph> graph = ReadEdgeList(in, in.remaining());
  if (!graph.ok()) return graph.status();

  // The header sizes the allocation below: each of the n rows holds d
  // cells of at least 2 bytes, and both must agree with what the artifact
  // already committed to.
  constexpr size_t kNoCap = std::numeric_limits<size_t>::max();
  size_t n = 0, d = 0;
  GNN4TDL_RETURN_IF_ERROR(in.Expect("features"));
  GNN4TDL_RETURN_IF_ERROR(in.Size("feature rows", 2, kNoCap, &n));
  GNN4TDL_RETURN_IF_ERROR(in.Size("feature columns", 2 * n, kNoCap, &d));
  if (n != graph->num_nodes() || d != featurizer->OutputDim()) {
    return Status::IoError(
        "frozen model: feature matrix header says " + std::to_string(n) +
        " x " + std::to_string(d) + " but the graph has " +
        std::to_string(graph->num_nodes()) +
        " nodes and the featurizer emits " +
        std::to_string(featurizer->OutputDim()) + " columns");
  }
  Matrix x_cache(n, d);
  double* cells = x_cache.data();
  for (size_t i = 0; i < n * d; ++i) {
    GNN4TDL_RETURN_IF_ERROR(in.Double("feature", &cells[i]));
  }

  GNN4TDL_RETURN_IF_ERROR(CheckModelSizes(o, d, num_outputs, in.remaining()));

  FrozenModel frozen;
  frozen.model_ = std::make_unique<InstanceGraphGnn>(o);
  GNN4TDL_RETURN_IF_ERROR(frozen.model_->RestoreForInference(
      task, num_outputs, std::move(*featurizer), std::move(*graph),
      std::move(x_cache)));
  GNN4TDL_RETURN_IF_ERROR(frozen.model_->LoadTrainedParameters(in));

  StatusOr<KnnIndex> index = KnnIndex::Build(frozen.model_->feature_cache(),
                                             o.knn.metric, o.knn.gamma);
  if (!index.ok()) return index.status();
  frozen.index_ = std::make_unique<KnnIndex>(std::move(*index));

  InductiveAttacherOptions attach;
  attach.k = std::max<size_t>(o.knn.k, 1);
  attach.hops = std::max<size_t>(PropagationSteps(o), 1);
  attach.full_neighborhood = NeedsFullNeighborhood(o);
  frozen.attacher_ = std::make_unique<InductiveAttacher>(
      &frozen.model_->graph(), &frozen.model_->feature_cache(),
      frozen.index_.get(), attach);

  frozen.artifact_precision_ = artifact_precision;
  frozen.precision_ = options.precision.value_or(artifact_precision);
  if (frozen.precision_ == kernels::Precision::kF32) {
    StatusOr<F32Scorer> scorer = F32Scorer::Build(*frozen.model_);
    if (!scorer.ok()) return scorer.status();
    frozen.f32_scorer_ = std::make_unique<F32Scorer>(std::move(*scorer));
    frozen.x_train_f32_ =
        kernels::FMatrix::FromDouble(frozen.model_->feature_cache());
  }
  return frozen;
}

StatusOr<FrozenModel> FrozenModel::Load(std::istream& in,
                                        FrozenModelOptions options) {
  const std::string text = ReadAll(in);
  BoundedReader reader(text, "frozen model");
  return Load(reader, options);
}

StatusOr<FrozenModel> FrozenModel::Load(const std::string& path,
                                        FrozenModelOptions options) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  StatusOr<FrozenModel> frozen = Load(in, options);
  // Only a bad magic means the file is something else; every other error
  // names what is wrong inside the artifact.
  if (!frozen.ok() && frozen.status().message() == kNotFrozenModel) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a gnn4tdl frozen model");
  }
  return frozen;
}

StatusOr<Matrix> FrozenModel::Featurize(const TabularDataset& rows) const {
  return model_->featurizer().Transform(rows);
}

StatusOr<Matrix> FrozenModel::ScoreFeatures(const Matrix& x_new) const {
  GNN4TDL_RETURN_IF_ERROR(CheckFiniteFeatures(x_new.data(), x_new.size()));
  const bool f32 = precision_ == kernels::Precision::kF32;
  // The f32 path assembles its own features, so the attacher skips the
  // double gather.
  StatusOr<AttachedBatch> batch =
      attacher_->Attach(x_new, /*with_features=*/!f32);
  if (!batch.ok()) return batch.status();
  StatusOr<Matrix> logits =
      f32 ? ScoreF32(x_new, *batch)
          : model_->ScoreOnGraph(batch->features, batch->graph,
                                 &batch->degrees);
  if (!logits.ok()) return logits.status();
  const size_t n_sub = batch->train_nodes.size();
  Matrix out(batch->num_new, logits->cols());
  for (size_t i = 0; i < batch->num_new; ++i) {
    std::copy(logits->row_data(n_sub + i),
              logits->row_data(n_sub + i) + logits->cols(), out.row_data(i));
  }
  return out;
}

StatusOr<Matrix> FrozenModel::ScoreF32(const Matrix& x_new,
                                       const AttachedBatch& batch) const {
  // Batch features in single precision: the pre-cast training cache rows
  // plus the cast-down new rows.
  const size_t n_sub = batch.train_nodes.size();
  kernels::FMatrix features(n_sub + batch.num_new, x_train_f32_.cols());
  for (size_t i = 0; i < n_sub; ++i) {
    features.SetRow(i, x_train_f32_, batch.train_nodes[i]);
  }
  for (size_t i = 0; i < batch.num_new; ++i) {
    features.SetRowFromDouble(n_sub + i, x_new.row_data(i));
  }
  StatusOr<kernels::FMatrix> logits =
      f32_scorer_->Score(features, batch.graph, batch.degrees);
  if (!logits.ok()) return logits.status();
  return logits->ToDouble();
}

StatusOr<Matrix> FrozenModel::Score(const TabularDataset& rows) const {
  StatusOr<Matrix> x = Featurize(rows);
  if (!x.ok()) return x.status();
  return ScoreFeatures(*x);
}

TaskType FrozenModel::task() const { return model_->task(); }
size_t FrozenModel::num_outputs() const { return model_->output_dim(); }
size_t FrozenModel::feature_dim() const {
  return model_->feature_cache().cols();
}
size_t FrozenModel::num_train_rows() const {
  return model_->feature_cache().rows();
}

}  // namespace gnn4tdl
