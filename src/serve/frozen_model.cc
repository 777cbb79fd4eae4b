#include "serve/frozen_model.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "graph/graph_io.h"

namespace gnn4tdl {

namespace {

// v2 added the `precision` field (serving tier). v1 artifacts are still
// accepted and serve as double.
constexpr char kFrozenMagicV1[] = "gnn4tdl-frozen-model-v1";
constexpr char kFrozenMagic[] = "gnn4tdl-frozen-model-v2";

/// Bytes from the read position to the end of `in`; the size_t maximum when
/// the stream cannot seek.
size_t BytesLeft(std::istream& in) {
  constexpr size_t kUnknown = std::numeric_limits<size_t>::max();
  const std::streampos here = in.tellg();
  if (here == std::streampos(-1)) return kUnknown;
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.clear();
  in.seekg(here);
  return end == std::streampos(-1) ? kUnknown
                                   : static_cast<size_t>(end - here);
}

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

Status ExpectField(std::istream& in, const std::string& want) {
  std::string got;
  if (!(in >> got)) {
    return Status::IoError("frozen model: truncated before field '" + want +
                           "'");
  }
  if (got != want) {
    return Status::IoError("frozen model: expected field '" + want +
                           "', got '" + got + "'");
  }
  return Status::OK();
}

template <typename T>
Status ReadField(std::istream& in, const std::string& name, T& out) {
  GNN4TDL_RETURN_IF_ERROR(ExpectField(in, name));
  if (!(in >> out)) {
    return Status::IoError("frozen model: unreadable value for field '" +
                           name + "'");
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

  std::streamsize old_precision = out.precision(17);
  out << kFrozenMagic << '\n';
  out << "task " << static_cast<int>(model.task()) << '\n';
  out << "num_outputs " << model.output_dim() << '\n';
  out << "precision " << kernels::PrecisionName(precision) << '\n';
  out << "backbone " << GnnBackboneName(o.backbone) << '\n';
  out << "hidden_dim " << o.hidden_dim << '\n';
  out << "num_layers " << o.num_layers << '\n';
  out << "gat_heads " << o.gat_heads << '\n';
  out << "appnp_steps " << o.appnp_steps << '\n';
  out << "appnp_alpha " << o.appnp_alpha << '\n';
  out << "use_pair_norm " << (o.use_pair_norm ? 1 : 0) << '\n';
  out << "use_jumping_knowledge " << (o.use_jumping_knowledge ? 1 : 0) << '\n';
  out << "knn_k " << o.knn.k << '\n';
  out << "knn_metric " << SimilarityMetricName(o.knn.metric) << '\n';
  out << "knn_gamma " << o.knn.gamma << '\n';
  out << "seed " << o.seed << '\n';
  out.precision(old_precision);

  GNN4TDL_RETURN_IF_ERROR(model.featurizer().Save(out));
  GNN4TDL_RETURN_IF_ERROR(
      WriteEdgeList(model.graph(), out, /*with_edge_count=*/true));

  const Matrix& x = model.feature_cache();
  old_precision = out.precision(17);
  out << "features " << x.rows() << ' ' << x.cols() << '\n';
  for (size_t i = 0; i < x.rows(); ++i) {
    const double* row = x.row_data(i);
    for (size_t j = 0; j < x.cols(); ++j) {
      out << row[j] << (j + 1 < x.cols() ? ' ' : '\n');
    }
  }
  out.precision(old_precision);

  GNN4TDL_RETURN_IF_ERROR(model.SaveTrainedParameters(out));
  if (!out) return Status::IoError("write failure on frozen model stream");
  return Status::OK();
}

Status FrozenModel::Save(const InstanceGraphGnn& model, const std::string& path,
                         kernels::Precision precision) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  GNN4TDL_RETURN_IF_ERROR(Save(model, out, precision));
  if (!out) return Status::IoError("write failure on '" + path + "'");
  return Status::OK();
}

StatusOr<FrozenModel> FrozenModel::Load(std::istream& in,
                                        FrozenModelOptions options) {
  std::string magic;
  if (!(in >> magic) || (magic != kFrozenMagic && magic != kFrozenMagicV1)) {
    return Status::InvalidArgument(
        "stream is not a gnn4tdl frozen model (bad magic)");
  }
  const bool v1 = magic == kFrozenMagicV1;

  int task_int = 0;
  size_t num_outputs = 0;
  GNN4TDL_RETURN_IF_ERROR(ReadField(in, "task", task_int));
  GNN4TDL_RETURN_IF_ERROR(ReadField(in, "num_outputs", num_outputs));

  kernels::Precision artifact_precision = kernels::Precision::kF64;
  if (!v1) {
    std::string precision_name;
    GNN4TDL_RETURN_IF_ERROR(ReadField(in, "precision", precision_name));
    StatusOr<kernels::Precision> parsed =
        kernels::PrecisionFromName(precision_name);
    // IoError, not the parser's InvalidArgument: a bad precision value is a
    // corrupt artifact, not a "this isn't a frozen model at all" condition
    // (the path-based Load overload folds InvalidArgument into the latter).
    if (!parsed.ok()) {
      return Status::IoError("frozen model: " + parsed.status().message());
    }
    artifact_precision = *parsed;
  }

  InstanceGraphGnnOptions o;
  std::string backbone_name, metric_name;
  int pair_norm = 0, jk = 0;
  GNN4TDL_RETURN_IF_ERROR(ReadField(in, "backbone", backbone_name));
  GNN4TDL_RETURN_IF_ERROR(ReadField(in, "hidden_dim", o.hidden_dim));
  GNN4TDL_RETURN_IF_ERROR(ReadField(in, "num_layers", o.num_layers));
  GNN4TDL_RETURN_IF_ERROR(ReadField(in, "gat_heads", o.gat_heads));
  GNN4TDL_RETURN_IF_ERROR(ReadField(in, "appnp_steps", o.appnp_steps));
  GNN4TDL_RETURN_IF_ERROR(ReadField(in, "appnp_alpha", o.appnp_alpha));
  GNN4TDL_RETURN_IF_ERROR(ReadField(in, "use_pair_norm", pair_norm));
  GNN4TDL_RETURN_IF_ERROR(ReadField(in, "use_jumping_knowledge", jk));
  GNN4TDL_RETURN_IF_ERROR(ReadField(in, "knn_k", o.knn.k));
  GNN4TDL_RETURN_IF_ERROR(ReadField(in, "knn_metric", metric_name));
  GNN4TDL_RETURN_IF_ERROR(ReadField(in, "knn_gamma", o.knn.gamma));
  GNN4TDL_RETURN_IF_ERROR(ReadField(in, "seed", o.seed));

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

  in >> std::ws;  // ReadEdgeList is line-oriented; start it on the magic line
  // Every node needs a feature row later in the stream, so the node count
  // cannot exceed the bytes left.
  StatusOr<Graph> graph = ReadEdgeList(in, BytesLeft(in));
  if (!graph.ok()) return graph.status();

  size_t n = 0, d = 0;
  GNN4TDL_RETURN_IF_ERROR(ExpectField(in, "features"));
  if (!(in >> n >> d)) {
    return Status::IoError("frozen model: unreadable feature matrix header");
  }
  // The header sizes the allocation below, so it must agree with what the
  // artifact already committed to before anything is allocated from it.
  if (n != graph->num_nodes() || d != featurizer->OutputDim()) {
    return Status::IoError(
        "frozen model: feature matrix header says " + std::to_string(n) +
        " x " + std::to_string(d) + " but the graph has " +
        std::to_string(graph->num_nodes()) +
        " nodes and the featurizer emits " +
        std::to_string(featurizer->OutputDim()) + " columns");
  }
  Matrix x_cache(n, d);
  for (size_t i = 0; i < n; ++i) {
    double* row = x_cache.row_data(i);
    for (size_t j = 0; j < d; ++j) {
      if (!(in >> row[j])) {
        return Status::IoError("frozen model: truncated feature matrix at row " +
                               std::to_string(i));
      }
    }
  }

  GNN4TDL_RETURN_IF_ERROR(CheckModelSizes(o, d, num_outputs, BytesLeft(in)));

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

StatusOr<FrozenModel> FrozenModel::Load(const std::string& path,
                                        FrozenModelOptions options) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  StatusOr<FrozenModel> frozen = Load(in, options);
  if (!frozen.ok() &&
      frozen.status().code() == StatusCode::kInvalidArgument) {
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
