#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "data/tabular.h"
#include "kernels/fmatrix.h"
#include "kernels/kernels.h"
#include "models/knn_gnn.h"
#include "serve/attacher.h"
#include "serve/f32_scorer.h"
#include "serve/knn_index.h"
#include "tensor/matrix.h"

namespace gnn4tdl {

class BoundedReader;

/// Options for loading a frozen artifact.
struct FrozenModelOptions {
  /// Overrides the artifact's recorded serving precision (lets one artifact
  /// be loaded both ways, e.g. for benchmarking). Unset = honor the artifact.
  std::optional<kernels::Precision> precision;
};

/// InvalidArgument naming the first NaN or infinite entry of `features`
/// (length `count`). A non-finite feature would make every similarity to the
/// training rows meaningless, so serving rejects it at the boundary.
[[nodiscard]] Status CheckFiniteFeatures(const double* features, size_t count);

/// A trained InstanceGraphGnn packaged for online inductive inference: one
/// versioned artifact file bundling the trained parameters, the construction
/// options, the training-graph snapshot, the fitted feature transforms, and
/// the featurized training matrix. Load() reconstructs everything in a fresh
/// process — no training data or Fit() call required — and wires up an
/// InductiveAttacher so incoming rows can be scored against the frozen
/// instance graph.
///
/// Served at f64, the scores of every backbone (with or without jumping
/// knowledge or PairNorm) are bit-identical to
/// InstanceGraphGnn::PredictInductive on the original model: the attacher
/// extracts the exact receptive field of the new rows and overrides node
/// degrees with their full-extended-graph values, so the k-hop subgraph
/// forward pass computes the same floating-point sums as the full graph.
/// Served at f32, every backbone runs the same forward on the f32 kernel
/// tier, within the 1e-3 logit bound.
class FrozenModel {
 public:
  FrozenModel(FrozenModel&&) = default;
  FrozenModel& operator=(FrozenModel&&) = default;

  /// Writes a fitted model as a frozen artifact, in one write to `out`.
  /// Identity node-init models
  /// are rejected (they are transductive-only, mirroring PredictInductive).
  /// `precision` records how the artifact should be served (parameters are
  /// always stored in full precision; kF32 means "cast down at load").
  [[nodiscard]] static Status Save(
      const InstanceGraphGnn& model, std::ostream& out,
      kernels::Precision precision = kernels::Precision::kF64);
  [[nodiscard]] static Status Save(
      const InstanceGraphGnn& model, const std::string& path,
      kernels::Precision precision = kernels::Precision::kF64);

  /// Reconstructs a frozen artifact written by Save(), parsing it in place:
  /// every count is held to the bytes left before it sizes an allocation,
  /// and every malformed, truncated or non-finite value is IoError naming
  /// the field, the value and the line. A wrong magic is InvalidArgument.
  [[nodiscard]] static StatusOr<FrozenModel> Load(BoundedReader& in,
                                                  FrozenModelOptions options = {});
  /// Reads the rest of the stream once, then parses it as above.
  [[nodiscard]] static StatusOr<FrozenModel> Load(std::istream& in,
                                                  FrozenModelOptions options = {});
  [[nodiscard]] static StatusOr<FrozenModel> Load(const std::string& path,
                                                  FrozenModelOptions options = {});

  /// Featurizes raw rows with the frozen transform (schema must match the
  /// training table).
  [[nodiscard]] StatusOr<Matrix> Featurize(const TabularDataset& rows) const;

  /// Scores already-featurized rows (n_new x feature_dim()): attach to the
  /// frozen graph, forward the trained weights over the extracted subgraph,
  /// return n_new x num_outputs() logits. The whole batch shares one
  /// extended graph (PredictInductive micro-batch semantics). A NaN or
  /// infinite feature is InvalidArgument.
  [[nodiscard]] StatusOr<Matrix> ScoreFeatures(const Matrix& x_new) const;

  /// Featurize + ScoreFeatures.
  [[nodiscard]] StatusOr<Matrix> Score(const TabularDataset& rows) const;

  TaskType task() const;
  size_t num_outputs() const;
  size_t feature_dim() const;
  size_t num_train_rows() const;
  const InstanceGraphGnn& model() const { return *model_; }
  const KnnIndex& index() const { return *index_; }
  const InductiveAttacher& attacher() const { return *attacher_; }

  /// The precision ScoreFeatures runs at: the load-time override if given,
  /// else the artifact's record.
  kernels::Precision precision() const { return precision_; }
  /// The precision recorded in the artifact (v1 artifacts: kF64).
  kernels::Precision artifact_precision() const { return artifact_precision_; }

 private:
  FrozenModel() = default;

  /// ScoreFeatures' f32 forward over an attached batch: logits for every
  /// node of the batch graph, widened to double.
  StatusOr<Matrix> ScoreF32(const Matrix& x_new,
                            const AttachedBatch& batch) const;

  std::unique_ptr<InstanceGraphGnn> model_;
  std::unique_ptr<KnnIndex> index_;
  std::unique_ptr<InductiveAttacher> attacher_;
  kernels::Precision artifact_precision_ = kernels::Precision::kF64;
  kernels::Precision precision_ = kernels::Precision::kF64;
  /// f32 serving state, populated only when precision_ == kF32: the casted
  /// scorer and the pre-cast featurized training matrix batches gather from.
  std::unique_ptr<F32Scorer> f32_scorer_;
  kernels::FMatrix x_train_f32_;
};

}  // namespace gnn4tdl
