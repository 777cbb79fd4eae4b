#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "construct/rule_based.h"
#include "data/transforms.h"
#include "gnn/gat.h"
#include "gnn/gcn.h"
#include "gnn/ggnn.h"
#include "gnn/gin.h"
#include "gnn/sage.h"
#include "kernels/fmatrix.h"
#include "models/model.h"
#include "train/aux_tasks.h"
#include "train/trainer.h"

namespace gnn4tdl {

/// GNN backbones selectable for instance-graph models (Table 5).
enum class GnnBackbone {
  kGcn,
  kSage,
  kGat,
  kGin,
  kGgnn,
  kAppnp,
  kTransformer,  // structure-biased transformer (Section 6 direction)
};

const char* GnnBackboneName(GnnBackbone b);

/// Parses a backbone name produced by GnnBackboneName. Unknown names are
/// InvalidArgument.
StatusOr<GnnBackbone> GnnBackboneFromName(const std::string& name);

/// How the instance graph is obtained (Table 3 / Section 4.2).
enum class GraphSource {
  kKnn,              // k nearest neighbors in feature space
  kMissingAwareKnn,  // kNN over co-observed columns, no imputation (GNN4MV)
  kThreshold,        // similarity thresholding
  kFullyConnected,   // complete graph (small n only)
  kMultiplexFlatten, // union of same-feature-value layers (TabGNN flattened)
  kPrecomputed,      // caller supplies the graph via SetGraph()
};

const char* GraphSourceName(GraphSource s);

/// Training strategies (Table 8).
enum class TrainStrategy {
  kEndToEnd,          // main + weighted auxiliary losses, one phase
  kTwoStage,          // phase 1: self-supervised encoder; phase 2: frozen
                      // encoder, train the head
  kPretrainFinetune,  // phase 1: self-supervised encoder; phase 2: all
                      // parameters on the main loss
};

const char* TrainStrategyName(TrainStrategy s);

/// What the instance nodes carry as initial vectors (survey Table 9): the
/// featurized table row, or a featureless one-hot node id (features then
/// participate only through the graph structure).
enum class NodeInit { kFeatures, kIdentity };

/// Options for InstanceGraphGnn.
struct InstanceGraphGnnOptions {
  GraphSource graph_source = GraphSource::kKnn;
  NodeInit node_init = NodeInit::kFeatures;
  KnnGraphOptions knn;
  ThresholdGraphOptions threshold;
  size_t multiplex_max_group = 30;

  GnnBackbone backbone = GnnBackbone::kGcn;
  size_t hidden_dim = 64;
  size_t num_layers = 2;
  size_t gat_heads = 4;
  size_t appnp_steps = 10;
  double appnp_alpha = 0.1;
  double dropout = 0.5;
  /// Apply PairNorm between GNN layers (combats oversmoothing at depth;
  /// Section 6 robustness discussion).
  bool use_pair_norm = false;
  /// Jumping-knowledge concat (GCN backbone): the head reads the
  /// concatenation of every layer's output instead of the last layer only,
  /// preserving shallow features at depth.
  bool use_jumping_knowledge = false;

  // Auxiliary tasks (Table 7); 0 = off.
  double reconstruction_weight = 0.0;
  double dae_weight = 0.0;
  double dae_corrupt_rate = 0.2;
  double contrastive_weight = 0.0;
  double contrastive_corrupt_rate = 0.2;
  double contrastive_temperature = 0.5;
  double smoothness_weight = 0.0;
  /// Graph-completion SSL auxiliary (Section 6, SSL task c): predict held
  /// edges vs sampled non-edges from the embeddings.
  double edge_completion_weight = 0.0;
  size_t edge_completion_negatives = 500;

  TrainStrategy strategy = TrainStrategy::kEndToEnd;
  /// Self-supervised epochs for the two-phase strategies.
  int pretrain_epochs = 100;

  /// When > 0, cap each node's neighborhood at this many uniformly sampled
  /// neighbors (GraphSAGE-style static sampling; Table 6 & Section 6
  /// scaling). 0 = use the full graph.
  size_t neighbor_sample = 0;

  TrainOptions train;
  FeaturizerOptions featurizer;
  uint64_t seed = 3;
};

/// Number of message-passing steps the backbone runs (its layers, or APPNP's
/// propagation steps): the hop radius of a node's receptive field.
size_t PropagationSteps(const InstanceGraphGnnOptions& o);

/// True when a node's output can depend on nodes outside its receptive field
/// (global attention, or PairNorm's batch statistics), so scoring a subgraph
/// needs every node's full neighborhood.
bool NeedsFullNeighborhood(const InstanceGraphGnnOptions& o);

/// The generic instance-graph GNN for tabular data: the family covering
/// LSTM-GNN / LUNAR / SLAPS-static / SUBLIME-static / GNN4MV-style methods
/// (Table 2). Construct an instance graph from the featurized table, stack a
/// GNN backbone, train semi-supervised on the labeled rows (optionally with
/// Table 7 auxiliary tasks under a Table 8 strategy).
///
/// Transductive: Predict() must receive the dataset passed to Fit().
class InstanceGraphGnn : public TabularModel {
 public:
  explicit InstanceGraphGnn(InstanceGraphGnnOptions options = {});
  ~InstanceGraphGnn() override;

  /// Supplies the graph when graph_source == kPrecomputed (before Fit).
  void SetGraph(Graph graph);

  Status Fit(const TabularDataset& data, const Split& split) override;
  StatusOr<Matrix> Predict(const TabularDataset& data) override;
  std::string Name() const override;

  /// Inductive prediction for *unseen* rows (Section 2.5e): each new row is
  /// featurized with the fitted featurizer, attached to its k nearest
  /// training rows, and scored by running the trained weights on the
  /// extended graph. New rows never see each other and the training graph is
  /// unchanged. Returns n_new x C logits.
  StatusOr<Matrix> PredictInductive(const TabularDataset& new_data);

  /// Instance embeddings after Fit (n x hidden_dim).
  StatusOr<Matrix> Embeddings() const;

  /// The constructed graph (after Fit).
  const Graph& graph() const { return graph_; }

  // --- Serving hooks (consumed by src/serve) --------------------------------

  const InstanceGraphGnnOptions& options() const { return options_; }
  /// Fitted feature transform (valid after Fit / RestoreForInference).
  const Featurizer& featurizer() const { return featurizer_; }
  /// Featurized training matrix (valid after Fit / RestoreForInference).
  const Matrix& feature_cache() const { return x_cache_; }
  TaskType task() const { return task_; }
  bool fitted() const { return fitted_; }
  /// Output dimension of the head (num_classes, or 1 for regression).
  size_t output_dim() const;

  /// Writes the trained encoder+head parameters as an nn/serialize block.
  Status SaveTrainedParameters(TextWriter& out) const;
  Status SaveTrainedParameters(std::ostream& out) const;

  /// Loads parameters written by SaveTrainedParameters into the assembled
  /// encoder+head (call after Fit or RestoreForInference).
  Status LoadTrainedParameters(BoundedReader& in);
  Status LoadTrainedParameters(std::istream& in);

  /// Every trained encoder and head parameter cast to f32, keyed by its
  /// tensor's id(): the weights ScoreOnGraphF32 reads. Built once per
  /// serving model; training state stays untouched.
  using F32Weights = std::unordered_map<const void*, kernels::FMatrix>;
  StatusOr<F32Weights> CastWeightsToF32() const;

  /// Rebuilds the inference state from frozen-artifact pieces without
  /// training: assembles encoder/head for `num_outputs` outputs, installs the
  /// fitted featurizer, training graph, and featurized training matrix, and
  /// marks the model fitted. Weights are randomly initialized until
  /// LoadTrainedParameters overwrites them.
  Status RestoreForInference(TaskType task, size_t num_outputs,
                             Featurizer featurizer, Graph graph,
                             Matrix x_cache);

  /// Forward-only scoring on an alternative graph with this model's trained
  /// weights: builds the backbone's message-passing operator from `graph` and
  /// returns head logits, one row per node (`x` holds one feature row per
  /// node). Runs the eval-mode forward with no autograd tape, computing the
  /// same values as the taped forward of PredictInductive.
  ///
  /// `degree_override`, when non-null, supplies the weighted degree of each
  /// node (excluding the self-loop GCN normalization adds) to use instead of
  /// degrees computed from `graph` — how serve/InductiveAttacher makes k-hop
  /// subgraph scoring bit-exact with full-graph inductive prediction. Under
  /// an override, a node with an empty adjacency row and a non-zero degree
  /// is input-only: its own neighborhood was cut off. Layer l then runs only
  /// on V_l, the nodes of V_{l-1} that are not input-only and whose rows
  /// read only V_{l-1} (V_0 is every node); the head runs on V_L and every
  /// other row is NaN. Graph transformer and PairNorm outputs read every
  /// node, so for them an input-only node is InvalidArgument. Without an
  /// override every row is computed.
  StatusOr<Matrix> ScoreOnGraph(
      const Matrix& x, const Graph& graph,
      const std::vector<double>* degree_override = nullptr) const;

  /// ScoreOnGraph's forward over the f32 kernel tier (the body of
  /// serve/F32Scorer): the same per-backbone steps, frontier and NaN rows on
  /// f32 features and `weights` from CastWeightsToF32(). The operators are
  /// normalized in double with `degrees` and cast down once.
  StatusOr<kernels::FMatrix> ScoreOnGraphF32(
      const kernels::FMatrix& x, const Graph& graph,
      const std::vector<double>& degrees, const F32Weights& weights) const;

 private:
  struct Operators;
  struct Encoder;

  Tensor Encode(const Tensor& x, bool training) const;
  Tensor SelfSupervisedLoss(const Matrix& x_features) const;

  InstanceGraphGnnOptions options_;
  mutable Rng rng_;
  Featurizer featurizer_;
  Graph graph_;
  bool graph_set_ = false;
  bool fitted_ = false;
  TaskType task_ = TaskType::kNone;

  std::unique_ptr<Encoder> encoder_;
  std::unique_ptr<Operators> operators_;
  std::unique_ptr<Linear> head_;
  std::unique_ptr<FeatureReconstructionTask> recon_;
  Matrix x_cache_;  // featurized matrix of the fitted dataset
};

}  // namespace gnn4tdl
