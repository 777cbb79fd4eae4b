#pragma once

#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "serve/knn_index.h"
#include "tensor/matrix.h"

namespace gnn4tdl {

/// Options for InductiveAttacher.
struct InductiveAttacherOptions {
  /// Attach edges per new row (the trained model's knn.k).
  size_t k = 10;
  /// Message-passing depth of the model (effective number of propagation
  /// steps). The extracted subgraph covers every training node within `hops`
  /// hops of a new row — the exact receptive field of the new rows.
  size_t hops = 2;
  /// Include every training node, each with its full adjacency row. Required
  /// for backbones whose receptive field is global (graph transformer) or
  /// whose layers couple all rows (PairNorm). A local backbone's logits for
  /// the new rows are the same either way.
  bool full_neighborhood = false;
};

/// One micro-batch of new rows attached to the frozen training graph.
/// Node layout: the included training nodes first (in ascending original id
/// order, so CSR column order — and therefore floating-point summation order
/// — matches the full extended graph), then the new rows.
///
/// Only nodes within `hops - 1` of a new row (the new rows, the anchors and
/// the inner BFS levels) have adjacency rows, identical to their rows in the
/// full extended graph. The outer ring at exactly `hops` keeps its feature
/// row and extended-graph degree but has an empty adjacency row: it is
/// input-only, and InstanceGraphGnn::ScoreOnGraph returns NaN for it and for
/// every other node it cannot compute exactly. The new rows are always exact.
struct AttachedBatch {
  Graph graph;
  /// One feature row per subgraph node.
  Matrix features;
  /// Weighted degree of each subgraph node *in the full extended graph*
  /// (training graph + this batch's attach edges, excluding the self-loop GCN
  /// normalization adds). Passing this to InstanceGraphGnn::ScoreOnGraph as
  /// the degree override makes the exact rows bit-identical to full-graph
  /// PredictInductive.
  std::vector<double> degrees;
  /// Original training-graph ids of the included training nodes, ascending.
  std::vector<size_t> train_nodes;
  size_t num_new = 0;

  /// Local subgraph id of new row `i`.
  size_t NewNodeLocal(size_t i) const { return train_nodes.size() + i; }
};

/// Connects incoming rows to the frozen training graph for inductive
/// inference: each new row gets `k` attach edges to its nearest training
/// rows (via the prebuilt exact KnnIndex), and only the training nodes inside
/// the new rows' `hops`-hop receptive field are materialized — the irregular
/// neighborhood gather is bounded per request instead of touching the whole
/// training set. The batch CSR is built straight from the frozen training
/// CSR plus the attach edges, keeping only the rows the batch's nodes within
/// `hops - 1` read (see AttachedBatch).
///
/// The referenced graph, feature matrix, and index must outlive the attacher
/// (FrozenModel owns all three behind stable pointers).
class InductiveAttacher {
 public:
  InductiveAttacher(const Graph* train_graph, const Matrix* x_train,
                    const KnnIndex* index,
                    InductiveAttacherOptions options);

  /// Builds the attached subgraph for a batch of featurized new rows
  /// (n_new x dim). New rows attach to training rows only, never to each
  /// other, matching InstanceGraphGnn::PredictInductive semantics.
  /// With `with_features` false the double feature matrix is left empty —
  /// the f32 serving tier assembles its own single-precision copy from a
  /// pre-cast training cache instead of gathering doubles it would discard.
  [[nodiscard]] StatusOr<AttachedBatch> Attach(const Matrix& x_new,
                                               bool with_features = true) const;

  const InductiveAttacherOptions& options() const { return options_; }

 private:
  const Graph* train_graph_;
  const Matrix* x_train_;
  const KnnIndex* index_;
  InductiveAttacherOptions options_;
  /// Weighted degrees of the training graph, precomputed at build time.
  std::vector<double> full_degree_;
};

}  // namespace gnn4tdl
