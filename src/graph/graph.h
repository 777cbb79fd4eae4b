#pragma once

#include <vector>

#include "tensor/sparse.h"

namespace gnn4tdl {

/// A weighted directed edge.
struct Edge {
  size_t src;
  size_t dst;
  double weight = 1.0;
};

/// Homogeneous graph over a fixed node set (Section 2.2). Stored as a CSR
/// adjacency; provides the normalized message-passing operators the GNN
/// layers consume. Instance graphs and feature graphs (Section 4.1.1) are both
/// represented by this type.
class Graph {
 public:
  /// Empty graph with `num_nodes` isolated nodes.
  explicit Graph(size_t num_nodes = 0)
      : num_nodes_(num_nodes),
        adj_(SparseMatrix::FromTriplets(num_nodes, num_nodes, {})) {}

  /// Builds from an edge list. If `symmetrize`, each non-loop edge is also
  /// inserted reversed. The weights of coincident entries are summed, so an
  /// edge listed in both directions and symmetrized holds the sum of the two
  /// weights in both entries.
  static Graph FromEdges(size_t num_nodes, const std::vector<Edge>& edges,
                         bool symmetrize = true);

  /// Takes a square CSR adjacency as is (row v lists the nodes v reads).
  static Graph FromAdjacency(SparseMatrix adjacency);

  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return adj_.nnz(); }

  const SparseMatrix& adjacency() const { return adj_; }

  /// Out-neighbors of `v`.
  std::vector<size_t> Neighbors(size_t v) const;

  /// True if an edge src -> dst is present.
  bool HasEdge(size_t src, size_t dst) const { return adj_.At(src, dst) != 0.0; }

  /// Out-degrees (weighted = false counts edges; true sums weights).
  std::vector<double> Degrees(bool weighted = false) const;

  /// Symmetrically normalized operator with self-loops (GCN, Kipf & Welling):
  /// D^{-1/2} (A + I) D^{-1/2}.
  SparseMatrix GcnNormalized(bool add_self_loops = true) const;

  /// Row-normalized operator D^{-1} A (mean aggregation; zero-degree rows
  /// stay zero). Used by GraphSAGE-style mean aggregators.
  SparseMatrix RowNormalized() const;

  /// Edges as parallel src/dst/weight arrays (for edgewise ops like GAT).
  std::vector<Edge> EdgeList() const;

  /// Fraction of edges whose endpoints share a label — the homophily measure
  /// the survey's construction discussion revolves around (Section 4.1.2).
  double EdgeHomophily(const std::vector<int>& labels) const;

  /// Number of connected components, treating edges as undirected.
  size_t NumConnectedComponents() const;

  /// True if the adjacency equals its transpose.
  bool IsSymmetric() const;

 private:
  size_t num_nodes_;
  SparseMatrix adj_;
};

}  // namespace gnn4tdl
