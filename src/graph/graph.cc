#include "graph/graph.h"

#include <cmath>
#include <utility>

#include "common/check.h"

namespace gnn4tdl {

Graph Graph::FromEdges(size_t num_nodes, const std::vector<Edge>& edges,
                       bool symmetrize) {
  std::vector<Triplet> triplets;
  triplets.reserve(edges.size() * (symmetrize ? 2 : 1));
  for (const Edge& e : edges) {
    GNN4TDL_CHECK_LT(e.src, num_nodes);
    GNN4TDL_CHECK_LT(e.dst, num_nodes);
    triplets.push_back({e.src, e.dst, e.weight});
    if (symmetrize && e.src != e.dst)
      triplets.push_back({e.dst, e.src, e.weight});
  }
  Graph g(num_nodes);
  g.adj_ = SparseMatrix::FromTriplets(num_nodes, num_nodes, std::move(triplets));
  return g;
}

Graph Graph::FromAdjacency(SparseMatrix adjacency) {
  GNN4TDL_CHECK_EQ(adjacency.rows(), adjacency.cols());
  Graph g(0);
  g.num_nodes_ = adjacency.rows();
  g.adj_ = std::move(adjacency);
  return g;
}

std::vector<size_t> Graph::Neighbors(size_t v) const {
  GNN4TDL_CHECK_LT(v, num_nodes_);
  std::vector<size_t> out;
  for (size_t k = adj_.row_ptr()[v]; k < adj_.row_ptr()[v + 1]; ++k)
    out.push_back(adj_.col_idx()[k]);
  return out;
}

std::vector<double> Graph::Degrees(bool weighted) const {
  std::vector<double> deg(num_nodes_, 0.0);
  for (size_t v = 0; v < num_nodes_; ++v) {
    for (size_t k = adj_.row_ptr()[v]; k < adj_.row_ptr()[v + 1]; ++k)
      deg[v] += weighted ? adj_.values()[k] : 1.0;
  }
  return deg;
}

SparseMatrix Graph::GcnNormalized(bool add_self_loops) const {
  std::vector<Triplet> triplets;
  triplets.reserve(adj_.nnz() + (add_self_loops ? num_nodes_ : 0));
  for (size_t v = 0; v < num_nodes_; ++v)
    for (size_t k = adj_.row_ptr()[v]; k < adj_.row_ptr()[v + 1]; ++k)
      triplets.push_back({v, adj_.col_idx()[k], adj_.values()[k]});
  if (add_self_loops)
    for (size_t v = 0; v < num_nodes_; ++v) triplets.push_back({v, v, 1.0});

  // Weighted degree of A (+I).
  std::vector<double> deg(num_nodes_, 0.0);
  for (const Triplet& t : triplets) deg[t.row] += t.value;

  for (Triplet& t : triplets) {
    double ds = deg[t.row] > 0 ? std::sqrt(deg[t.row]) : 1.0;
    double dd = deg[t.col] > 0 ? std::sqrt(deg[t.col]) : 1.0;
    t.value /= ds * dd;
  }
  return SparseMatrix::FromTriplets(num_nodes_, num_nodes_, std::move(triplets));
}

SparseMatrix Graph::RowNormalized() const {
  std::vector<double> deg = Degrees(/*weighted=*/true);
  std::vector<Triplet> triplets;
  triplets.reserve(adj_.nnz());
  for (size_t v = 0; v < num_nodes_; ++v) {
    if (deg[v] == 0.0) continue;
    for (size_t k = adj_.row_ptr()[v]; k < adj_.row_ptr()[v + 1]; ++k)
      triplets.push_back({v, adj_.col_idx()[k], adj_.values()[k] / deg[v]});
  }
  return SparseMatrix::FromTriplets(num_nodes_, num_nodes_, std::move(triplets));
}

std::vector<Edge> Graph::EdgeList() const {
  std::vector<Edge> edges;
  edges.reserve(adj_.nnz());
  for (size_t v = 0; v < num_nodes_; ++v)
    for (size_t k = adj_.row_ptr()[v]; k < adj_.row_ptr()[v + 1]; ++k)
      edges.push_back({v, adj_.col_idx()[k], adj_.values()[k]});
  return edges;
}

double Graph::EdgeHomophily(const std::vector<int>& labels) const {
  GNN4TDL_CHECK_EQ(labels.size(), num_nodes_);
  if (adj_.nnz() == 0) return 0.0;
  size_t same = 0, total = 0;
  for (size_t v = 0; v < num_nodes_; ++v)
    for (size_t k = adj_.row_ptr()[v]; k < adj_.row_ptr()[v + 1]; ++k) {
      size_t u = adj_.col_idx()[k];
      if (u == v) continue;  // self-loops carry no homophily information
      ++total;
      if (labels[v] == labels[u]) ++same;
    }
  return total > 0 ? static_cast<double>(same) / static_cast<double>(total)
                   : 0.0;
}

size_t Graph::NumConnectedComponents() const {
  std::vector<int> comp(num_nodes_, -1);
  // Build an undirected view by walking both directions (CSR is out-edges; we
  // also need in-edges, so precompute the transpose).
  SparseMatrix tr = adj_.Transpose();
  size_t count = 0;
  std::vector<size_t> stack;
  for (size_t s = 0; s < num_nodes_; ++s) {
    if (comp[s] >= 0) continue;
    comp[s] = static_cast<int>(count);
    stack.push_back(s);
    while (!stack.empty()) {
      size_t v = stack.back();
      stack.pop_back();
      for (size_t k = adj_.row_ptr()[v]; k < adj_.row_ptr()[v + 1]; ++k) {
        size_t u = adj_.col_idx()[k];
        if (comp[u] < 0) {
          comp[u] = static_cast<int>(count);
          stack.push_back(u);
        }
      }
      for (size_t k = tr.row_ptr()[v]; k < tr.row_ptr()[v + 1]; ++k) {
        size_t u = tr.col_idx()[k];
        if (comp[u] < 0) {
          comp[u] = static_cast<int>(count);
          stack.push_back(u);
        }
      }
    }
    ++count;
  }
  return count;
}

bool Graph::IsSymmetric() const {
  SparseMatrix tr = adj_.Transpose();
  if (tr.nnz() != adj_.nnz()) return false;
  for (size_t v = 0; v < num_nodes_; ++v) {
    for (size_t k = adj_.row_ptr()[v]; k < adj_.row_ptr()[v + 1]; ++k) {
      if (std::fabs(adj_.values()[k] -
                    tr.At(v, adj_.col_idx()[k])) > 1e-12)
        return false;
    }
  }
  return true;
}

}  // namespace gnn4tdl
