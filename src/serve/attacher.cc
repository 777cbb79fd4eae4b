#include "serve/attacher.h"

#include <algorithm>
#include <unordered_map>

#include "obs/trace.h"

namespace gnn4tdl {

InductiveAttacher::InductiveAttacher(const Graph* train_graph,
                                     const Matrix* x_train,
                                     const KnnIndex* index,
                                     InductiveAttacherOptions options)
    : train_graph_(train_graph),
      x_train_(x_train),
      index_(index),
      options_(options) {
  GNN4TDL_CHECK(train_graph_ != nullptr);
  GNN4TDL_CHECK(x_train_ != nullptr);
  GNN4TDL_CHECK(index_ != nullptr);
  GNN4TDL_CHECK_EQ(train_graph_->num_nodes(), x_train_->rows());
  if (options_.k == 0) options_.k = 1;
  if (options_.hops == 0) options_.hops = 1;
  full_degree_ = train_graph_->Degrees(/*weighted=*/true);
}

StatusOr<AttachedBatch> InductiveAttacher::Attach(const Matrix& x_new,
                                                  bool with_features) const {
  obs::TraceSpan span("serve/attach");
  span.AddItems(static_cast<double>(x_new.rows()));
  const size_t n_train = x_train_->rows();
  const size_t n_new = x_new.rows();
  if (n_new == 0) {
    return Status::InvalidArgument("Attach requires at least one new row");
  }
  if (x_new.cols() != x_train_->cols()) {
    return Status::InvalidArgument(
        "Attach: new rows have " + std::to_string(x_new.cols()) +
        " features, the frozen training matrix has " +
        std::to_string(x_train_->cols()));
  }

  // 1. Anchor each new row to its k most similar training rows.
  std::vector<std::vector<KnnHit>> anchors = index_->QueryBatch(x_new,
                                                               options_.k);

  // 2. Collect the training nodes inside the new rows' receptive field:
  // anchors are at distance 1, so hops-1 further BFS levels over the training
  // graph reach everything `hops` propagation steps can read.
  std::vector<char> included(n_train, 0);
  if (options_.full_neighborhood) {
    std::fill(included.begin(), included.end(), 1);
  } else {
    std::vector<size_t> frontier;
    for (const auto& hits : anchors) {
      for (const KnnHit& h : hits) {
        if (!included[h.index]) {
          included[h.index] = 1;
          frontier.push_back(h.index);
        }
      }
    }
    const SparseMatrix& adj = train_graph_->adjacency();
    const std::vector<size_t>& row_ptr = adj.row_ptr();
    const std::vector<size_t>& col_idx = adj.col_idx();
    for (size_t level = 1; level < options_.hops && !frontier.empty();
         ++level) {
      std::vector<size_t> next;
      for (size_t v : frontier) {
        for (size_t e = row_ptr[v]; e < row_ptr[v + 1]; ++e) {
          size_t w = col_idx[e];
          if (!included[w]) {
            included[w] = 1;
            next.push_back(w);
          }
        }
      }
      frontier = std::move(next);
    }
  }

  AttachedBatch batch;
  batch.num_new = n_new;
  for (size_t v = 0; v < n_train; ++v) {
    if (included[v]) batch.train_nodes.push_back(v);
  }
  const size_t n_sub = batch.train_nodes.size();
  std::unordered_map<size_t, size_t> local;
  local.reserve(n_sub);
  for (size_t i = 0; i < n_sub; ++i) local[batch.train_nodes[i]] = i;

  // 3. Subgraph edges: training edges between included nodes (original
  // weights), plus the attach edges in both directions with weight 1.0 —
  // exactly what PredictInductive appends to the full extended graph.
  std::vector<Edge> edges;
  const SparseMatrix& adj = train_graph_->adjacency();
  const std::vector<size_t>& row_ptr = adj.row_ptr();
  const std::vector<size_t>& col_idx = adj.col_idx();
  const std::vector<double>& values = adj.values();
  for (size_t i = 0; i < n_sub; ++i) {
    size_t v = batch.train_nodes[i];
    for (size_t e = row_ptr[v]; e < row_ptr[v + 1]; ++e) {
      auto it = local.find(col_idx[e]);
      if (it != local.end()) edges.push_back({i, it->second, values[e]});
    }
  }

  // 4. Extended-graph degrees. Included training nodes start from their full
  // training-graph weighted degree (frontier nodes keep correct degrees even
  // though some of their in-subgraph edges are truncated — their aggregated
  // values are never consumed, only their normalization-relevant degree is).
  // Attach-edge increments are applied in ascending new-row order, matching
  // the CSR column order — and thus float summation order — of the full
  // extended graph's degree computation.
  batch.degrees.assign(n_sub + n_new, 0.0);
  for (size_t i = 0; i < n_sub; ++i) {
    batch.degrees[i] = full_degree_[batch.train_nodes[i]];
  }
  for (size_t i = 0; i < n_new; ++i) {
    size_t new_local = n_sub + i;
    for (const KnnHit& h : anchors[i]) {
      size_t anchor_local = local.at(h.index);
      edges.push_back({new_local, anchor_local, 1.0});
      edges.push_back({anchor_local, new_local, 1.0});
      batch.degrees[anchor_local] += 1.0;
      batch.degrees[new_local] += 1.0;
    }
  }

  batch.graph = Graph::FromEdges(n_sub + n_new, edges, /*symmetrize=*/false);
  if (with_features) {
    batch.features = x_train_->GatherRows(batch.train_nodes).ConcatRows(x_new);
  }
  return batch;
}

}  // namespace gnn4tdl
