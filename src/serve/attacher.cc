#include "serve/attacher.h"

#include <algorithm>
#include <cstddef>
#include <limits>

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

  // 2. Hop distance of each training node from the new rows: anchors are at
  // distance 1, and hops-1 further BFS levels over the training graph reach
  // everything `hops` propagation steps can read. Nodes nearer than `hops`
  // keep their adjacency rows; the outer ring at exactly `hops` is input
  // only. A full neighborhood keeps every node's row.
  constexpr size_t kFar = std::numeric_limits<size_t>::max();
  const size_t hops = options_.hops;
  std::vector<size_t> depth(n_train, options_.full_neighborhood ? 0 : kFar);
  const SparseMatrix& adj = train_graph_->adjacency();
  const std::vector<size_t>& row_ptr = adj.row_ptr();
  const std::vector<size_t>& col_idx = adj.col_idx();
  const std::vector<double>& values = adj.values();
  if (!options_.full_neighborhood) {
    std::vector<size_t> frontier;
    for (const auto& hits : anchors) {
      for (const KnnHit& h : hits) {
        if (depth[h.index] == kFar) {
          depth[h.index] = 1;
          frontier.push_back(h.index);
        }
      }
    }
    for (size_t level = 2; level <= hops && !frontier.empty(); ++level) {
      std::vector<size_t> next;
      for (size_t v : frontier) {
        for (size_t e = row_ptr[v]; e < row_ptr[v + 1]; ++e) {
          const size_t w = col_idx[e];
          if (depth[w] == kFar) {
            depth[w] = level;
            next.push_back(w);
          }
        }
      }
      frontier = std::move(next);
    }
  }

  // 3. Local ids: included training nodes in ascending original id order,
  // so CSR column order (and floating-point summation order) matches the
  // full extended graph; then the new rows.
  AttachedBatch batch;
  batch.num_new = n_new;
  std::vector<size_t> local(n_train, kFar);
  for (size_t v = 0; v < n_train; ++v) {
    if (depth[v] == kFar) continue;
    local[v] = batch.train_nodes.size();
    batch.train_nodes.push_back(v);
  }
  const size_t n_sub = batch.train_nodes.size();

  // 4. Attach edges, grouped by anchor in ascending new-row order, and the
  // extended-graph degrees: every included training node starts from its
  // full training-graph weighted degree, and attach-edge increments are
  // applied in ascending new-row order, matching the CSR column order (and
  // thus float summation order) of the full extended graph's degrees.
  batch.degrees.assign(n_sub + n_new, 0.0);
  for (size_t i = 0; i < n_sub; ++i) {
    batch.degrees[i] = full_degree_[batch.train_nodes[i]];
  }
  std::vector<size_t> attach_ptr(n_sub + 1, 0);
  for (size_t i = 0; i < n_new; ++i) {
    for (const KnnHit& h : anchors[i]) {
      ++attach_ptr[local[h.index] + 1];
      batch.degrees[local[h.index]] += 1.0;
      batch.degrees[n_sub + i] += 1.0;
    }
  }
  for (size_t a = 0; a < n_sub; ++a) attach_ptr[a + 1] += attach_ptr[a];
  std::vector<size_t> attach_new(attach_ptr[n_sub]);
  std::vector<size_t> cursor(attach_ptr.begin(), attach_ptr.end() - 1);
  for (size_t i = 0; i < n_new; ++i) {
    for (const KnnHit& h : anchors[i]) attach_new[cursor[local[h.index]]++] = i;
  }

  // 5. The batch CSR, straight from the training CSR: a training node nearer
  // than `hops` keeps its training row (original weights) followed by its
  // attach edges (weight 1.0, new rows sort after every training node); a
  // new row reads its anchors. Exactly what PredictInductive's extended
  // graph holds in those rows.
  std::vector<size_t> sub_ptr(n_sub + n_new + 1, 0);
  std::vector<size_t> sub_col;
  std::vector<double> sub_val;
  for (size_t i = 0; i < n_sub; ++i) {
    const size_t v = batch.train_nodes[i];
    if (depth[v] < hops) {
      for (size_t e = row_ptr[v]; e < row_ptr[v + 1]; ++e) {
        sub_col.push_back(local[col_idx[e]]);
        sub_val.push_back(values[e]);
      }
      for (size_t a = attach_ptr[i]; a < attach_ptr[i + 1]; ++a) {
        sub_col.push_back(n_sub + attach_new[a]);
        sub_val.push_back(1.0);
      }
    }
    sub_ptr[i + 1] = sub_col.size();
  }
  for (size_t i = 0; i < n_new; ++i) {
    const size_t begin = sub_col.size();
    for (const KnnHit& h : anchors[i]) sub_col.push_back(local[h.index]);
    std::sort(sub_col.begin() + static_cast<std::ptrdiff_t>(begin),
              sub_col.end());
    sub_val.resize(sub_col.size(), 1.0);
    sub_ptr[n_sub + i + 1] = sub_col.size();
  }
  batch.graph = Graph::FromAdjacency(SparseMatrix::FromCsr(
      n_sub + n_new, n_sub + n_new, std::move(sub_ptr), std::move(sub_col),
      std::move(sub_val)));

  if (with_features) {
    batch.features = x_train_->GatherRows(batch.train_nodes).ConcatRows(x_new);
  }
  return batch;
}

}  // namespace gnn4tdl
