#include "construct/rule_based.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "common/rng.h"
#include "data/impute.h"
#include "obs/trace.h"

namespace gnn4tdl {

namespace {

/// Edge weight from a similarity value: distance-style metrics are shifted
/// into (0, 1] via exp, similarity-style metrics are clamped to >= 0.
double WeightFromSimilarity(double sim, SimilarityMetric metric) {
  switch (metric) {
    case SimilarityMetric::kEuclidean:
    case SimilarityMetric::kManhattan:
      return std::exp(sim);  // sim is a negative distance
    default:
      return std::max(sim, 1e-6);
  }
}

}  // namespace

Graph KnnGraph(const Matrix& x, const KnnGraphOptions& options) {
  const size_t n = x.rows();
  GNN4TDL_CHECK_GT(options.k, 0u);
  const size_t k = std::min(options.k, n > 0 ? n - 1 : 0);

  obs::TraceSpan span("construct/knn_graph");
  std::vector<std::vector<KnnHit>> nbrs;
  {
    obs::TraceSpan search("construct/knn_search");
    nbrs = KnnReference(x, options.metric, options.gamma)
               .TopK(x, k, /*exclude_self=*/true);
  }

  obs::TraceSpan csr("construct/knn_csr");
  // A kept pick i -> j: every pick for the union, a pick both rows made
  // (taken once, from the lower row) for mutual kNN.
  const auto kept = [&](size_t i, size_t j) {
    if (!options.mutual) return true;
    return j > i && std::any_of(nbrs[j].begin(), nbrs[j].end(),
                                [i](const KnnHit& h) { return h.index == i; });
  };
  // Each kept pick lands in both endpoint rows. Placing the picks with i
  // ascending puts a pair picked both ways in selection order (the lower
  // row's pick first) within each of its two rows.
  std::vector<size_t> row_ptr(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    for (const KnnHit& hit : nbrs[i]) {
      if (!kept(i, hit.index)) continue;
      ++row_ptr[i + 1];
      ++row_ptr[hit.index + 1];
    }
  }
  for (size_t v = 0; v < n; ++v) row_ptr[v + 1] += row_ptr[v];
  std::vector<std::pair<size_t, double>> entries(row_ptr[n]);
  std::vector<size_t> next(row_ptr.begin(), row_ptr.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    for (const KnnHit& hit : nbrs[i]) {
      const size_t j = hit.index;
      if (!kept(i, j)) continue;
      const double w =
          options.weighted ? WeightFromSimilarity(hit.similarity, options.metric)
                           : 1.0;
      entries[next[i]++] = {j, w};
      entries[next[j]++] = {i, w};
    }
  }
  // Sort each row by column and keep a pair picked both ways once, folding
  // its two weights with std::max in selection order.
  std::vector<size_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(entries.size());
  values.reserve(entries.size());
  for (size_t v = 0; v < n; ++v) {
    auto* const first = entries.data() + row_ptr[v];
    auto* const last = entries.data() + row_ptr[v + 1];
    std::stable_sort(first, last, [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    row_ptr[v] = col_idx.size();
    for (const auto* e = first; e != last; ++e) {
      if (e != first && e->first == e[-1].first) {
        values.back() = std::max(values.back(), e->second);
      } else {
        col_idx.push_back(e->first);
        values.push_back(e->second);
      }
    }
  }
  row_ptr[n] = col_idx.size();
  return Graph::FromAdjacency(SparseMatrix::FromCsr(
      n, n, std::move(row_ptr), std::move(col_idx), std::move(values)));
}

Graph ThresholdGraph(const Matrix& x, const ThresholdGraphOptions& options) {
  const size_t n = x.rows();
  std::vector<Edge> edges;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double sim = RowSimilarity(x, i, j, options.metric, options.gamma);
      if (sim >= options.threshold) {
        double w = options.weighted ? WeightFromSimilarity(sim, options.metric)
                                    : 1.0;
        edges.push_back({i, j, w});
      }
    }
  }
  return Graph::FromEdges(n, edges, /*symmetrize=*/true);
}

Graph FullyConnectedGraph(size_t num_nodes, const Matrix* x,
                          const FullyConnectedOptions& options) {
  std::vector<Edge> edges;
  edges.reserve(num_nodes * num_nodes / 2);
  for (size_t i = 0; i < num_nodes; ++i) {
    size_t j_begin = options.include_self_loops ? i : i + 1;
    for (size_t j = j_begin; j < num_nodes; ++j) {
      double w = 1.0;
      if (x != nullptr) {
        GNN4TDL_CHECK_EQ(x->rows(), num_nodes);
        w = WeightFromSimilarity(
            RowSimilarity(*x, i, j, options.metric, options.gamma),
            options.metric);
      }
      edges.push_back({i, j, w});
    }
  }
  return Graph::FromEdges(num_nodes, edges, /*symmetrize=*/true);
}

Graph SameFeatureValueGraph(const TabularDataset& data, size_t column_index,
                            size_t max_group_size, uint64_t seed) {
  const Column& col = data.column(column_index);
  GNN4TDL_CHECK_MSG(col.type == ColumnType::kCategorical,
                    "SameFeatureValueGraph requires a categorical column");
  Rng rng(seed);

  std::map<int, std::vector<size_t>> groups;
  for (size_t i = 0; i < data.NumRows(); ++i) {
    if (col.codes[i] >= 0) groups[col.codes[i]].push_back(i);
  }

  std::vector<Edge> edges;
  for (auto& [code, members] : groups) {
    (void)code;
    std::vector<size_t> group = members;
    if (max_group_size > 0 && group.size() > max_group_size) {
      rng.Shuffle(group);
      group.resize(max_group_size);
    }
    for (size_t a = 0; a < group.size(); ++a)
      for (size_t b = a + 1; b < group.size(); ++b)
        edges.push_back({group[a], group[b], 1.0});
  }
  return Graph::FromEdges(data.NumRows(), edges, /*symmetrize=*/true);
}

MultiplexGraph MultiplexFromCategoricals(const TabularDataset& data,
                                         std::vector<size_t> columns,
                                         size_t max_group_size, uint64_t seed) {
  if (columns.empty()) columns = data.ColumnsOfType(ColumnType::kCategorical);
  MultiplexGraph mg(data.NumRows());
  for (size_t c : columns) {
    mg.AddLayer(data.column(c).name,
                SameFeatureValueGraph(data, c, max_group_size, seed));
  }
  return mg;
}

Graph MissingAwareKnnGraph(const TabularDataset& data, size_t k) {
  GNN4TDL_CHECK_GT(k, 0u);
  const CoObservedDistance distance(data);
  std::vector<Edge> edges;
  for (size_t i = 0; i < data.NumRows(); ++i) {
    for (size_t j : distance.Nearest(i, k)) edges.push_back({i, j, 1.0});
  }
  return Graph::FromEdges(data.NumRows(), edges, /*symmetrize=*/true);
}

Graph FeatureCorrelationGraph(const Matrix& x, double threshold) {
  // Work on the transpose: features become rows, then Pearson row similarity
  // is exactly feature correlation.
  Matrix xt = x.Transpose();
  const size_t d = xt.rows();
  std::vector<Edge> edges;
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = a + 1; b < d; ++b) {
      double corr = RowSimilarity(xt, a, b, SimilarityMetric::kPearson);
      if (std::fabs(corr) >= threshold)
        edges.push_back({a, b, std::fabs(corr)});
    }
  }
  return Graph::FromEdges(d, edges, /*symmetrize=*/true);
}

}  // namespace gnn4tdl
