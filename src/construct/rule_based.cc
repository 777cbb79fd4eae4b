#include "construct/rule_based.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/rng.h"

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

  const std::vector<std::vector<KnnHit>> nbrs =
      KnnReference(x, options.metric, options.gamma)
          .TopK(x, k, /*exclude_self=*/true);

  // Each selected pair as (min, max), in selection order.
  std::vector<Edge> edges;
  edges.reserve(n * k);
  for (size_t i = 0; i < n; ++i) {
    for (const KnnHit& hit : nbrs[i]) {
      const size_t j = hit.index;
      if (options.mutual) {
        if (j < i) continue;  // mutual pairs added once, then symmetrized
        if (std::none_of(nbrs[j].begin(), nbrs[j].end(),
                         [i](const KnnHit& h) { return h.index == i; }))
          continue;
      }
      const double w =
          options.weighted ? WeightFromSimilarity(hit.similarity, options.metric)
                           : 1.0;
      edges.push_back({std::min(i, j), std::max(i, j), w});
    }
  }
  // Symmetrize as the union of directed edges: FromTriplets would sum the two
  // directions of a pair selected both ways, so keep each undirected pair
  // once, in ascending (min, max) order, folding a duplicate's weight in with
  // std::max in selection order.
  std::stable_sort(edges.begin(), edges.end(),
                   [](const Edge& a, const Edge& b) {
                     return a.src != b.src ? a.src < b.src : a.dst < b.dst;
                   });
  size_t kept = 0;
  for (const Edge& e : edges) {
    Edge* last = kept > 0 ? &edges[kept - 1] : nullptr;
    if (last != nullptr && last->src == e.src && last->dst == e.dst) {
      last->weight = std::max(last->weight, e.weight);
    } else {
      edges[kept++] = e;
    }
  }
  edges.resize(kept);
  return Graph::FromEdges(n, edges, /*symmetrize=*/true);
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
  const size_t n = data.NumRows();
  const size_t d = data.NumCols();

  // Per-column std over the observed values (numeric columns).
  std::vector<double> stddev(d, 1.0);
  for (size_t c = 0; c < d; ++c) {
    const Column& col = data.column(c);
    if (col.type != ColumnType::kNumerical) continue;
    double sum = 0.0, sum_sq = 0.0;
    size_t count = 0;
    for (double v : col.numeric) {
      if (std::isnan(v)) continue;
      sum += v;
      sum_sq += v * v;
      ++count;
    }
    if (count > 0) {
      double mean = sum / static_cast<double>(count);
      double var = sum_sq / static_cast<double>(count) - mean * mean;
      stddev[c] = var > 1e-12 ? std::sqrt(var) : 1.0;
    }
  }

  auto distance = [&](size_t a, size_t b) {
    double sum = 0.0;
    size_t overlap = 0;
    for (size_t c = 0; c < d; ++c) {
      const Column& col = data.column(c);
      if (col.IsMissing(a) || col.IsMissing(b)) continue;
      ++overlap;
      if (col.type == ColumnType::kNumerical) {
        double diff = (col.numeric[a] - col.numeric[b]) / stddev[c];
        sum += diff * diff;
      } else {
        sum += col.codes[a] == col.codes[b] ? 0.0 : 1.0;
      }
    }
    // Rows with no overlap are maximally distant.
    if (overlap == 0) return 1e300;
    return sum / static_cast<double>(overlap);
  };

  std::vector<Edge> edges;
  std::vector<std::pair<double, size_t>> scored;
  for (size_t i = 0; i < n; ++i) {
    scored.clear();
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      scored.push_back({distance(i, j), j});
    }
    size_t take = std::min(k, scored.size());
    std::partial_sort(scored.begin(),
                      scored.begin() + static_cast<ptrdiff_t>(take),
                      scored.end());
    for (size_t t = 0; t < take; ++t)
      edges.push_back({i, scored[t].second, 1.0});
  }
  return Graph::FromEdges(n, edges, /*symmetrize=*/true);
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
