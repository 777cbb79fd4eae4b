// Tests for src/serve: KnnIndex, InductiveAttacher, FrozenModel artifacts,
// and micro-batched serving through ModelRegistry + MultiTenantEngine. The
// load-bearing claims: frozen subgraph scoring is bit-exact with full-graph
// PredictInductive for every served configuration, and the artifact
// round-trips through a file into a fresh process.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iterator>
#include <limits>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "construct/rule_based.h"
#include "construct/similarity.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "models/knn_gnn.h"
#include "serve/attacher.h"
#include "serve/frozen_model.h"
#include "serve/knn_index.h"
#include "serve/registry.h"
#include "serve/tenant_engine.h"
#include "served_configs.h"

namespace gnn4tdl {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Matrix RandomFeatures(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  return Matrix::Randn(n, d, rng);
}

/// The oracle: every reference row but `exclude` scored with
/// construct/similarity RowSimilarity (query stacked as row 0), then a stable
/// sort by similarity descending with NaN after every number, so exact ties
/// and NaNs keep ascending reference index.
std::vector<KnnHit> BruteForceKnn(const Matrix& reference, const double* query,
                                  size_t k, SimilarityMetric metric,
                                  double gamma,
                                  size_t exclude = static_cast<size_t>(-1)) {
  Matrix stacked(2, reference.cols());
  std::copy(query, query + reference.cols(), stacked.row_data(0));
  std::vector<KnnHit> scored;
  for (size_t j = 0; j < reference.rows(); ++j) {
    if (j == exclude) continue;
    std::copy(reference.row_data(j), reference.row_data(j) + reference.cols(),
              stacked.row_data(1));
    scored.push_back({j, RowSimilarity(stacked, 0, 1, metric, gamma)});
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const KnnHit& a, const KnnHit& b) {
                     if (std::isnan(a.similarity)) return false;
                     return std::isnan(b.similarity) ||
                            a.similarity > b.similarity;
                   });
  scored.resize(std::min(k, scored.size()));
  return scored;
}

/// Same indices and same similarity bits, rank by rank.
void ExpectSameHits(const std::vector<KnnHit>& hits,
                    const std::vector<KnnHit>& expected,
                    const std::string& where) {
  ASSERT_EQ(hits.size(), expected.size()) << where;
  for (size_t t = 0; t < hits.size(); ++t) {
    EXPECT_EQ(hits[t].index, expected[t].index) << where << " rank " << t;
    EXPECT_EQ(std::memcmp(&hits[t].similarity, &expected[t].similarity,
                          sizeof(double)),
              0)
        << where << " rank " << t << ": " << hits[t].similarity << " vs "
        << expected[t].similarity;
  }
}

constexpr SimilarityMetric kAllMetrics[] = {
    SimilarityMetric::kEuclidean, SimilarityMetric::kManhattan,
    SimilarityMetric::kCosine,    SimilarityMetric::kRbf,
    SimilarityMetric::kPearson,   SimilarityMetric::kInnerProduct};

/// `distinct` random rows, each stored three times (interleaved, so copies
/// are far apart in index order), then `grid` rows drawn from {-1, 0, 1}:
/// duplicate rows and small-integer coordinates make exact similarity ties
/// common under every metric.
Matrix TieHeavyReference(size_t distinct, size_t grid, size_t d,
                         uint64_t seed) {
  Rng rng(seed);
  Matrix base = Matrix::Randn(distinct, d, rng);
  Matrix out(3 * distinct + grid, d);
  for (size_t copy = 0; copy < 3; ++copy) {
    for (size_t r = 0; r < distinct; ++r) {
      std::copy(base.row_data(r), base.row_data(r) + d,
                out.row_data(copy * distinct + r));
    }
  }
  for (size_t r = 3 * distinct; r < out.rows(); ++r) {
    for (size_t c = 0; c < d; ++c) {
      out(r, c) = static_cast<double>(rng.Int(-1, 1));
    }
  }
  return out;
}

/// 81 random rows with NaN and +-Inf coordinates in its first (NaN), a
/// middle (+Inf) and its last (-Inf) rows.
Matrix NonFiniteReference(size_t d) {
  Matrix x = RandomFeatures(81, d, 31);
  x(0, 2) = std::numeric_limits<double>::quiet_NaN();
  x(41, 0) = std::numeric_limits<double>::infinity();
  x(80, d - 1) = -std::numeric_limits<double>::infinity();
  return x;
}

TEST(KnnIndexTest, ExactModeMatchesBruteForce) {
  const size_t d = 6;
  // Reference sizes on both sides of the 4-row lane blocks (1, 2, 3, 5, 81
  // and 101 leave a partial last block), the tie-heavy table, and a table
  // with NaN and +-Inf coordinates in its first, a middle and its last rows.
  const Matrix tie_reference = TieHeavyReference(20, 40, d, 13);
  std::vector<std::pair<std::string, Matrix>> references;
  for (size_t n : {1u, 2u, 3u, 5u, 80u, 81u, 101u}) {
    references.push_back(
        {"random" + std::to_string(n), RandomFeatures(n, d, 5 + n)});
  }
  references.push_back({"ties", tie_reference});
  references.push_back({"non_finite", NonFiniteReference(d)});

  // Random queries, copies of duplicated rows, and grid rows.
  Matrix queries = RandomFeatures(6, d, 9);
  queries = queries.ConcatRows(tie_reference.GatherRows({0, 7, 19, 41, 60}));
  Matrix grid_queries(4, d);
  Rng rng(23);
  for (size_t i = 0; i < grid_queries.size(); ++i)
    grid_queries.data()[i] = static_cast<double>(rng.Int(-1, 1));
  queries = queries.ConcatRows(grid_queries);

  for (const auto& [name, reference] : references) {
    const size_t n = reference.rows();
    for (SimilarityMetric metric : kAllMetrics) {
      StatusOr<KnnIndex> index = KnnIndex::Build(reference, metric, 0.5);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      const KnnReference packed(reference, metric, 0.5);
      for (size_t k : {size_t{1}, size_t{7}, size_t{12}, n, n + 3}) {
        const std::string where = name + " " + SimilarityMetricName(metric) +
                                  " k " + std::to_string(k);
        std::vector<std::vector<KnnHit>> batch = index->QueryBatch(queries, k);
        ASSERT_EQ(batch.size(), queries.rows());
        for (size_t q = 0; q < queries.rows(); ++q) {
          ExpectSameHits(
              batch[q],
              BruteForceKnn(reference, queries.row_data(q), k, metric, 0.5),
              where + " query " + std::to_string(q));
        }
        // The table against itself, each row excluded from its own answer:
        // covers exclusion at the first, last and tail-block rows.
        std::vector<std::vector<KnnHit>> self =
            packed.TopK(reference, k, /*exclude_self=*/true);
        ASSERT_EQ(self.size(), n);
        for (size_t i = 0; i < n; ++i) {
          ExpectSameHits(self[i],
                         BruteForceKnn(reference, reference.row_data(i), k,
                                       metric, 0.5, /*exclude=*/i),
                         where + " self " + std::to_string(i));
        }
      }
    }
  }
}

TEST(KnnIndexTest, QueryOrdersBestFirstAndClampsK) {
  Matrix reference = RandomFeatures(20, 4, 11);
  StatusOr<KnnIndex> index =
      KnnIndex::Build(reference, SimilarityMetric::kEuclidean);
  ASSERT_TRUE(index.ok());
  std::vector<KnnHit> hits = index->Query(reference.row_data(3), 100);
  EXPECT_EQ(hits.size(), reference.rows());  // k clamps to n
  EXPECT_EQ(hits[0].index, 3u);              // a row is its own best match
  for (size_t t = 1; t < hits.size(); ++t)
    EXPECT_GE(hits[t - 1].similarity, hits[t].similarity);
  EXPECT_EQ(index->Query(reference.row_data(3), 0).size(), 1u);  // k >= 1
}

TEST(KnnIndexTest, NanSimilaritiesRankLastInIndexOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(BetterHit({5, 1.0}, {0, nan}));
  EXPECT_FALSE(BetterHit({0, nan}, {5, 1.0}));
  EXPECT_TRUE(BetterHit({0, nan}, {5, nan}));
  EXPECT_FALSE(BetterHit({5, nan}, {0, nan}));
  EXPECT_TRUE(BetterHit({2, 0.5}, {3, 0.5}));

  // A NaN query makes every similarity NaN; the anchors are still a
  // deterministic answer (the lowest indices), not heap order.
  Matrix reference = RandomFeatures(30, 4, 17);
  Matrix query(1, 4);
  query(0, 2) = nan;
  std::vector<KnnHit> hits =
      KnnReference(reference, SimilarityMetric::kEuclidean).TopK(query, 5)[0];
  ASSERT_EQ(hits.size(), 5u);
  for (size_t t = 0; t < hits.size(); ++t) {
    EXPECT_EQ(hits[t].index, t);
    EXPECT_TRUE(std::isnan(hits[t].similarity));
  }
}

TEST(KnnIndexTest, ExactTopKExcludesOneRow) {
  Matrix reference = TieHeavyReference(10, 0, 3, 29);
  std::vector<KnnHit> hits =
      KnnReference(reference, SimilarityMetric::kEuclidean)
          .TopK(reference, 3, /*exclude_self=*/true)[4];
  // Row 4's two copies (14, 24) tie at distance 0; the excluded row itself
  // never appears.
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].index, 14u);
  EXPECT_EQ(hits[1].index, 24u);
  EXPECT_NE(hits[2].index, 4u);
}

/// KnnGraph's rules applied to BruteForceKnn neighbor lists, symmetrized
/// through a std::map keyed by (min, max) that keeps the larger weight.
Graph OracleKnnGraph(const Matrix& x, const KnnGraphOptions& options) {
  const size_t n = x.rows();
  const size_t k = std::min(options.k, n - 1);
  std::vector<std::vector<KnnHit>> nbrs(n);
  for (size_t i = 0; i < n; ++i) {
    nbrs[i] = BruteForceKnn(x, x.row_data(i), k, options.metric, options.gamma,
                            /*exclude=*/i);
  }
  std::map<std::pair<size_t, size_t>, double> undirected;
  for (size_t i = 0; i < n; ++i) {
    for (const KnnHit& hit : nbrs[i]) {
      const size_t j = hit.index;
      const bool mutual =
          std::any_of(nbrs[j].begin(), nbrs[j].end(),
                      [i](const KnnHit& h) { return h.index == i; });
      if (options.mutual && (!mutual || j < i)) continue;
      double w = 1.0;
      if (options.weighted) {
        const bool distance = options.metric == SimilarityMetric::kEuclidean ||
                              options.metric == SimilarityMetric::kManhattan;
        w = distance ? std::exp(hit.similarity)
                     : std::max(hit.similarity, 1e-6);
      }
      auto [it, inserted] = undirected.emplace(std::minmax(i, j), w);
      if (!inserted) it->second = std::max(it->second, w);
    }
  }
  std::vector<Edge> edges;
  for (const auto& [key, w] : undirected)
    edges.push_back({key.first, key.second, w});
  return Graph::FromEdges(n, edges, /*symmetrize=*/true);
}

/// `x` with a NaN in row 1, column 2 whose payload differs from the
/// quiet_NaN() in row 0.
Matrix TwoNanPayloads(Matrix x) {
  x(1, 2) = std::bit_cast<double>(uint64_t{0x7ff8000000000123});
  return x;
}

TEST(KnnGraphTest, MatchesBruteForceOracleBitForBit) {
  struct Table {
    std::string name;
    Matrix x;
    std::vector<size_t> ks;
    std::vector<SimilarityMetric> metrics = {std::begin(kAllMetrics),
                                             std::end(kAllMetrics)};
  };
  const Table tables[] = {
      // 61 rows (a partial last lane block), with duplicated rows for ties.
      {"ties",
       RandomFeatures(25, 5, 41).ConcatRows(TieHeavyReference(8, 12, 5, 43)),
       {6}},
      // NaN and +-Inf cells; at k = 41 the all-NaN rows pick each other.
      {"non_finite", NonFiniteReference(5), {6, 41}},
      // NaN weights pin the order of the std::max fold. A pair scores the
      // same bits both ways unless two NaNs meet, so row 1 gets a NaN with
      // another payload in row 0's NaN column: rows 0 and 1 pick each other,
      // and a - b makes each direction carry its query's payload into the
      // fold. Only the difference-based metrics: a product's NaN operand
      // order is the compiler's choice.
      {"nan_payloads",
       TwoNanPayloads(NonFiniteReference(5)),
       {6},
       {SimilarityMetric::kEuclidean, SimilarityMetric::kManhattan,
        SimilarityMetric::kRbf}},
      // k >= n - 1: every row picks every other, so every pair is picked
      // both ways.
      {"complete", RandomFeatures(7, 5, 47), {6, 9}},
  };
  for (const Table& table : tables) {
    for (size_t k : table.ks) {
      for (SimilarityMetric metric : table.metrics) {
        for (bool mutual : {false, true}) {
          for (bool weighted : {false, true}) {
            KnnGraphOptions options;
            options.k = k;
            options.metric = metric;
            options.gamma = 0.5;
            options.mutual = mutual;
            options.weighted = weighted;
            const std::vector<Edge> got = KnnGraph(table.x, options).EdgeList();
            const std::vector<Edge> want =
                OracleKnnGraph(table.x, options).EdgeList();
            const std::string where =
                table.name + " k " + std::to_string(k) + " " +
                SimilarityMetricName(metric) +
                (mutual ? " mutual" : " union") +
                (weighted ? " weighted" : " unweighted");
            ASSERT_EQ(got.size(), want.size()) << where;
            ASSERT_GT(got.size(), 0u) << where;
            for (size_t e = 0; e < got.size(); ++e) {
              EXPECT_EQ(got[e].src, want[e].src) << where << " edge " << e;
              EXPECT_EQ(got[e].dst, want[e].dst) << where << " edge " << e;
              EXPECT_EQ(std::memcmp(&got[e].weight, &want[e].weight,
                                    sizeof(double)),
                        0)
                  << where << " edge " << e;
            }
          }
        }
      }
    }
  }
}

TEST(KnnIndexTest, RejectsEmptyReference) {
  StatusOr<KnnIndex> index =
      KnnIndex::Build(Matrix(), SimilarityMetric::kEuclidean);
  EXPECT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);
}

class ServeModelTest : public ::testing::Test {
 protected:
  static InstanceGraphGnnOptions Options(GnnBackbone backbone) {
    InstanceGraphGnnOptions options;
    options.backbone = backbone;
    options.hidden_dim = 16;
    options.num_layers = 2;
    options.knn.k = 8;
    options.train.max_epochs = 30;
    options.seed = 3;
    return options;
  }

  static TabularDataset TrainData() {
    return MakeClusters({.num_rows = 200,
                         .num_classes = 3,
                         .dim_informative = 6,
                         .dim_noise = 2,
                         .seed = 7});
  }

  static TabularDataset FreshRows(size_t n) {
    return MakeClusters({.num_rows = n,
                         .num_classes = 3,
                         .dim_informative = 6,
                         .dim_noise = 2,
                         .seed = 91});
  }

  static Split TrainSplit(const TabularDataset& data) {
    Rng rng(17);
    return StratifiedSplit(data.class_labels(), 0.7, 0.15, rng);
  }
};

class ServedBitExactTest : public ServeModelTest,
                           public ::testing::WithParamInterface<ServedConfig> {
};

TEST_P(ServedBitExactTest, MatchesPredictInductive) {
  TabularDataset data = TrainData();
  InstanceGraphGnnOptions options = Options(GnnBackbone::kGcn);
  ApplyServedConfig(GetParam(), &options);
  InstanceGraphGnn model(options);
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());

  TabularDataset fresh = FreshRows(12);
  StatusOr<Matrix> reference = model.PredictInductive(fresh);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();

  const uint64_t tensors_before = Tensor::NodesCreated();
  StatusOr<Matrix> served = frozen->Score(fresh);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  // The k-hop subgraph forward pass must reproduce the full extended-graph
  // floating-point arithmetic exactly, through the artifact round trip, and
  // without the autograd tape PredictInductive records.
  EXPECT_TRUE(served->AllClose(*reference, 0.0));
  EXPECT_EQ(Tensor::NodesCreated(), tensors_before);

  if (GetParam() != ServedConfig::kGcn) return;
  // The attacher genuinely prunes: the 2-hop receptive field of 12 rows in a
  // k=8 graph of 200 nodes stays a strict subgraph.
  StatusOr<Matrix> x = frozen->Featurize(fresh);
  ASSERT_TRUE(x.ok());
  StatusOr<AttachedBatch> batch = frozen->attacher().Attach(*x);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_new, 12u);
  EXPECT_EQ(batch->graph.num_nodes(), batch->train_nodes.size() + 12);
  EXPECT_EQ(batch->degrees.size(), batch->graph.num_nodes());
}

INSTANTIATE_TEST_SUITE_P(Configs, ServedBitExactTest,
                         ::testing::ValuesIn(AllServedConfigs()),
                         [](const auto& info) {
                           return ServedConfigName(info.param);
                         });

TEST_F(ServeModelTest, SingleRowScoringIsDeterministic) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact);
  ASSERT_TRUE(frozen.ok());

  TabularDataset fresh = FreshRows(6);
  StatusOr<Matrix> x = frozen->Featurize(fresh);
  ASSERT_TRUE(x.ok());
  for (size_t i = 0; i < x->rows(); ++i) {
    Matrix row(1, x->cols());
    std::copy(x->row_data(i), x->row_data(i) + x->cols(), row.row_data(0));
    StatusOr<Matrix> first = frozen->ScoreFeatures(row);
    StatusOr<Matrix> second = frozen->ScoreFeatures(row);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(first->AllClose(*second, 0.0));
  }
}

// Copies the listed rows (in order) into a new dataset, labels included.
TabularDataset SubsetRows(const TabularDataset& data,
                          const std::vector<size_t>& rows) {
  TabularDataset out(rows.size());
  for (size_t c = 0; c < data.NumCols(); ++c) {
    const Column& col = data.column(c);
    if (col.type == ColumnType::kNumerical) {
      std::vector<double> values;
      values.reserve(rows.size());
      for (size_t r : rows) values.push_back(col.numeric[r]);
      EXPECT_TRUE(out.AddNumericColumn(col.name, std::move(values)).ok());
    } else {
      std::vector<int> codes;
      codes.reserve(rows.size());
      for (size_t r : rows) codes.push_back(col.codes[r]);
      EXPECT_TRUE(
          out.AddCategoricalColumn(col.name, std::move(codes), col.categories)
              .ok());
    }
  }
  std::vector<int> labels;
  labels.reserve(rows.size());
  for (size_t r : rows) labels.push_back(data.class_labels()[r]);
  EXPECT_TRUE(
      out.SetClassLabels(std::move(labels), data.num_classes(), data.task())
          .ok());
  return out;
}

TEST_F(ServeModelTest, FrozenAccuracyWithinNoiseOfTransductive) {
  // The acceptance check: fit on a training subset, freeze, reload, score
  // genuinely held-out rows of the same table; accuracy must be in the same
  // band as the transductive full-graph Predict on the train split.
  for (GnnBackbone backbone : {GnnBackbone::kGcn, GnnBackbone::kSage}) {
    TabularDataset full = MakeClusters({.num_rows = 300,
                                        .num_classes = 3,
                                        .dim_informative = 6,
                                        .dim_noise = 2,
                                        .seed = 7});
    Rng perm_rng(5);
    std::vector<size_t> perm = perm_rng.Permutation(full.NumRows());
    std::vector<size_t> train_rows(perm.begin(), perm.begin() + 200);
    std::vector<size_t> heldout_rows(perm.begin() + 200, perm.end());
    TabularDataset data = SubsetRows(full, train_rows);
    TabularDataset heldout = SubsetRows(full, heldout_rows);

    Split split = TrainSplit(data);
    InstanceGraphGnnOptions options = Options(backbone);
    options.train.max_epochs = 60;
    InstanceGraphGnn model(options);
    ASSERT_TRUE(model.Fit(data, split).ok());

    StatusOr<Matrix> transductive = model.Predict(data);
    ASSERT_TRUE(transductive.ok());
    size_t correct = 0;
    for (size_t i : split.test) {
      if (static_cast<int>(transductive->ArgMaxRow(i)) ==
          data.class_labels()[i])
        ++correct;
    }
    double transductive_acc =
        static_cast<double>(correct) / static_cast<double>(split.test.size());

    std::string path = TempPath(std::string("frozen_acc_") +
                                GnnBackboneName(backbone) + ".gnn4tdl");
    ASSERT_TRUE(FrozenModel::Save(model, path).ok());
    StatusOr<FrozenModel> frozen = FrozenModel::Load(path);
    ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();

    StatusOr<Matrix> served = frozen->Score(heldout);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    correct = 0;
    for (size_t i = 0; i < served->rows(); ++i) {
      if (static_cast<int>(served->ArgMaxRow(i)) == heldout.class_labels()[i])
        ++correct;
    }
    double frozen_acc =
        static_cast<double>(correct) / static_cast<double>(served->rows());

    EXPECT_GT(transductive_acc, 0.7) << GnnBackboneName(backbone);
    EXPECT_GT(frozen_acc, 0.7) << GnnBackboneName(backbone);
    EXPECT_NEAR(frozen_acc, transductive_acc, 0.15)
        << GnnBackboneName(backbone);
    std::remove(path.c_str());
  }
}

TEST_F(ServeModelTest, DuplicateTrainingRowsServeBitExactWithPredictInductive) {
  // Every training row stored three times and k = 4: each request's anchor
  // set ends inside a block of exactly tied similarities, so serving and
  // PredictInductive agree only if both break ties the same way.
  TabularDataset base = MakeClusters({.num_rows = 60,
                                      .num_classes = 3,
                                      .dim_informative = 6,
                                      .dim_noise = 2,
                                      .seed = 7});
  std::vector<size_t> rows;
  for (size_t copy = 0; copy < 3; ++copy)
    for (size_t r = 0; r < base.NumRows(); ++r) rows.push_back(r);
  TabularDataset data = SubsetRows(base, rows);

  InstanceGraphGnnOptions options = Options(GnnBackbone::kGcn);
  options.knn.k = 4;
  InstanceGraphGnn model(options);
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  FrozenModelOptions f64;
  f64.precision = kernels::Precision::kF64;
  StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact, f64);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();

  TabularDataset fresh = FreshRows(20);
  for (size_t i = 0; i < fresh.NumRows(); ++i) {
    TabularDataset one = SubsetRows(fresh, {i});
    StatusOr<Matrix> want = model.PredictInductive(one);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    StatusOr<Matrix> got = frozen->Score(one);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), want->size());
    EXPECT_EQ(std::memcmp(got->data(), want->data(),
                          want->size() * sizeof(double)),
              0)
        << "request " << i;
  }
}

TEST_F(ServeModelTest, ScoreFeaturesRejectsNonFiniteFeatures) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact);
  ASSERT_TRUE(frozen.ok());
  StatusOr<Matrix> x = frozen->Featurize(FreshRows(3));
  ASSERT_TRUE(x.ok());
  ASSERT_TRUE(frozen->ScoreFeatures(*x).ok());

  // A NaN used to score "ok" against arbitrary anchors, and an Inf used to
  // come back as logit inf. Both are caller errors now.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Matrix poisoned = *x;
    poisoned(1, 2) = bad;
    StatusOr<Matrix> scored = frozen->ScoreFeatures(poisoned);
    ASSERT_FALSE(scored.ok()) << bad;
    EXPECT_EQ(scored.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST_F(ServeModelTest, LoadRejectsInflatedFeatureHeader) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  const std::string text = artifact.str();
  const std::regex header("\\nfeatures [0-9]+ [0-9]+\\n");
  ASSERT_TRUE(std::regex_search(text, header));

  // Used to allocate 4e9 x 46 doubles and die on std::bad_alloc.
  for (const char* inflated :
       {"\nfeatures 4000000000 46\n", "\nfeatures 140 4000000000\n"}) {
    std::istringstream in(std::regex_replace(
        text, header, inflated, std::regex_constants::format_first_only));
    StatusOr<FrozenModel> frozen = FrozenModel::Load(in);
    ASSERT_FALSE(frozen.ok()) << inflated;
    EXPECT_EQ(frozen.status().code(), StatusCode::kIoError) << inflated;
  }
}

// Replaces the line that starts `at` in `text` with `line`.
std::string ReplaceLine(const std::string& text, size_t at,
                        const std::string& line) {
  std::string out = text;
  out.replace(at, text.find('\n', at) - at, line);
  return out;
}

void ExpectLoadIoError(const std::string& artifact) {
  std::istringstream in(artifact);
  StatusOr<FrozenModel> frozen = FrozenModel::Load(in);
  ASSERT_FALSE(frozen.ok());
  EXPECT_EQ(frozen.status().code(), StatusCode::kIoError)
      << frozen.status().ToString();
}

TEST_F(ServeModelTest, LoadRejectsInflatedEdgeListHeader) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  const std::string text = artifact.str();
  const size_t at = text.find("# gnn4tdl-edgelist ");
  ASSERT_NE(at, std::string::npos);
  const std::string edges = std::to_string(model.graph().num_edges());

  // Used to abort with std::length_error inside Graph::FromEdges.
  for (const char* nodes : {"1152921504606846976", "4000000000"}) {
    SCOPED_TRACE(nodes);
    ExpectLoadIoError(ReplaceLine(
        text, at, std::string("# gnn4tdl-edgelist ") + nodes + " " + edges));
  }
}

TEST_F(ServeModelTest, LoadRejectsInflatedModelSizeFields) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  const std::string text = artifact.str();

  // hidden_dim and num_outputs of 4e9 used to abort on std::bad_alloc, and
  // num_layers of 4e9 ran for longer than 20 s. hidden_dim 1000 passes each
  // field's own bound, but its 1000 x 1000 second layer does not fit the
  // parameter block either.
  const std::pair<std::string, std::string> cases[] = {
      {"num_outputs", "4000000000"}, {"hidden_dim", "4000000000"},
      {"num_layers", "4000000000"},  {"gat_heads", "4000000000"},
      {"appnp_steps", "4000000000"}, {"hidden_dim", "1000"}};
  for (const auto& [field, value] : cases) {
    const size_t at = text.find("\n" + field + " ");
    ASSERT_NE(at, std::string::npos) << field;
    SCOPED_TRACE(field + " " + value);
    ExpectLoadIoError(ReplaceLine(text, at + 1, field + " " + value));
  }
}

TEST_F(ServeModelTest, LoadRejectsGatHeadsThatDoNotDivideHiddenDim) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGat));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  const std::string text = artifact.str();
  const size_t at = text.find("\ngat_heads ");
  ASSERT_NE(at, std::string::npos);
  // Both used to fail GatLayer's CHECKs and abort.
  for (const char* heads : {"0", "3"}) {
    SCOPED_TRACE(heads);
    ExpectLoadIoError(ReplaceLine(text, at + 1, std::string("gat_heads ") +
                                                    heads));
  }
}

TEST_F(ServeModelTest, LoadRejectsInflatedFeaturizerHeader) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  const std::string text = artifact.str();
  // The featurizer block opens with its magic line and its options line,
  // then "<source columns> <output columns>".
  size_t at = text.find("gnn4tdl-featurizer");
  ASSERT_NE(at, std::string::npos);
  at = text.find('\n', text.find('\n', at) + 1) + 1;
  const std::string source_cols = std::to_string(data.NumCols());
  const std::string output_cols =
      std::to_string(model.featurizer().OutputDim());
  ASSERT_EQ(text.substr(at, text.find('\n', at) - at),
            source_cols + " " + output_cols);

  // Used to abort in Featurizer::Load's resize.
  const std::string huge = "1152921504606846976";
  ExpectLoadIoError(ReplaceLine(text, at, source_cols + " " + huge));
  ExpectLoadIoError(ReplaceLine(text, at, huge + " " + output_cols));
}

// The 1-based line of `text` that holds byte `at`.
size_t LineOf(const std::string& text, size_t at) {
  return 1 + static_cast<size_t>(
                 std::count(text.begin(), text.begin() + at, '\n'));
}

// Replaces the first token of the line that starts at `at`.
std::string ReplaceFirstToken(const std::string& text, size_t at,
                              const std::string& token) {
  std::string out = text;
  out.replace(at, text.find_first_of(" \t\n", at) - at, token);
  return out;
}

TEST_F(ServeModelTest, LoadRejectsNonFiniteValues) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  const std::string text = artifact.str();

  // Start of the line `skip` lines after the line holding `marker`.
  auto line_after = [&text](const std::string& marker, int skip) {
    size_t at = text.find(marker);
    EXPECT_NE(at, std::string::npos) << marker;
    for (int i = 0; i < skip; ++i) at = text.find('\n', at) + 1;
    return at;
  };
  // The featurizer's first "mean stddev cardinality missing" line, the
  // first edge's weight, the first feature cell and the first weight.
  const size_t edge = line_after("# gnn4tdl-edgelist", 1);
  const size_t edge_weight = text.find('\t', text.find('\t', edge) + 1) + 1;
  const std::pair<const char*, size_t> places[] = {
      {"featurizer mean", line_after("gnn4tdl-featurizer-v1", 3)},
      {"edge weight", edge_weight},
      {"feature cell", line_after("\nfeatures ", 2)},
      {"parameter weight", line_after("gnn4tdl-params-v1", 3)}};
  for (const auto& [place, at] : places) {
    for (const char* value : {"nan", "inf", "-inf"}) {
      SCOPED_TRACE(std::string(place) + " " + value);
      std::istringstream in(ReplaceFirstToken(text, at, value));
      StatusOr<FrozenModel> frozen = FrozenModel::Load(in);
      ASSERT_FALSE(frozen.ok());
      EXPECT_EQ(frozen.status().code(), StatusCode::kIoError);
      const std::string message = frozen.status().message();
      EXPECT_NE(message.find("line " + std::to_string(LineOf(text, at)) + ":"),
                std::string::npos)
          << message;
      EXPECT_NE(message.find(std::string("'") + value + "'"),
                std::string::npos)
          << message;
    }
  }
}

TEST_F(ServeModelTest, SaveLoadSaveIsByteIdenticalAndCutsAreTypedErrors) {
  TabularDataset data = TrainData();
  for (GnnBackbone backbone :
       {GnnBackbone::kGcn, GnnBackbone::kSage, GnnBackbone::kGat,
        GnnBackbone::kGin, GnnBackbone::kGgnn, GnnBackbone::kAppnp,
        GnnBackbone::kTransformer}) {
    SCOPED_TRACE(GnnBackboneName(backbone));
    InstanceGraphGnn model(Options(backbone));
    ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
    std::stringstream first;
    ASSERT_TRUE(FrozenModel::Save(model, first).ok());
    const std::string text = first.str();
    std::istringstream in(text);
    StatusOr<FrozenModel> frozen = FrozenModel::Load(in);
    ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
    std::stringstream second;
    ASSERT_TRUE(FrozenModel::Save(frozen->model(), second).ok());
    ASSERT_EQ(second.str(), text);

    // Cut at the start of each section (header, featurizer, edge list,
    // features, parameters) and one byte into it.
    for (const char* section :
         {"gnn4tdl-frozen-model-v2", "gnn4tdl-featurizer-v1",
          "# gnn4tdl-edgelist", "features ", "gnn4tdl-params-v1"}) {
      const size_t start = text.find(section);
      ASSERT_NE(start, std::string::npos) << section;
      for (size_t cut : {start, start + 1}) {
        SCOPED_TRACE(std::string(section) + " cut at " + std::to_string(cut));
        std::istringstream truncated(text.substr(0, cut));
        StatusOr<FrozenModel> loaded = FrozenModel::Load(truncated);
        ASSERT_FALSE(loaded.ok());
        EXPECT_TRUE(loaded.status().code() == StatusCode::kIoError ||
                    loaded.status().code() == StatusCode::kInvalidArgument)
            << loaded.status().ToString();
      }
    }
  }
}

TEST_F(ServeModelTest, ArtifactFileRoundTrip) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());

  std::string path = TempPath("roundtrip.gnn4tdl");
  ASSERT_TRUE(FrozenModel::Save(model, path).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(path);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
  EXPECT_EQ(frozen->task(), model.task());
  EXPECT_EQ(frozen->num_outputs(), model.output_dim());
  EXPECT_EQ(frozen->num_train_rows(), model.feature_cache().rows());
  EXPECT_EQ(frozen->feature_dim(), model.feature_cache().cols());
  EXPECT_EQ(frozen->model().graph().num_edges(), model.graph().num_edges());
  EXPECT_TRUE(
      frozen->model().feature_cache().AllClose(model.feature_cache(), 0.0));
  std::remove(path.c_str());
}

TEST_F(ServeModelTest, SaveRejectsUnfittedAndIdentityInit) {
  InstanceGraphGnn unfitted(Options(GnnBackbone::kGcn));
  std::stringstream out;
  Status s = FrozenModel::Save(unfitted, out);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);

  InstanceGraphGnnOptions options = Options(GnnBackbone::kGcn);
  options.node_init = NodeInit::kIdentity;
  TabularDataset data = TrainData();
  InstanceGraphGnn identity(options);
  ASSERT_TRUE(identity.Fit(data, TrainSplit(data)).ok());
  Status s2 = FrozenModel::Save(identity, out);
  EXPECT_EQ(s2.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeModelTest, LoadRejectsGarbage) {
  std::stringstream garbage("definitely-not-a-frozen-model 1 2 3");
  StatusOr<FrozenModel> frozen = FrozenModel::Load(garbage);
  EXPECT_FALSE(frozen.ok());
  EXPECT_EQ(frozen.status().code(), StatusCode::kInvalidArgument);

  StatusOr<FrozenModel> missing = FrozenModel::Load("/nonexistent/m.gnn4tdl");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

// Only a bad magic makes a file "not a gnn4tdl frozen model": a header that
// disagrees with the parameter block it heads reports the mismatch.
TEST_F(ServeModelTest, LoadFromPathReportsShapeMismatchInsideArtifact) {
  TabularDataset data = MakeClusters({.num_rows = 120,
                                      .num_classes = 2,
                                      .dim_informative = 6,
                                      .dim_noise = 2,
                                      .seed = 7});
  InstanceGraphGnnOptions options = Options(GnnBackbone::kGcn);
  options.train.max_epochs = 3;
  InstanceGraphGnn model(options);
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  std::string text = artifact.str();
  const size_t at = text.find("\nnum_outputs 2\n");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 15, "\nnum_outputs 3\n");
  const std::string path = TempPath("shape_mismatch.gnn4tdl");
  {
    std::ofstream out(path);
    out << text;
  }
  StatusOr<FrozenModel> frozen = FrozenModel::Load(path);
  ASSERT_FALSE(frozen.ok());
  EXPECT_EQ(frozen.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(frozen.status().message().find("parameter shape mismatch"),
            std::string::npos)
      << frozen.status().ToString();
  EXPECT_EQ(frozen.status().message().find("is not a gnn4tdl frozen model"),
            std::string::npos)
      << frozen.status().ToString();
  std::remove(path.c_str());
}

TEST_F(ServeModelTest, EngineSingleRequestBatchesAreBitDeterministic) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact);
  ASSERT_TRUE(frozen.ok());

  TabularDataset fresh = FreshRows(10);
  StatusOr<Matrix> x = frozen->Featurize(fresh);
  ASSERT_TRUE(x.ok());

  ModelRegistry registry;
  TenantOptions tenant;
  tenant.max_batch = 1;  // every request scores alone -> equals ScoreFeatures
  ASSERT_TRUE(registry.AddTenant("t", std::move(*frozen), tenant).ok());
  const FrozenModel& served_model = *registry.Find("t")->model;
  MultiTenantEngine engine(&registry);
  for (size_t i = 0; i < x->rows(); ++i) {
    StatusOr<std::future<std::vector<double>>> f = engine.Submit(
        "t", std::vector<double>(x->row_data(i), x->row_data(i) + x->cols()));
    ASSERT_TRUE(f.ok());
    std::vector<double> served = f->get();

    Matrix row(1, x->cols());
    std::copy(x->row_data(i), x->row_data(i) + x->cols(), row.row_data(0));
    StatusOr<Matrix> direct = served_model.ScoreFeatures(row);
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(served.size(), direct->cols());
    for (size_t c = 0; c < served.size(); ++c)
      EXPECT_EQ(served[c], (*direct)(0, c));
  }
  engine.Stop();
  ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.requests, x->rows());
  EXPECT_EQ(stats.batches, x->rows());
  EXPECT_DOUBLE_EQ(stats.mean_batch_rows, 1.0);
}

TEST_F(ServeModelTest, EngineMicroBatchingAgreesWithDirectScoring) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact);
  ASSERT_TRUE(frozen.ok());

  TabularDataset fresh = FreshRows(64);
  StatusOr<Matrix> x = frozen->Featurize(fresh);
  ASSERT_TRUE(x.ok());
  StatusOr<Matrix> direct = frozen->ScoreFeatures(*x);
  ASSERT_TRUE(direct.ok());

  ModelRegistry registry;
  TenantOptions tenant;
  tenant.max_batch = 8;
  ASSERT_TRUE(registry.AddTenant("t", std::move(*frozen), tenant).ok());
  MultiTenantEngine engine(&registry);
  std::vector<std::future<std::vector<double>>> futures;
  for (size_t i = 0; i < x->rows(); ++i) {
    StatusOr<std::future<std::vector<double>>> f = engine.Submit(
        "t", std::vector<double>(x->row_data(i), x->row_data(i) + x->cols()));
    ASSERT_TRUE(f.ok());
    futures.push_back(std::move(*f));
  }
  size_t agree = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    std::vector<double> served = futures[i].get();
    size_t served_argmax = 0;
    for (size_t c = 1; c < served.size(); ++c)
      if (served[c] > served[served_argmax]) served_argmax = c;
    if (served_argmax == direct->ArgMaxRow(i)) ++agree;
  }
  engine.Stop();
  ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.requests, 64u);
  EXPECT_GE(stats.batches, 64u / tenant.max_batch);
  EXPECT_GT(stats.throughput_rps, 0.0);
  // Batch composition perturbs shared-anchor degrees slightly; predictions
  // must still agree with the one-shot batch scoring almost always.
  EXPECT_GE(static_cast<double>(agree) / 64.0, 0.9);
}

TEST_F(ServeModelTest, EngineRejectsWrongDimension) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact);
  ASSERT_TRUE(frozen.ok());

  const size_t feature_dim = frozen->feature_dim();
  ModelRegistry registry;
  ASSERT_TRUE(registry.AddTenant("t", std::move(*frozen)).ok());
  MultiTenantEngine engine(&registry);
  StatusOr<std::future<std::vector<double>>> f =
      engine.Submit("t", std::vector<double>(feature_dim + 1, 0.0));
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
  engine.Stop();
  ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.requests, 0u);
  // Dimension mismatches are caller bugs, not admission-control shedding.
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(ServeModelTest, EngineRejectsNonFiniteFeatures) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact);
  ASSERT_TRUE(frozen.ok());
  StatusOr<Matrix> x = frozen->Featurize(FreshRows(1));
  ASSERT_TRUE(x.ok());

  ModelRegistry registry;
  ASSERT_TRUE(registry.AddTenant("t", std::move(*frozen)).ok());
  MultiTenantEngine engine(&registry);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    std::vector<double> row(x->row_data(0), x->row_data(0) + x->cols());
    row[0] = bad;
    StatusOr<SubmitResult> submitted = engine.SubmitTraced("t", row);
    ASSERT_FALSE(submitted.ok()) << bad;
    EXPECT_EQ(submitted.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  engine.Stop();
  ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.requests, 0u);
  // A caller error, not admission-control shedding.
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(ServeModelTest, AttacherFullNeighborhoodKeepsEveryTrainingNode) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());

  StatusOr<KnnIndex> index = KnnIndex::Build(
      model.feature_cache(), model.options().knn.metric,
      model.options().knn.gamma);
  ASSERT_TRUE(index.ok());
  InductiveAttacherOptions opts;
  opts.k = 8;
  opts.hops = 2;
  opts.full_neighborhood = true;
  InductiveAttacher attacher(&model.graph(), &model.feature_cache(),
                             &*index, opts);

  TabularDataset fresh = FreshRows(4);
  StatusOr<Matrix> x = model.featurizer().Transform(fresh);
  ASSERT_TRUE(x.ok());
  StatusOr<AttachedBatch> batch = attacher.Attach(*x);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->train_nodes.size(), model.feature_cache().rows());
  EXPECT_EQ(batch->graph.num_nodes(), model.feature_cache().rows() + 4);
  // Every training edge, plus each attach edge in both directions.
  EXPECT_EQ(batch->graph.num_edges(),
            model.graph().num_edges() + 2 * 4 * opts.k);
}

/// Hop distance of every training node from the new rows, by a BFS over
/// the training graph from the anchors (distance 1).
std::vector<size_t> TrainingDepths(
    const Graph& train, const std::vector<std::vector<KnnHit>>& anchors) {
  std::vector<size_t> depth(train.num_nodes(),
                            std::numeric_limits<size_t>::max());
  std::vector<size_t> queue;
  for (const auto& hits : anchors) {
    for (const KnnHit& h : hits) {
      if (depth[h.index] != 1) queue.push_back(h.index);
      depth[h.index] = 1;
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    for (size_t w : train.Neighbors(queue[head])) {
      if (depth[w] <= depth[queue[head]] + 1) continue;
      depth[w] = depth[queue[head]] + 1;
      queue.push_back(w);
    }
  }
  return depth;
}

/// Hop distance from the new rows of every node of `batch` (0 for the new
/// rows themselves).
std::vector<size_t> BatchDepths(const std::vector<size_t>& training_depth,
                                const AttachedBatch& batch) {
  std::vector<size_t> depth(batch.graph.num_nodes(), 0);
  for (size_t i = 0; i < batch.train_nodes.size(); ++i) {
    depth[i] = training_depth[batch.train_nodes[i]];
  }
  return depth;
}

TEST_F(ServeModelTest, AttacherKeepsRowsOnlyWithinHopsMinusOne) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kGcn));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  const Graph& train = model.graph();
  StatusOr<KnnIndex> index = KnnIndex::Build(
      model.feature_cache(), model.options().knn.metric,
      model.options().knn.gamma);
  ASSERT_TRUE(index.ok());
  StatusOr<Matrix> x = model.featurizer().Transform(FreshRows(5));
  ASSERT_TRUE(x.ok());
  const size_t k = 8;
  const std::vector<std::vector<KnnHit>> anchors = index->QueryBatch(*x, k);
  const std::vector<size_t> training_depth = TrainingDepths(train, anchors);
  // Each training node's in-edges in the extended graph: its training row
  // plus one edge from every new row it anchors.
  std::vector<size_t> in_edges(train.num_nodes(), 0);
  for (size_t v = 0; v < train.num_nodes(); ++v) {
    in_edges[v] = train.adjacency().RowNnz(v);
  }
  for (const auto& hits : anchors) {
    for (const KnnHit& h : hits) ++in_edges[h.index];
  }

  for (size_t hops : {1u, 2u, 3u}) {
    InductiveAttacher attacher(&model.graph(), &model.feature_cache(),
                               &*index, {.k = k, .hops = hops});
    StatusOr<AttachedBatch> batch = attacher.Attach(*x);
    ASSERT_TRUE(batch.ok());
    // The receptive field: exactly the training nodes within `hops`.
    std::vector<size_t> field;
    for (size_t v = 0; v < train.num_nodes(); ++v) {
      if (training_depth[v] <= hops) field.push_back(v);
    }
    EXPECT_EQ(batch->train_nodes, field) << "hops " << hops;

    const std::vector<size_t> depth = BatchDepths(training_depth, *batch);
    size_t expected_edges = x->rows() * k;  // the new rows' own rows
    for (size_t i = 0; i < batch->graph.num_nodes(); ++i) {
      EXPECT_EQ(batch->graph.adjacency().RowNnz(i) > 0, depth[i] < hops)
          << "node " << i << " at depth " << depth[i] << ", hops " << hops;
      if (i < batch->train_nodes.size() && depth[i] < hops) {
        expected_edges += in_edges[batch->train_nodes[i]];
      }
    }
    EXPECT_EQ(batch->graph.num_edges(), expected_edges) << "hops " << hops;
  }
}

/// The extended graph PredictInductive builds: the training graph plus each
/// new row's attach edges in both directions, new rows after the training
/// nodes.
Graph ExtendedGraph(const Graph& train,
                    const std::vector<std::vector<KnnHit>>& anchors) {
  std::vector<Edge> edges = train.EdgeList();
  for (size_t i = 0; i < anchors.size(); ++i) {
    for (const KnnHit& h : anchors[i]) {
      edges.push_back({train.num_nodes() + i, h.index, 1.0});
      edges.push_back({h.index, train.num_nodes() + i, 1.0});
    }
  }
  return Graph::FromEdges(train.num_nodes() + anchors.size(), edges,
                          /*symmetrize=*/false);
}

// ScoreOnGraph on an attached batch: each row is either NaN or bit-identical
// to that node's row on the full extended graph. The new rows are always
// exact; the outer ring, which is input-only, never is.
TEST_F(ServeModelTest, ScoreOnGraphReturnsNanOutsideTheExactRows) {
  TabularDataset data = TrainData();
  TabularDataset fresh = FreshRows(4);
  for (ServedConfig config : AllServedConfigs()) {
    SCOPED_TRACE(ServedConfigName(config));
    InstanceGraphGnnOptions options = Options(GnnBackbone::kGcn);
    ApplyServedConfig(config, &options);
    if (options.backbone == GnnBackbone::kAppnp) options.appnp_steps = 3;
    InstanceGraphGnn trained(options);
    ASSERT_TRUE(trained.Fit(data, TrainSplit(data)).ok());
    std::stringstream artifact;
    ASSERT_TRUE(FrozenModel::Save(trained, artifact).ok());
    StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact);
    ASSERT_TRUE(frozen.ok());
    const InstanceGraphGnn& model = frozen->model();
    StatusOr<Matrix> x = frozen->Featurize(fresh);
    ASSERT_TRUE(x.ok());
    const InductiveAttacherOptions& attach = frozen->attacher().options();
    const std::vector<std::vector<KnnHit>> anchors =
        frozen->index().QueryBatch(*x, attach.k);

    if (attach.full_neighborhood) {
      // A global layer cannot score a cut-down neighborhood.
      InductiveAttacher truncated(&model.graph(), &model.feature_cache(),
                                  &frozen->index(),
                                  {.k = attach.k, .hops = attach.hops});
      StatusOr<AttachedBatch> batch = truncated.Attach(*x);
      ASSERT_TRUE(batch.ok());
      StatusOr<Matrix> scored =
          model.ScoreOnGraph(batch->features, batch->graph, &batch->degrees);
      ASSERT_FALSE(scored.ok());
      EXPECT_EQ(scored.status().code(), StatusCode::kInvalidArgument);
      continue;
    }

    StatusOr<AttachedBatch> batch = frozen->attacher().Attach(*x);
    ASSERT_TRUE(batch.ok());
    StatusOr<Matrix> scored =
        model.ScoreOnGraph(batch->features, batch->graph, &batch->degrees);
    ASSERT_TRUE(scored.ok()) << scored.status().ToString();
    StatusOr<Matrix> full = model.ScoreOnGraph(
        model.feature_cache().ConcatRows(*x),
        ExtendedGraph(model.graph(), anchors));
    ASSERT_TRUE(full.ok());

    const std::vector<size_t> depth =
        BatchDepths(TrainingDepths(model.graph(), anchors), *batch);
    const size_t n_sub = batch->train_nodes.size();
    size_t exact_rows = 0;
    for (size_t i = 0; i < scored->rows(); ++i) {
      const size_t node = i < n_sub ? batch->train_nodes[i]
                                    : model.graph().num_nodes() + i - n_sub;
      const bool nan = std::isnan((*scored)(i, 0));
      if (i >= n_sub) {
        EXPECT_FALSE(nan) << "new row " << i - n_sub;
      }
      if (depth[i] == attach.hops) {
        EXPECT_TRUE(nan) << "outer node " << i;
      }
      if (nan) continue;
      ++exact_rows;
      EXPECT_EQ(0, std::memcmp(scored->row_data(i), full->row_data(node),
                               scored->cols() * sizeof(double)))
          << "node " << i << " at depth " << depth[i];
    }
    EXPECT_LT(exact_rows, scored->rows());
  }
}

TEST_F(ServeModelTest, ScoreOnGraphWithoutOverrideScoresEveryRow) {
  TabularDataset data = TrainData();
  InstanceGraphGnn model(Options(GnnBackbone::kSage));
  ASSERT_TRUE(model.Fit(data, TrainSplit(data)).ok());
  StatusOr<Matrix> scored =
      model.ScoreOnGraph(model.feature_cache(), model.graph());
  ASSERT_TRUE(scored.ok());
  for (size_t i = 0; i < scored->size(); ++i) {
    ASSERT_TRUE(std::isfinite(scored->data()[i])) << "entry " << i;
  }
  // The eval forward without an override is the taped forward of Predict.
  StatusOr<Matrix> predicted = model.Predict(data);
  ASSERT_TRUE(predicted.ok());
  EXPECT_TRUE(scored->AllClose(*predicted, 0.0));
}

}  // namespace
}  // namespace gnn4tdl
