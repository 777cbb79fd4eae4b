// Trained-bit digests for the transductive models that train one supervised
// main task (InstanceGraphGnn, LearnedGraphGnn, TabGnnModel, HeteroRgcnModel,
// HypergraphModel, FeatureGraphModel, GrapeModel), on a classification and a
// regression table each. Every fit runs with a non-empty validation split
// and patience > 0, so the validation metric picks the restored parameters
// and is pinned too. The constants are FNV-1a hashes of Predict's bytes; a
// change that moves trained bits on purpose re-records them and says why.
//
// Further cases pin the constants the instance-graph and learned-graph
// models fix internally: every auxiliary task on (and the pretrain-finetune
// strategy's self-supervised loss), the flattened multiplex graph on a table
// whose value groups exceed its group cap, and the DAE auxiliary of the
// learned-graph model. ExplainEdges, a Backward outside the trainer, is
// pinned on its saliency.
//
// LunarDetector, which ranks exact kNN distances, is pinned the same way on
// a table with duplicate rows.
//
// The kernel tiers and the thread pool are bit-identical by contract, so the
// same constants hold at every GNN4TDL_SIMD and GNN4TDL_THREADS setting
// (tools/check.sh runs this suite across that matrix).

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "data/split.h"
#include "models/bipartite_imputer.h"
#include "models/feature_graph.h"
#include "models/hetero_rgcn.h"
#include "models/hypergraph_model.h"
#include "models/knn_gnn.h"
#include "models/learned_graph.h"
#include "models/lunar.h"
#include "models/tabgnn.h"

namespace gnn4tdl {
namespace {

/// Two categorical columns of `cardinality` values with per-value effects,
/// plus two numeric columns; the label is three classes cut from the latent
/// score, or the score itself.
TabularDataset Table(bool regression, size_t cardinality = 6) {
  const size_t n = 90;
  Rng rng(21);
  std::vector<double> effect_a(cardinality), effect_b(cardinality);
  for (double& v : effect_a) v = rng.Normal(0.0, 1.5);
  for (double& v : effect_b) v = rng.Normal(0.0, 1.5);
  std::vector<int> codes_a(n), codes_b(n);
  std::vector<double> x0(n), x1(n), y(n);
  std::vector<int> classes(n);
  for (size_t i = 0; i < n; ++i) {
    codes_a[i] = static_cast<int>(rng.Int(0, cardinality - 1));
    codes_b[i] = static_cast<int>(rng.Int(0, cardinality - 1));
    x0[i] = rng.Normal();
    x1[i] = rng.Normal();
    y[i] = effect_a[static_cast<size_t>(codes_a[i])] +
           effect_b[static_cast<size_t>(codes_b[i])] + x0[i] +
           rng.Normal(0.0, 0.3);
    classes[i] = y[i] < -1.0 ? 0 : (y[i] < 1.0 ? 1 : 2);
  }
  std::vector<std::string> cats(cardinality);
  for (size_t v = 0; v < cardinality; ++v) cats[v] = "v" + std::to_string(v);

  TabularDataset data(n);
  GNN4TDL_CHECK(data.AddCategoricalColumn("a", codes_a, cats).ok());
  GNN4TDL_CHECK(data.AddCategoricalColumn("b", codes_b, cats).ok());
  GNN4TDL_CHECK(data.AddNumericColumn("x0", x0).ok());
  GNN4TDL_CHECK(data.AddNumericColumn("x1", x1).ok());
  if (regression) {
    GNN4TDL_CHECK(data.SetRegressionLabels(std::move(y)).ok());
  } else {
    GNN4TDL_CHECK(data.SetClassLabels(std::move(classes), 3).ok());
  }
  return data;
}

TrainOptions Train() {
  TrainOptions t;
  t.max_epochs = 12;
  t.learning_rate = 0.05;
  t.patience = 3;
  return t;
}

/// 64-bit FNV-1a over the bytes of `m`'s values.
uint64_t Fnv1a(const Matrix& m) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  for (size_t i = 0; i < m.size() * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Fits `model` on Table(regression, cardinality) and returns the digest of
/// Predict.
uint64_t PredictDigest(TabularModel& model, bool regression,
                       size_t cardinality) {
  TabularDataset data = Table(regression, cardinality);
  Rng rng(5);
  Split split = RandomSplit(data.NumRows(), 0.5, 0.25, rng);
  Status fitted = model.Fit(data, split);
  EXPECT_TRUE(fitted.ok()) << fitted.ToString();
  StatusOr<Matrix> out = model.Predict(data);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) return 0;
  EXPECT_EQ(out->rows(), data.NumRows());
  EXPECT_EQ(out->cols(), regression ? 1u : 3u);
  return Fnv1a(*out);
}

struct Case {
  const char* name;
  std::unique_ptr<TabularModel> (*make)();
  uint64_t classification;
  uint64_t regression;
  size_t cardinality = 6;
};

std::unique_ptr<TabularModel> MakeInstanceGraph() {
  InstanceGraphGnnOptions o;
  o.hidden_dim = 16;
  o.train = Train();
  return std::make_unique<InstanceGraphGnn>(o);
}

std::unique_ptr<TabularModel> MakeInstanceGraphAux() {
  InstanceGraphGnnOptions o;
  o.hidden_dim = 16;
  o.reconstruction_weight = 0.3;
  o.dae_weight = 0.3;
  o.contrastive_weight = 0.2;
  o.smoothness_weight = 0.1;
  o.edge_completion_weight = 0.2;
  o.train = Train();
  return std::make_unique<InstanceGraphGnn>(o);
}

std::unique_ptr<TabularModel> MakeInstanceGraphPretrain() {
  InstanceGraphGnnOptions o;
  o.hidden_dim = 16;
  o.dae_weight = 0.3;
  o.contrastive_weight = 0.2;
  o.strategy = TrainStrategy::kPretrainFinetune;
  o.pretrain_epochs = 4;
  o.train = Train();
  return std::make_unique<InstanceGraphGnn>(o);
}

std::unique_ptr<TabularModel> MakeInstanceGraphMultiplex() {
  InstanceGraphGnnOptions o;
  o.hidden_dim = 16;
  o.graph_source = GraphSource::kMultiplexFlatten;
  o.train = Train();
  return std::make_unique<InstanceGraphGnn>(o);
}

LearnedGraphOptions LearnedGraphDaeOptions() {
  LearnedGraphOptions o;
  o.hidden_dim = 16;
  o.candidate_k = 6;
  o.dae_weight = 0.3;
  o.train = Train();
  return o;
}

std::unique_ptr<TabularModel> MakeLearnedGraphDae() {
  return std::make_unique<LearnedGraphGnn>(LearnedGraphDaeOptions());
}

std::unique_ptr<TabularModel> MakeLearnedGraph() {
  LearnedGraphOptions o;
  o.hidden_dim = 16;
  o.candidate_k = 6;
  o.train = Train();
  return std::make_unique<LearnedGraphGnn>(o);
}

std::unique_ptr<TabularModel> MakeTabGnn() {
  TabGnnOptions o;
  o.hidden_dim = 16;
  o.train = Train();
  return std::make_unique<TabGnnModel>(o);
}

std::unique_ptr<TabularModel> MakeHeteroRgcn() {
  HeteroRgcnOptions o;
  o.hidden_dim = 16;
  o.train = Train();
  return std::make_unique<HeteroRgcnModel>(o);
}

std::unique_ptr<TabularModel> MakeHypergraph() {
  HypergraphModelOptions o;
  o.embed_dim = 16;
  o.train = Train();
  return std::make_unique<HypergraphModel>(o);
}

std::unique_ptr<TabularModel> MakeFeatureGraph() {
  FeatureGraphOptions o;
  o.embed_dim = 8;
  o.head_hidden = 16;
  o.train = Train();
  return std::make_unique<FeatureGraphModel>(o);
}

std::unique_ptr<TabularModel> MakeGrape() {
  GrapeOptions o;
  o.hidden_dim = 16;
  o.train = Train();
  return std::make_unique<GrapeModel>(o);
}

const Case kCases[] = {
    {"instance_graph", MakeInstanceGraph, 0xe565b1f136f3d08cULL,
     0xc5a9d9052de8aaceULL},
    {"learned_graph", MakeLearnedGraph, 0xeb062300801f5adcULL,
     0x8e1f9e6603333956ULL},
    {"tabgnn", MakeTabGnn, 0xdf5ec2414d4b328aULL,
     0xf7205bb07de2604bULL},
    {"hetero_rgcn", MakeHeteroRgcn, 0x5ba59d692f7643a3ULL,
     0xe32fc6e7e07104efULL},
    {"hypergraph", MakeHypergraph, 0x024a2a51af7fa3aaULL,
     0x3b71a0b78d2488e0ULL},
    {"feature_graph", MakeFeatureGraph, 0x9030e5ecfa841038ULL,
     0xe45b2e6f6edf22d5ULL},
    {"grape", MakeGrape, 0xbfaa2104f8ccd338ULL,
     0x8d8b56f5c9dc2ea4ULL},
    {"instance_graph_aux", MakeInstanceGraphAux, 0xbdbe459a9937ec4dULL,
     0x67fe0695e4eeae69ULL},
    {"instance_graph_pretrain", MakeInstanceGraphPretrain,
     0x2579905f511a60f1ULL, 0xa2ee48a30acacf70ULL},
    // Two values per column: groups of ~45 rows exceed the multiplex group
    // cap, so its subsampling is in the digest.
    {"instance_graph_multiplex", MakeInstanceGraphMultiplex,
     0x97645bcd1a81486dULL, 0x63ebf0ea413e6fa3ULL, 2},
    {"learned_graph_dae", MakeLearnedGraphDae, 0xad10061079bc6016ULL,
     0x51b769c9ef150965ULL},
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class TrainedBitsTest : public ::testing::TestWithParam<Case> {};

TEST_P(TrainedBitsTest, ClassificationPredictDigestIsPinned) {
  std::unique_ptr<TabularModel> model = GetParam().make();
  EXPECT_EQ(PredictDigest(*model, /*regression=*/false, GetParam().cardinality),
            GetParam().classification);
}

TEST_P(TrainedBitsTest, RegressionPredictDigestIsPinned) {
  std::unique_ptr<TabularModel> model = GetParam().make();
  EXPECT_EQ(PredictDigest(*model, /*regression=*/true, GetParam().cardinality),
            GetParam().regression);
}

INSTANTIATE_TEST_SUITE_P(SupervisedModels, TrainedBitsTest,
                         ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return std::string(info.param.name);
                         });

TEST(ExplainEdgesBitsTest, SaliencyDigestIsPinned) {
  LearnedGraphGnn model(LearnedGraphDaeOptions());
  TabularDataset data = Table(/*regression=*/false);
  Rng rng(5);
  ASSERT_TRUE(
      model.Fit(data, RandomSplit(data.NumRows(), 0.5, 0.25, rng)).ok());
  // Explain two nodes, the predicted class and a named one; each saliency
  // is hashed in turn, so the digest covers both.
  uint64_t digest = 0;
  for (const auto& [node, target_class] :
       {std::pair<size_t, int>{0, -1}, std::pair<size_t, int>{7, 2}}) {
    StatusOr<Matrix> saliency = model.ExplainEdges(node, target_class);
    ASSERT_TRUE(saliency.ok()) << saliency.status().ToString();
    EXPECT_EQ(saliency->rows(), model.candidate_edges().src.size());
    digest = digest * 31 + Fnv1a(*saliency);
  }
  EXPECT_EQ(digest, 0x5e536c5254b39a43ULL);
}

/// 48 rows of three numeric columns: rows 30..37 repeat rows 0..7, and rows
/// 38..47 are ten copies of one point, so some rows' k nearest neighbors are
/// all at distance 0.
TabularDataset DuplicateRowTable() {
  const size_t n = 48;
  Rng rng(23);
  std::vector<std::vector<double>> cols(3, std::vector<double>(n));
  for (size_t i = 0; i < n; ++i) {
    for (std::vector<double>& col : cols) {
      if (i < 30) {
        col[i] = rng.Normal();
      } else if (i < 38) {
        col[i] = col[i - 30];
      } else {
        col[i] = 4.0;
      }
    }
  }
  TabularDataset data(n);
  for (size_t c = 0; c < cols.size(); ++c) {
    GNN4TDL_CHECK(
        data.AddNumericColumn("x" + std::to_string(c), cols[c]).ok());
  }
  return data;
}

TEST(LunarBitsTest, PredictDigestOnDuplicateRowsIsPinned) {
  LunarOptions o;
  o.k = 5;
  o.hidden_dim = 8;
  o.train.max_epochs = 20;
  o.train.learning_rate = 0.02;
  LunarDetector model(o);
  TabularDataset data = DuplicateRowTable();
  ASSERT_TRUE(model.Fit(data, Split()).ok());
  StatusOr<Matrix> scores = model.Predict(data);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  EXPECT_EQ(Fnv1a(*scores), 0xfd88c76c9371d623ULL);
}

}  // namespace
}  // namespace gnn4tdl
