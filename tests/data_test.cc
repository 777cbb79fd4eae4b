#include <cmath>
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/metrics.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tabular.h"
#include "data/transforms.h"

namespace gnn4tdl {
namespace {

TEST(TabularTest, AddColumnsAndLookup) {
  TabularDataset data(3);
  ASSERT_TRUE(data.AddNumericColumn("age", {20, 30, 40}).ok());
  ASSERT_TRUE(data.AddCategoricalColumn("city", {0, 1, 0}, {"a", "b"}).ok());
  EXPECT_EQ(data.NumCols(), 2u);
  EXPECT_EQ(data.ColumnIndex("city").value(), 1u);
  EXPECT_FALSE(data.ColumnIndex("nope").ok());
  EXPECT_EQ(data.ColumnsOfType(ColumnType::kNumerical).size(), 1u);
}

TEST(TabularTest, RejectsWrongLengthColumn) {
  TabularDataset data(3);
  EXPECT_FALSE(data.AddNumericColumn("x", {1.0}).ok());
  EXPECT_FALSE(data.AddCategoricalColumn("c", {0, 0, 5}, {"a"}).ok());
}

TEST(TabularTest, LabelValidation) {
  TabularDataset data(2);
  EXPECT_FALSE(data.SetClassLabels({0, 3}, 2).ok());
  EXPECT_TRUE(data.SetClassLabels({0, 1}, 2,
                                  TaskType::kBinaryClassification).ok());
  EXPECT_EQ(data.task(), TaskType::kBinaryClassification);
}

TEST(TabularTest, MissingFractionCountsNanAndNegativeCodes) {
  TabularDataset data(4);
  double nan = std::nan("");
  ASSERT_TRUE(data.AddNumericColumn("x", {1.0, nan, 3.0, nan}).ok());
  ASSERT_TRUE(data.AddCategoricalColumn("c", {0, -1, 0, 0}, {"a"}).ok());
  EXPECT_NEAR(data.MissingFraction(), 3.0 / 8.0, 1e-12);
}

TEST(FeaturizerTest, OneHotAndStandardize) {
  TabularDataset data(4);
  ASSERT_TRUE(data.AddNumericColumn("x", {1, 2, 3, 4}).ok());
  ASSERT_TRUE(data.AddCategoricalColumn("c", {0, 1, 2, 1},
                                        {"a", "b", "c"}).ok());
  Featurizer featurizer;
  auto x = featurizer.FitTransform(data);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x->cols(), 4u);  // 1 numeric + 3 one-hot
  // Standardized numeric column has ~zero mean.
  double mean = 0;
  for (size_t r = 0; r < 4; ++r) mean += (*x)(r, 0);
  EXPECT_NEAR(mean / 4.0, 0.0, 1e-12);
  // One-hot block.
  EXPECT_EQ((*x)(0, 1), 1.0);
  EXPECT_EQ((*x)(1, 2), 1.0);
  EXPECT_EQ((*x)(2, 3), 1.0);
}

TEST(FeaturizerTest, FitOnTrainRowsOnlyAffectsStats) {
  TabularDataset data(4);
  ASSERT_TRUE(data.AddNumericColumn("x", {0, 0, 100, 100}).ok());
  Featurizer featurizer;
  ASSERT_TRUE(featurizer.Fit(data, {0, 1}).ok());  // mean 0 on fit rows
  auto x = featurizer.Transform(data);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)(0, 0), 0.0, 1e-12);
  EXPECT_GT((*x)(2, 0), 10.0);  // far from the fit distribution
}

TEST(FeaturizerTest, MissingIndicatorsAppended) {
  TabularDataset data(3);
  ASSERT_TRUE(data.AddNumericColumn("x", {1.0, std::nan(""), 3.0}).ok());
  FeaturizerOptions opts;
  opts.add_missing_indicators = true;
  Featurizer featurizer(opts);
  auto x = featurizer.FitTransform(data);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x->cols(), 2u);
  EXPECT_EQ((*x)(1, 1), 1.0);
  EXPECT_EQ((*x)(0, 1), 0.0);
  // Missing numeric imputed with fill value 0 (the standardized mean).
  EXPECT_EQ((*x)(1, 0), 0.0);
}

TEST(FeaturizerTest, TransformBeforeFitFails) {
  TabularDataset data(1);
  ASSERT_TRUE(data.AddNumericColumn("x", {1.0}).ok());
  Featurizer featurizer;
  EXPECT_FALSE(featurizer.Transform(data).ok());
}

TEST(SplitTest, RandomSplitPartitions) {
  Rng rng(1);
  Split s = RandomSplit(100, 0.6, 0.2, rng);
  EXPECT_EQ(s.train.size(), 60u);
  EXPECT_EQ(s.val.size(), 20u);
  EXPECT_EQ(s.test.size(), 20u);
  std::vector<bool> seen(100, false);
  for (auto part : {&s.train, &s.val, &s.test})
    for (size_t i : *part) {
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
  for (bool b : seen) EXPECT_TRUE(b);
}

TEST(SplitTest, StratifiedPreservesClassBalance) {
  std::vector<int> labels(100);
  for (size_t i = 0; i < 100; ++i) labels[i] = i < 80 ? 0 : 1;
  Rng rng(2);
  Split s = StratifiedSplit(labels, 0.5, 0.25, rng);
  size_t train_pos = 0;
  for (size_t i : s.train) train_pos += labels[i] == 1;
  EXPECT_EQ(s.train.size(), 50u);
  EXPECT_EQ(train_pos, 10u);
}

TEST(SplitTest, LabelScarceKeepsFewTrainLabels) {
  std::vector<int> labels(200);
  for (size_t i = 0; i < 200; ++i) labels[i] = static_cast<int>(i % 4);
  Rng rng(3);
  Split s = LabelScarceSplit(labels, 5, 0.1, 0.3, rng);
  EXPECT_EQ(s.train.size(), 20u);  // 5 per class x 4 classes
  EXPECT_EQ(s.test.size(), 60u);
}

TEST(SplitTest, MaskForMarksSubset) {
  std::vector<double> mask = Split::MaskFor({1, 3}, 5);
  EXPECT_EQ(mask, (std::vector<double>{0, 1, 0, 1, 0}));
}

TEST(MetricsTest, AccuracyCountsArgmaxMatches) {
  Matrix logits = Matrix::FromRows({{2, 1}, {0, 5}, {3, 1}});
  EXPECT_NEAR(Accuracy(logits, {0, 1, 1}), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(Accuracy(logits, {0, 1, 1}, {0, 1}), 1.0, 1e-12);
}

TEST(MetricsTest, AurocPerfectAndRandom) {
  std::vector<double> scores = {0.9, 0.8, 0.2, 0.1};
  EXPECT_NEAR(Auroc(scores, {1, 1, 0, 0}), 1.0, 1e-12);
  EXPECT_NEAR(Auroc(scores, {0, 0, 1, 1}), 0.0, 1e-12);
  EXPECT_NEAR(Auroc({0.5, 0.5, 0.5, 0.5}, {1, 0, 1, 0}), 0.5, 1e-12);
  EXPECT_NEAR(Auroc(scores, {1, 1, 1, 1}), 0.5, 1e-12);  // degenerate
}

TEST(MetricsTest, RegressionMetrics) {
  Matrix pred = Matrix::FromRows({{1.0}, {2.0}, {3.0}});
  std::vector<double> targets = {1.0, 2.0, 5.0};
  EXPECT_NEAR(Rmse(pred, targets), std::sqrt(4.0 / 3.0), 1e-12);
  EXPECT_NEAR(Mae(pred, targets), 2.0 / 3.0, 1e-12);
  EXPECT_GT(R2(pred, targets), 0.0);
  Matrix perfect = Matrix::FromRows({{1.0}, {2.0}, {5.0}});
  EXPECT_NEAR(R2(perfect, targets), 1.0, 1e-12);
}

TEST(MetricsTest, MacroF1PerfectPrediction) {
  Matrix logits = Matrix::FromRows({{3, 0, 0}, {0, 3, 0}, {0, 0, 3}});
  EXPECT_NEAR(MacroF1(logits, {0, 1, 2}, 3), 1.0, 1e-12);
}

TEST(MetricsTest, ConfusionMatrixCountsCells) {
  Matrix logits = Matrix::FromRows({{3, 0, 0}, {0, 3, 0}, {3, 0, 0}, {0, 0, 3}});
  std::vector<int> labels = {0, 1, 1, 2};
  Matrix cm = ConfusionMatrix(logits, labels, 3);
  EXPECT_EQ(cm(0, 0), 1.0);  // true 0 -> pred 0
  EXPECT_EQ(cm(1, 1), 1.0);  // true 1 -> pred 1
  EXPECT_EQ(cm(1, 0), 1.0);  // true 1 -> pred 0 (the mistake)
  EXPECT_EQ(cm(2, 2), 1.0);
  EXPECT_EQ(cm.Sum(), 4.0);
}

TEST(MetricsTest, ConfusionMatrixRespectsRowSubset) {
  Matrix logits = Matrix::FromRows({{3, 0}, {0, 3}});
  Matrix cm = ConfusionMatrix(logits, {0, 1}, 2, {1});
  EXPECT_EQ(cm.Sum(), 1.0);
  EXPECT_EQ(cm(1, 1), 1.0);
}

TEST(MetricsTest, PositiveClassScoresFromTwoColumnLogits) {
  Matrix logits = Matrix::FromRows({{0.0, 0.0}, {0.0, 100.0}});
  std::vector<double> s = PositiveClassScores(logits);
  EXPECT_NEAR(s[0], 0.5, 1e-12);
  EXPECT_NEAR(s[1], 1.0, 1e-9);
}

TEST(SyntheticTest, ClustersHaveRequestedShape) {
  ClustersOptions opts;
  opts.num_rows = 100;
  opts.num_classes = 4;
  opts.dim_informative = 5;
  opts.dim_noise = 2;
  TabularDataset data = MakeClusters(opts);
  EXPECT_EQ(data.NumRows(), 100u);
  EXPECT_EQ(data.NumCols(), 7u);
  EXPECT_EQ(data.num_classes(), 4);
  EXPECT_EQ(data.task(), TaskType::kMultiClassification);
}

TEST(SyntheticTest, ClustersDeterministicForSeed) {
  ClustersOptions opts;
  opts.num_rows = 50;
  TabularDataset a = MakeClusters(opts);
  TabularDataset b = MakeClusters(opts);
  EXPECT_EQ(a.class_labels(), b.class_labels());
  EXPECT_EQ(a.column(0).numeric, b.column(0).numeric);
}

TEST(SyntheticTest, InteractionMarginalsUninformative) {
  InteractionOptions opts;
  opts.num_rows = 4000;
  opts.order = 2;
  TabularDataset data = MakeInteraction(opts);
  // Correlation of any single feature's sign with the label ~ 0.
  const auto& labels = data.class_labels();
  for (size_t c = 0; c < 2; ++c) {
    const auto& col = data.column(c).numeric;
    double agree = 0;
    for (size_t i = 0; i < col.size(); ++i)
      agree += ((col[i] > 0) == (labels[i] == 1)) ? 1.0 : 0.0;
    EXPECT_NEAR(agree / static_cast<double>(col.size()), 0.5, 0.05);
  }
}

TEST(SyntheticTest, MultiRelationalSharedValuesCorrelateWithLabels) {
  MultiRelationalOptions opts;
  opts.num_rows = 2000;
  opts.cardinality = 20;
  opts.num_relations = 1;
  opts.effect_noise = 0.1;
  TabularDataset data = MakeMultiRelational(opts);
  // Rows sharing the same category value should agree on labels far more
  // often than chance.
  const Column& rel = data.column(0);
  const auto& labels = data.class_labels();
  std::vector<std::vector<size_t>> groups(opts.cardinality);
  for (size_t i = 0; i < data.NumRows(); ++i)
    groups[static_cast<size_t>(rel.codes[i])].push_back(i);
  double agree = 0, pairs = 0;
  for (const auto& g : groups) {
    for (size_t a = 0; a + 1 < g.size(); ++a) {
      agree += labels[g[a]] == labels[g[a + 1]];
      pairs += 1;
    }
  }
  EXPECT_GT(agree / pairs, 0.75);
}

TEST(SyntheticTest, AnomalyLabelsCountMatches) {
  AnomalyOptions opts;
  opts.num_inliers = 90;
  opts.num_outliers = 10;
  TabularDataset data = MakeAnomalyData(opts);
  int anomalies = 0;
  for (int y : data.class_labels()) anomalies += y;
  EXPECT_EQ(anomalies, 10);
  EXPECT_EQ(data.task(), TaskType::kAnomalyDetection);
}

TEST(SyntheticTest, PiecewiseProducesBothClasses) {
  PiecewiseOptions opts;
  opts.num_rows = 500;
  TabularDataset data = MakePiecewise(opts);
  int pos = 0;
  for (int y : data.class_labels()) pos += y;
  EXPECT_GT(pos, 25);
  EXPECT_LT(pos, 475);
}

TEST(SyntheticTest, InjectMissingHitsRequestedRate) {
  ClustersOptions opts;
  opts.num_rows = 1000;
  TabularDataset data = MakeClusters(opts);
  InjectMissing(data, 0.3, MissingMechanism::kMcar, 5);
  EXPECT_NEAR(data.MissingFraction(), 0.3, 0.03);
}

TEST(SyntheticTest, MnarMissesLargeValuesMore) {
  TabularDataset data(10000);
  Rng rng(6);
  std::vector<double> values(10000);
  for (auto& v : values) v = rng.Normal();
  ASSERT_TRUE(data.AddNumericColumn("x", values).ok());
  InjectMissing(data, 0.3, MissingMechanism::kMnar, 7);
  const auto& col = data.column(0).numeric;
  double miss_hi = 0, n_hi = 0, miss_lo = 0, n_lo = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] > 0.5) {
      n_hi += 1;
      miss_hi += std::isnan(col[i]);
    } else if (values[i] < -0.5) {
      n_lo += 1;
      miss_lo += std::isnan(col[i]);
    }
  }
  EXPECT_GT(miss_hi / n_hi, miss_lo / n_lo + 0.05);
}

TEST(CsvTest, RoundTripPreservesData) {
  TabularDataset data(3);
  ASSERT_TRUE(data.AddNumericColumn("x", {1.5, 2.5, std::nan("")}).ok());
  ASSERT_TRUE(data.AddCategoricalColumn("c", {0, 1, -1}, {"red", "blue"}).ok());
  ASSERT_TRUE(data.SetClassLabels({0, 1, 1}, 2,
                                  TaskType::kBinaryClassification).ok());
  const std::string path = ::testing::TempDir() + "/gnn4tdl_csv_test.csv";
  ASSERT_TRUE(WriteCsv(data, path).ok());

  CsvReadOptions opts;
  opts.label_column = "label";
  auto loaded = ReadCsv(path, opts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumRows(), 3u);
  EXPECT_EQ(loaded->NumCols(), 2u);
  EXPECT_EQ(loaded->column(0).numeric[1], 2.5);
  EXPECT_TRUE(std::isnan(loaded->column(0).numeric[2]));
  EXPECT_EQ(loaded->column(1).codes[2], -1);
  EXPECT_EQ(loaded->class_labels(), (std::vector<int>{0, 1, 1}));
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileReturnsIoError) {
  auto result = ReadCsv("/nonexistent/file.csv");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, MissingLabelColumnReturnsNotFound) {
  TabularDataset data(1);
  ASSERT_TRUE(data.AddNumericColumn("x", {1.0}).ok());
  const std::string path = ::testing::TempDir() + "/gnn4tdl_csv_nolabel.csv";
  ASSERT_TRUE(WriteCsv(data, path).ok());
  CsvReadOptions opts;
  opts.label_column = "label";
  auto result = ReadCsv(path, opts);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(CsvTest, ClassLabelMustBeAnIntegerBelowTheRowCount) {
  // A huge label used to size the class count (bad_alloc), a fractional one
  // silently truncated, and nan / 1e300 were an out-of-range float-to-int
  // cast.
  for (const char* label : {"2000000000", "1.5", "nan", "1e300"}) {
    const std::string path = ::testing::TempDir() + "/gnn4tdl_csv_label.csv";
    {
      std::ofstream out(path);
      out << "x,label\n1.0,0\n2.0," << label << "\n3.0,1\n";
    }
    CsvReadOptions opts;
    opts.label_column = "label";
    auto result = ReadCsv(path, opts);
    ASSERT_FALSE(result.ok()) << label;
    EXPECT_EQ(result.status().code(), StatusCode::kIoError) << label;
    EXPECT_NE(result.status().message().find("row 3"), std::string::npos)
        << result.status().ToString();
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace gnn4tdl
