#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/metrics.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tabular.h"
#include "data/transforms.h"
#include "models/knn_gnn.h"
#include "serve/frozen_model.h"

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

// A column fitted as a 3-wide one-hot block that arrives numeric is an
// error naming the column, not a process abort or a misaligned row.
TEST(FeaturizerTest, NumericColumnFittedAsCategoricalIsRejected) {
  TabularDataset fit(4);
  ASSERT_TRUE(fit.AddCategoricalColumn("color", {0, 1, 2, 1},
                                       {"red", "green", "blue"}).ok());
  ASSERT_TRUE(fit.AddNumericColumn("x", {1, 2, 3, 4}).ok());
  Featurizer featurizer;
  ASSERT_TRUE(featurizer.Fit(fit).ok());

  TabularDataset request(2);
  ASSERT_TRUE(request.AddNumericColumn("color", {3.0, 1.0}).ok());
  ASSERT_TRUE(request.AddNumericColumn("x", {1, 2}).ok());
  StatusOr<Matrix> x = featurizer.Transform(request);
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(x.status().message().find("'color'"), std::string::npos)
      << x.status().ToString();
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

// Writes `text` as a file and reads it back with `label` as the label column.
StatusOr<TabularDataset> ReadCsvText(const std::string& text,
                                     const std::string& label = "",
                                     bool regression = false) {
  const std::string path = ::testing::TempDir() + "/gnn4tdl_csv_cells.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  CsvReadOptions opts;
  opts.label_column = label;
  opts.regression_label = regression;
  StatusOr<TabularDataset> result = ReadCsv(path, opts);
  std::remove(path.c_str());
  return result;
}

// WriteCsv prints 17 significant digits, so every finite double -- in a
// feature column and as a regression label -- reads back with the same bits.
TEST(CsvTest, RoundTripIsBitExactForFiniteDoubles) {
  using Limits = std::numeric_limits<double>;
  const std::vector<double> special = {
      0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, Limits::denorm_min(),
      -Limits::denorm_min(), Limits::min() - Limits::denorm_min(),
      Limits::min(), Limits::max(), Limits::lowest(), 0.12345678912345,
      1234567.891};
  constexpr size_t kRows = 1000;
  constexpr size_t kCols = 10;
  Rng rng(2027);
  auto draw = [&](size_t i) {
    if (i < special.size()) return special[i];
    for (;;) {
      uint64_t bits = static_cast<uint64_t>(rng.Int(0, 0xffffffff)) << 32 |
                      static_cast<uint64_t>(rng.Int(0, 0xffffffff));
      // Every fourth draw is subnormal: a zero exponent field.
      if (i % 4 == 0) bits &= ~(uint64_t{0x7ff} << 52);
      const double v = std::bit_cast<double>(bits);
      if (std::isfinite(v)) return v;
    }
  };

  TabularDataset data(kRows);
  for (size_t c = 0; c < kCols; ++c) {
    std::vector<double> values(kRows);
    for (size_t r = 0; r < kRows; ++r) values[r] = draw(c * kRows + r);
    ASSERT_TRUE(data.AddNumericColumn("x" + std::to_string(c), values).ok());
  }
  std::vector<double> labels(kRows);
  for (size_t r = 0; r < kRows; ++r) labels[r] = draw(r);
  ASSERT_TRUE(data.SetRegressionLabels(labels).ok());

  const std::string path = ::testing::TempDir() + "/gnn4tdl_csv_bits.csv";
  ASSERT_TRUE(WriteCsv(data, path).ok());
  CsvReadOptions opts;
  opts.label_column = "label";
  opts.regression_label = true;
  StatusOr<TabularDataset> loaded = ReadCsv(path, opts);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->NumCols(), kCols);

  auto same_bits = [](const std::vector<double>& a,
                      const std::vector<double>& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
        ADD_FAILURE() << "row " << i << ": wrote " << a[i] << ", read "
                      << b[i];
        return false;
      }
    }
    return a.size() == b.size();
  };
  for (size_t c = 0; c < kCols; ++c) {
    ASSERT_EQ(loaded->column(c).type, ColumnType::kNumerical);
    EXPECT_TRUE(same_bits(data.column(c).numeric, loaded->column(c).numeric))
        << "column " << c;
  }
  EXPECT_TRUE(same_bits(labels, loaded->regression_labels()));
}

TEST(CsvTest, CellSpellings) {
  // Blanks around a number, one leading '+', and a bare leading or trailing
  // point still read as numbers.
  StatusOr<TabularDataset> numbers =
      ReadCsvText("x\n 2.5\n2.5 \n+2.5\n\t.5\n5.\n-0\n");
  ASSERT_TRUE(numbers.ok()) << numbers.status().ToString();
  ASSERT_EQ(numbers->column(0).type, ColumnType::kNumerical);
  EXPECT_EQ(numbers->column(0).numeric,
            (std::vector<double>{2.5, 2.5, 2.5, 0.5, 5.0, -0.0}));

  // The five markers and any NaN spelling are missing numbers.
  StatusOr<TabularDataset> missing =
      ReadCsvText("x,y\n1,1\nNAN,2\n-nan,3\nNA,4\n?,5\n,6\nnan,7\n");
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  ASSERT_EQ(missing->column(0).type, ColumnType::kNumerical);
  EXPECT_EQ(missing->column(0).numeric[0], 1.0);
  for (size_t r = 1; r < 7; ++r) EXPECT_TRUE(missing->column(0).IsMissing(r));

  // Hex and words are text, so the column is categorical; there "inf" is
  // just a category and a marker is still missing.
  for (const char* text : {"0x10", "red", "+", "1e", "--1", "+-1"}) {
    StatusOr<TabularDataset> data =
        ReadCsvText(std::string("x\n1\n") + text + "\ninf\nNA\n");
    ASSERT_TRUE(data.ok()) << text << ": " << data.status().ToString();
    const Column& col = data->column(0);
    ASSERT_EQ(col.type, ColumnType::kCategorical) << text;
    EXPECT_EQ(col.categories,
              (std::vector<std::string>{"1", text, "inf"}));
    EXPECT_EQ(col.codes, (std::vector<int>{0, 1, 2, -1}));
  }

  // An infinite or out-of-range number in a numerical column is an error
  // naming the file, its row, the column and the value.
  for (const char* text : {"inf", "-Infinity", "1e999", "1e-999", "+INF"}) {
    StatusOr<TabularDataset> data =
        ReadCsvText(std::string("x,y\n1,a\n\n2,b\n") + text + ",c\n");
    ASSERT_FALSE(data.ok()) << text;
    EXPECT_EQ(data.status().code(), StatusCode::kIoError);
    const std::string& message = data.status().message();
    for (const std::string& part :
         {std::string("gnn4tdl_csv_cells.csv"), std::string("row 5"),
          std::string("column 'x'"), "'" + std::string(text) + "'"}) {
      EXPECT_NE(message.find(part), std::string::npos)
          << part << " not in: " << message;
    }
  }
}

TEST(CsvTest, CrlfAndBlankLinesKeepFileRowNumbers) {
  StatusOr<TabularDataset> data =
      ReadCsvText("x,c,label\r\n1.5,a,0\r\n\r\n\n2.5,b ,1\r\n\r\n",
                  "label");
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  ASSERT_EQ(data->NumRows(), 2u);
  EXPECT_EQ(data->column(0).numeric, (std::vector<double>{1.5, 2.5}));
  EXPECT_EQ(data->column(1).categories, (std::vector<std::string>{"a", "b "}));
  EXPECT_EQ(data->class_labels(), (std::vector<int>{0, 1}));

  // Errors name the file line, blank lines included.
  StatusOr<TabularDataset> short_row = ReadCsvText("x,y\n1,2\n\n\n3\n");
  ASSERT_FALSE(short_row.ok());
  EXPECT_NE(short_row.status().message().find("row 5 has 1 cells, expected 2"),
            std::string::npos)
      << short_row.status().ToString();
  StatusOr<TabularDataset> label =
      ReadCsvText("x,label\r\n\r\n1,0\r\n2,NA\r\n", "label");
  ASSERT_FALSE(label.ok());
  EXPECT_NE(label.status().message().find("row 4"), std::string::npos)
      << label.status().ToString();
  StatusOr<TabularDataset> target =
      ReadCsvText("x,y\n1,0.5\n\n2,nan\n", "y", /*regression=*/true);
  ASSERT_FALSE(target.ok());
  EXPECT_NE(target.status().message().find("row 4"), std::string::npos)
      << target.status().ToString();
}

TEST(CsvTest, WriteRejectsDelimitersAndLineBreaksInNamesAndCategories) {
  const std::string path = ::testing::TempDir() + "/gnn4tdl_csv_reject.csv";
  {
    TabularDataset data(1);
    ASSERT_TRUE(data.AddNumericColumn("a,b", {1.0}).ok());
    EXPECT_EQ(WriteCsv(data, path).code(), StatusCode::kInvalidArgument);
  }
  for (const char* category : {"x,y", "x\ny", "x\r"}) {
    TabularDataset data(1);
    ASSERT_TRUE(data.AddCategoricalColumn("c", {0}, {category}).ok());
    Status written = WriteCsv(data, path);
    EXPECT_EQ(written.code(), StatusCode::kInvalidArgument) << category;
    EXPECT_NE(written.message().find(category), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(CsvTest, WriteRejectsCategoriesThatReadBackAsSomethingElse) {
  const std::string path = ::testing::TempDir() + "/gnn4tdl_csv_readback.csv";
  // A missing marker reads back as a missing cell.
  for (const char* marker : {"", "NA", "NaN", "nan", "?"}) {
    TabularDataset data(2);
    ASSERT_TRUE(data.AddCategoricalColumn("c", {0, 1}, {"red", marker}).ok());
    Status written = WriteCsv(data, path);
    EXPECT_EQ(written.code(), StatusCode::kInvalidArgument) << marker;
    EXPECT_NE(written.message().find("column 'c' category '" +
                                     std::string(marker) + "'"),
              std::string::npos)
        << written.ToString();
  }
  {
    // Zip codes: every written cell is a number, so the column would read
    // back numerical.
    TabularDataset data(3);
    ASSERT_TRUE(
        data.AddCategoricalColumn("zip", {0, 1, -1}, {"10115", "20095"}).ok());
    Status written = WriteCsv(data, path);
    EXPECT_EQ(written.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(written.message().find("'zip'"), std::string::npos);
    EXPECT_NE(written.message().find("'10115'"), std::string::npos)
        << written.ToString();
  }
  {
    // One written text cell keeps the column categorical.
    TabularDataset data(2);
    ASSERT_TRUE(
        data.AddCategoricalColumn("zip", {0, 1}, {"10115", "unknown"}).ok());
    ASSERT_TRUE(WriteCsv(data, path).ok());
    StatusOr<TabularDataset> loaded = ReadCsv(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->column(0).type, ColumnType::kCategorical);
    EXPECT_EQ(loaded->column(0).categories,
              (std::vector<std::string>{"10115", "unknown"}));
  }
  std::remove(path.c_str());
}

// Seeded mutants of a small labelled CSV -- bit flips, truncation, inserted
// and deleted delimiters, CRs, blank lines, a repeated header, odd cells and
// huge labels -- must each read to a dataset or a typed error, and a dataset
// must score through a frozen GCN to logits or a typed error. (A column that
// is numerical at fit and categorical here still scores without an error;
// that is not asserted.)
TEST(CsvTest, MutatedFilesReadAndScoreToTypedErrors) {
  Rng rng(11);
  std::string original = "a,b,c,label\n";
  const char* colors[] = {"red", "green", "blue"};
  for (int r = 0; r < 12; ++r) {
    const int y = r % 2;
    original += std::to_string(rng.Normal(y, 1.0)) + "," +
                std::to_string(rng.Normal(-y, 1.0)) + "," +
                colors[static_cast<size_t>(rng.Int(0, 2))] + "," +
                std::to_string(y) + "\n";
  }
  CsvReadOptions opts;
  opts.label_column = "label";

  StatusOr<TabularDataset> train = ReadCsvText(original, "label");
  ASSERT_TRUE(train.ok()) << train.status().ToString();
  InstanceGraphGnnOptions options;
  options.backbone = GnnBackbone::kGcn;
  options.hidden_dim = 8;
  options.knn.k = 3;
  options.train.max_epochs = 3;
  options.seed = 5;
  InstanceGraphGnn model(options);
  Rng split_rng(3);
  ASSERT_TRUE(
      model.Fit(*train, StratifiedSplit(train->class_labels(), 0.6, 0.2,
                                        split_rng))
          .ok());
  std::stringstream artifact;
  ASSERT_TRUE(FrozenModel::Save(model, artifact).ok());
  StatusOr<FrozenModel> frozen = FrozenModel::Load(artifact);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();

  auto typed = [](const Status& s) {
    return s.ok() || s.code() == StatusCode::kIoError ||
           s.code() == StatusCode::kNotFound ||
           s.code() == StatusCode::kInvalidArgument;
  };
  const std::vector<std::string> odd_cells = {
      "inf", "1e999", "99999999999999999999", "1e308", "-1", "nan", "",
      "NA",  "2147483648", "red", "0x1p3", "+", " 7 "};
  const size_t header_end = original.find('\n') + 1;
  auto at = [&](const std::string& s) {
    return static_cast<size_t>(rng.Int(0, static_cast<int64_t>(s.size())));
  };
  auto line_start = [&](const std::string& s) {
    const size_t nl = s.rfind('\n', at(s));
    return nl == std::string::npos ? 0 : nl + 1;
  };
  size_t read_ok = 0;
  size_t scored = 0;
  const std::string path = ::testing::TempDir() + "/gnn4tdl_csv_mutant.csv";
  for (int i = 0; i < 2000; ++i) {
    std::string text = original;
    for (int m = static_cast<int>(rng.Int(1, 3)); m > 0 && !text.empty(); --m) {
      switch (rng.Int(0, 8)) {
        case 0: {  // bit flip
          char& byte = text[at(text) % text.size()];
          byte = static_cast<char>(byte ^ (1 << rng.Int(0, 7)));
          break;
        }
        case 1:  // truncation
          text.resize(at(text));
          break;
        case 2:  // inserted delimiter
          text.insert(at(text), 1, ',');
          break;
        case 3: {  // deleted delimiter
          const size_t comma = text.find(',', at(text));
          if (comma != std::string::npos) text.erase(comma, 1);
          break;
        }
        case 4:  // CR
          text.insert(at(text), 1, '\r');
          break;
        case 5:  // blank lines
          text.insert(line_start(text), rng.Bernoulli(0.5) ? "\n" : "\r\n\n");
          break;
        case 6:  // repeated header
          text.insert(line_start(text), original.substr(0, header_end));
          break;
        case 7: {  // huge label: the last cell of a line
          const size_t end = text.find('\n', at(text));
          if (end == std::string::npos) break;
          const size_t start = text.rfind(',', end);
          if (start == std::string::npos) break;
          text.replace(start + 1, end - start - 1,
                       rng.Bernoulli(0.5) ? "99999999999999999999" : "1e308");
          break;
        }
        default: {  // odd cell
          const size_t start = text.find(',', at(text));
          if (start == std::string::npos) break;
          const size_t end = text.find_first_of(",\n", start + 1);
          text.replace(start + 1,
                       (end == std::string::npos ? text.size() : end) -
                           start - 1,
                       odd_cells[static_cast<size_t>(rng.Int(
                           0, static_cast<int64_t>(odd_cells.size()) - 1))]);
          break;
        }
      }
    }
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    StatusOr<TabularDataset> data = ReadCsv(path, opts);
    ASSERT_TRUE(typed(data.status())) << data.status().ToString() << "\n"
                                      << text;
    if (!data.ok()) continue;
    ++read_ok;
    StatusOr<Matrix> logits = frozen->Score(*data);
    ASSERT_TRUE(typed(logits.status())) << logits.status().ToString() << "\n"
                                        << text;
    scored += logits.ok();
  }
  std::remove(path.c_str());
  // The mutants reach both the reader's errors and the scoring path.
  EXPECT_GT(read_ok, 100u);
  EXPECT_LT(read_ok, 1900u);
  EXPECT_GT(scored, 100u);
}

}  // namespace
}  // namespace gnn4tdl
