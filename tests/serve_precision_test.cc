// FrozenModel precision tier: artifact versioning (v1 compatibility, v2
// precision field round trip, corrupt-field errors) and f32-vs-f64 serving
// agreement across every served configuration (tests/served_configs.h), each
// served at f32.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "data/split.h"
#include "data/synthetic.h"
#include "kernels/kernels.h"
#include "models/knn_gnn.h"
#include "serve/frozen_model.h"
#include "served_configs.h"

namespace gnn4tdl {
namespace {

using kernels::Precision;

// Logit agreement bound between the f64 and f32 serving paths: two or three
// f32 matmul/SpMM reductions of width <= 16 accumulate well under this. The
// ROADMAP acceptance (AUROC delta <= 1e-3) is checked downstream in
// bench_serving; this is the per-logit building block.
constexpr double kLogitTol = 1e-3;

InstanceGraphGnnOptions Options(GnnBackbone backbone) {
  InstanceGraphGnnOptions options;
  options.backbone = backbone;
  options.hidden_dim = 16;
  options.num_layers = 2;
  options.knn.k = 8;
  options.train.max_epochs = 30;
  options.train.verbose = false;
  options.seed = 3;
  return options;
}

TabularDataset TrainData() {
  return MakeClusters({.num_rows = 200,
                       .num_classes = 3,
                       .dim_informative = 6,
                       .dim_noise = 2,
                       .seed = 7});
}

TabularDataset FreshRows(size_t n) {
  return MakeClusters({.num_rows = n,
                       .num_classes = 3,
                       .dim_informative = 6,
                       .dim_noise = 2,
                       .seed = 91});
}

Split TrainSplit(const TabularDataset& data) {
  Rng rng(17);
  return StratifiedSplit(data.class_labels(), 0.7, 0.15, rng);
}

std::unique_ptr<InstanceGraphGnn> TrainModel(InstanceGraphGnnOptions options) {
  TabularDataset data = TrainData();
  auto model = std::make_unique<InstanceGraphGnn>(std::move(options));
  EXPECT_TRUE(model->Fit(data, TrainSplit(data)).ok());
  return model;
}

std::string SaveToString(const InstanceGraphGnn& model, Precision precision) {
  std::stringstream out;
  EXPECT_TRUE(FrozenModel::Save(model, out, precision).ok());
  return out.str();
}

// --- f32 vs f64 serving agreement -------------------------------------------

class F32BackboneTest : public ::testing::TestWithParam<ServedConfig> {};

TEST_P(F32BackboneTest, F32LogitsMatchF64WithinTolerance) {
  InstanceGraphGnnOptions options = Options(GnnBackbone::kGcn);
  ApplyServedConfig(GetParam(), &options);
  if (options.backbone == GnnBackbone::kAppnp) options.appnp_steps = 4;
  std::unique_ptr<InstanceGraphGnn> model = TrainModel(std::move(options));
  const std::string artifact = SaveToString(*model, Precision::kF32);
  TabularDataset fresh = FreshRows(12);

  std::istringstream in_f32(artifact);
  StatusOr<FrozenModel> frozen_f32 = FrozenModel::Load(in_f32);
  ASSERT_TRUE(frozen_f32.ok()) << frozen_f32.status().ToString();
  EXPECT_EQ(frozen_f32->artifact_precision(), Precision::kF32);
  ASSERT_EQ(frozen_f32->precision(), Precision::kF32);

  // The same artifact forced onto the double path is the reference.
  FrozenModelOptions f64_options;
  f64_options.precision = Precision::kF64;
  std::istringstream in_f64(artifact);
  StatusOr<FrozenModel> frozen_f64 = FrozenModel::Load(in_f64, f64_options);
  ASSERT_TRUE(frozen_f64.ok()) << frozen_f64.status().ToString();
  ASSERT_EQ(frozen_f64->precision(), Precision::kF64);

  StatusOr<Matrix> got = frozen_f32->Score(fresh);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  StatusOr<Matrix> want = frozen_f64->Score(fresh);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(got->rows(), want->rows());
  ASSERT_EQ(got->cols(), want->cols());
  EXPECT_TRUE(got->AllClose(*want, kLogitTol))
      << "f32 logits diverged from f64 for " << ServedConfigName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllSupportedBackbones, F32BackboneTest,
                         ::testing::ValuesIn(AllServedConfigs()),
                         [](const auto& info) {
                           return ServedConfigName(info.param);
                         });

TEST(F32ServingTest, JumpingKnowledgeGcnMatches) {
  InstanceGraphGnnOptions options = Options(GnnBackbone::kGcn);
  options.use_jumping_knowledge = true;
  std::unique_ptr<InstanceGraphGnn> model = TrainModel(std::move(options));
  const std::string artifact = SaveToString(*model, Precision::kF32);
  TabularDataset fresh = FreshRows(8);

  std::istringstream in_f32(artifact);
  StatusOr<FrozenModel> frozen_f32 = FrozenModel::Load(in_f32);
  ASSERT_TRUE(frozen_f32.ok()) << frozen_f32.status().ToString();
  ASSERT_EQ(frozen_f32->precision(), Precision::kF32);

  FrozenModelOptions f64_options;
  f64_options.precision = Precision::kF64;
  std::istringstream in_f64(artifact);
  StatusOr<FrozenModel> frozen_f64 = FrozenModel::Load(in_f64, f64_options);
  ASSERT_TRUE(frozen_f64.ok());

  StatusOr<Matrix> got = frozen_f32->Score(fresh);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  StatusOr<Matrix> want = frozen_f64->Score(fresh);
  ASSERT_TRUE(want.ok());
  EXPECT_TRUE(got->AllClose(*want, kLogitTol));
}

TEST(F32ServingTest, OverrideForcesF32OnF64Artifact) {
  std::unique_ptr<InstanceGraphGnn> model = TrainModel(Options(GnnBackbone::kSage));
  const std::string artifact = SaveToString(*model, Precision::kF64);

  FrozenModelOptions options;
  options.precision = Precision::kF32;
  std::istringstream in(artifact);
  StatusOr<FrozenModel> frozen = FrozenModel::Load(in, options);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
  EXPECT_EQ(frozen->artifact_precision(), Precision::kF64);
  EXPECT_EQ(frozen->precision(), Precision::kF32);
}

// --- artifact versioning ----------------------------------------------------

TEST(FrozenVersioningTest, V2RoundTripsPrecisionField) {
  std::unique_ptr<InstanceGraphGnn> model = TrainModel(Options(GnnBackbone::kGcn));
  for (Precision p : {Precision::kF64, Precision::kF32}) {
    const std::string artifact = SaveToString(*model, p);
    EXPECT_NE(artifact.find("gnn4tdl-frozen-model-v2"), std::string::npos);
    EXPECT_NE(artifact.find(std::string("precision ") +
                            kernels::PrecisionName(p)),
              std::string::npos);
    std::istringstream in(artifact);
    StatusOr<FrozenModel> frozen = FrozenModel::Load(in);
    ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
    EXPECT_EQ(frozen->artifact_precision(), p);
  }
}

TEST(FrozenVersioningTest, V1ArtifactLoadsAsDouble) {
  std::unique_ptr<InstanceGraphGnn> model = TrainModel(Options(GnnBackbone::kGcn));
  std::string artifact = SaveToString(*model, Precision::kF64);

  // Reconstruct the v1 layout: old magic, no precision field.
  const std::string v2_magic = "gnn4tdl-frozen-model-v2";
  const std::string::size_type magic_at = artifact.find(v2_magic);
  ASSERT_NE(magic_at, std::string::npos);
  artifact.replace(magic_at, v2_magic.size(), "gnn4tdl-frozen-model-v1");
  const std::string precision_line = "precision f64\n";
  const std::string::size_type precision_at = artifact.find(precision_line);
  ASSERT_NE(precision_at, std::string::npos);
  artifact.erase(precision_at, precision_line.size());

  std::istringstream in(artifact);
  StatusOr<FrozenModel> frozen = FrozenModel::Load(in);
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
  EXPECT_EQ(frozen->artifact_precision(), Precision::kF64);
  EXPECT_EQ(frozen->precision(), Precision::kF64);

  TabularDataset fresh = FreshRows(5);
  StatusOr<Matrix> served = frozen->Score(fresh);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  StatusOr<Matrix> reference = model->PredictInductive(fresh);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(served->AllClose(*reference, 0.0));
}

TEST(FrozenVersioningTest, UnknownPrecisionIsCleanError) {
  std::unique_ptr<InstanceGraphGnn> model = TrainModel(Options(GnnBackbone::kGcn));
  std::string artifact = SaveToString(*model, Precision::kF32);
  const std::string::size_type at = artifact.find("precision f32");
  ASSERT_NE(at, std::string::npos);
  artifact.replace(at, std::string("precision f32").size(), "precision f16");

  std::istringstream in(artifact);
  StatusOr<FrozenModel> frozen = FrozenModel::Load(in);
  ASSERT_FALSE(frozen.ok());
  EXPECT_EQ(frozen.status().code(), StatusCode::kIoError);
  EXPECT_NE(frozen.status().message().find("f16"), std::string::npos);
}

TEST(FrozenVersioningTest, UnknownMagicIsInvalidArgument) {
  std::istringstream in("gnn4tdl-frozen-model-v99\ntask 1\n");
  StatusOr<FrozenModel> frozen = FrozenModel::Load(in);
  ASSERT_FALSE(frozen.ok());
  EXPECT_EQ(frozen.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gnn4tdl
