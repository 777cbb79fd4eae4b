#include "common/status.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "nn/ops.h"
#include "tensor/matrix.h"

namespace gnn4tdl {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kInternal, StatusCode::kUnimplemented,
        StatusCode::kIoError}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::vector<int>> v = std::vector<int>{1, 2, 3};
  std::vector<int> out = std::move(v).value();
  EXPECT_EQ(out.size(), 3u);
}

TEST(StatusOrTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::Internal("inner"); };
  auto outer = [&]() -> Status {
    GNN4TDL_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Int(0, 1000), b.Int(0, 1000));
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, NormalMomentsApproximately) {
  Rng rng(2);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(1.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, IntInclusiveBounds) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Int(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(3));
}

TEST(RngTest, BernoulliRate) {
  Rng rng(4);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(5);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 4000; ++i)
    counts[rng.Categorical(weights)]++;
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.5);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(6);
  std::vector<size_t> perm = rng.Permutation(50);
  std::vector<size_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(7);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(20, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (size_t v : sample) EXPECT_LT(v, 20u);
}

// --- Stream identity: the in-library engine is std::mt19937_64 -------------

constexpr uint64_t kSeeds[] = {0, 1, 5489, ~uint64_t{0}};

TEST(RngTest, EngineMatchesStdMt19937_64) {
  for (uint64_t seed : kSeeds) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(engine(), reference()) << "seed " << seed << " output " << i;
    }
  }
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
  static_assert(std::is_same_v<Mt19937_64::result_type,
                               std::mt19937_64::result_type>);
}

// The standard's own check ([rand.predef]): the 10000th invocation of a
// default-constructed mt19937_64 produces 9981545732273789042.
TEST(RngTest, TenThousandthOutputOfDefaultSeed) {
  Mt19937_64 engine;
  uint64_t out = 0;
  for (int i = 0; i < 10000; ++i) out = engine();
  EXPECT_EQ(out, 9981545732273789042ULL);
  std::mt19937_64 reference;
  reference.discard(9999);
  EXPECT_EQ(reference(), 9981545732273789042ULL);
}

// Every distribution Rng draws from sees the std engine's stream.
TEST(RngTest, DistributionsDrawTheStdEnginesValues) {
  for (uint64_t seed : kSeeds) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 50; ++i) {
      const double u = rng.Uniform(-1.0, 2.0);
      EXPECT_EQ(u,
                std::uniform_real_distribution<double>(-1.0, 2.0)(reference));
      const double z = rng.Normal(0.5, 2.0);
      EXPECT_EQ(z, std::normal_distribution<double>(0.5, 2.0)(reference));
      const int64_t k = rng.Int(-3, 1000);
      EXPECT_EQ(k,
                std::uniform_int_distribution<int64_t>(-3, 1000)(reference));
      const bool b = rng.Bernoulli(0.3);
      EXPECT_EQ(b, std::bernoulli_distribution(0.3)(reference));
      const std::vector<double> w = {0.5, 0.0, 2.0, 1.0};
      const size_t c = rng.Categorical(w);
      EXPECT_EQ(c, std::discrete_distribution<size_t>(w.begin(), w.end())(
                       reference));
    }
  }
}

// Bulk draws of every length around the 312-word block edge, interleaved with
// single draws, equal successive operator() calls; at every tier's block
// function, and the engine continues the same stream afterwards.
TEST(RngTest, BulkDrawsEqualSuccessiveCalls) {
  const size_t kLengths[] = {0, 1, 3, 4, 5, 311, 312, 313, 1000};
  std::vector<Mt19937_64::BlockFn> blocks = {&Mt19937_64::TwistAndTemper};
  for (kernels::SimdLevel level :
       {kernels::SimdLevel::kScalar, kernels::SimdLevel::kAvx2}) {
    const kernels::KernelTable* table = kernels::GetKernelTable(level);
    if (table != nullptr) blocks.push_back(table->mt64_block);
  }
  for (Mt19937_64::BlockFn block : blocks) {
    for (uint64_t seed : kSeeds) {
      Mt19937_64 bulk(seed);
      std::mt19937_64 reference(seed);
      for (int round = 0; round < 3; ++round) {
        for (size_t n : kLengths) {
          std::vector<uint64_t> out(n + 1, 0);
          bulk.Generate(out.data(), n, block);
          for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(out[i], reference())
                << "seed " << seed << " length " << n << " index " << i;
          }
          EXPECT_EQ(out[n], 0u) << "wrote past the requested length";
          ASSERT_EQ(bulk(), reference()) << "single draw after " << n;
        }
      }
    }
  }
}

// --- Dropout draws its mask from the same stream ---------------------------

TEST(DropoutTest, KeepThresholdSplitsBernoulliExactly) {
  struct Fixed {
    using result_type = uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~uint64_t{0}; }
    result_type operator()() const { return draw; }
    result_type draw;
  };
  for (double p : {1e-300, 0.1, 0.5, 1.0 - std::ldexp(1.0, -53),
                   std::nextafter(1.0, 0.0)}) {
    const uint64_t t = ops::DropoutKeepThreshold(p);
    std::bernoulli_distribution drop(p);
    Fixed below{t - 1};
    Fixed at{t};
    ASSERT_GT(t, 0u) << "p=" << p;
    EXPECT_TRUE(drop(below)) << "p=" << p << ": draw T-1 must drop";
    EXPECT_FALSE(drop(at)) << "p=" << p << ": draw T must keep";
  }
}

TEST(DropoutTest, MaskEqualsPerElementBernoulli) {
  for (double p : {1e-300, 0.1, 0.5, 1.0 - std::ldexp(1.0, -53),
                   std::nextafter(1.0, 0.0)}) {
    for (uint64_t seed : kSeeds) {
      // 23 x 31 = 713 elements: more than two engine blocks, not a multiple
      // of one. Input 1.0 everywhere, so the output is the mask itself.
      const size_t rows = 23, cols = 31;
      Rng rng(seed);
      // Start mid-block so the bulk draw has a head, whole blocks and a tail.
      for (int i = 0; i < 7; ++i) (void)rng.engine()();
      Tensor x = Tensor::Leaf(Matrix(rows, cols, 1.0), true);
      Tensor y = ops::Dropout(x, p, rng, /*training=*/true);

      std::mt19937_64 reference(seed);
      reference.discard(7);
      const double keep_scale = 1.0 / (1.0 - p);
      const uint64_t t = ops::DropoutKeepThreshold(p);
      for (size_t i = 0; i < rows; ++i) {
        for (size_t j = 0; j < cols; ++j) {
          // The draw behind this element, seen both ways.
          std::mt19937_64 peek = reference;
          const uint64_t draw = peek();
          const bool dropped = std::bernoulli_distribution(p)(reference);
          EXPECT_EQ(dropped, draw < t);
          const double want = dropped ? 0.0 : keep_scale;
          const double got = y.value()(i, j);
          ASSERT_EQ(0, std::memcmp(&want, &got, sizeof(double)))
              << "p=" << p << " seed " << seed << " (" << i << ", " << j
              << ")";
        }
      }
      EXPECT_EQ(rng.engine()(), reference()) << "p=" << p << " seed " << seed;
    }
  }
}

TEST(CheckDeathTest, ChecksAbortOnViolation) {
  EXPECT_DEATH(GNN4TDL_CHECK(false), "GNN4TDL_CHECK failed");
  EXPECT_DEATH(GNN4TDL_CHECK_EQ(1, 2), "GNN4TDL_CHECK failed");
  EXPECT_DEATH(GNN4TDL_CHECK_MSG(false, "custom context"), "custom context");
}

TEST(CheckDeathTest, MatrixBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_DEATH(m(2, 0), "GNN4TDL_CHECK failed");
  EXPECT_DEATH(m(0, 5), "GNN4TDL_CHECK failed");
}

}  // namespace
}  // namespace gnn4tdl
