#include "common/status.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "common/text_io.h"
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

// --- BoundedReader / TextWriter ---------------------------------------------

TEST(TextIoTest, WriterDoublesMatchOstreamAtPrecision17AndReadBackExactly) {
  std::vector<double> values = {0.0,     -0.0,    0.1,     1.0 / 3.0,
                                1e-300,  5e-324,  1e16,    1e17,
                                1e-5,    1e-4,    12345.0, -2.5e-310,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest()};
  std::mt19937_64 bits(11);
  while (values.size() < 20000) {
    const uint64_t word = bits();
    double v;
    std::memcpy(&v, &word, sizeof(v));
    if (std::isfinite(v)) values.push_back(v);
  }
  TextWriter writer;
  std::ostringstream stream;
  stream.precision(17);
  for (double v : values) {
    writer << v << '\n';
    stream << v << '\n';
  }
  ASSERT_EQ(writer.str(), stream.str());

  BoundedReader reader(writer.str(), "doubles");
  for (double want : values) {
    double got = 0.0;
    ASSERT_TRUE(reader.Double("value", &got).ok());
    ASSERT_EQ(std::memcmp(&got, &want, sizeof(got)), 0) << want;
  }
  EXPECT_TRUE(reader.Token().empty());
}

TEST(TextIoTest, WriterIntegersAndWords) {
  TextWriter writer;
  writer << "n " << size_t{18446744073709551615u} << ' ' << -7 << '\n';
  EXPECT_EQ(writer.str(), "n 18446744073709551615 -7\n");
}

TEST(TextIoTest, DoubleRejectsNonFiniteAndPartialTokensNamingTheLine) {
  for (const char* bad : {"nan", "inf", "-inf", "infinity", "1.5x", "0x10"}) {
    const std::string text = std::string("1\n\n") + bad + " 2\n";
    BoundedReader reader(text, "test block");
    double v = 0.0;
    ASSERT_TRUE(reader.Double("first", &v).ok());
    const Status s = reader.Double("weight", &v);
    ASSERT_EQ(s.code(), StatusCode::kIoError) << bad;
    EXPECT_EQ(s.message(), std::string("test block line 3: weight '") + bad +
                               "' is not a finite number");
    EXPECT_EQ(v, 1.0);
  }
  BoundedReader empty("  \n", "test block");
  double v = 0.0;
  const Status s = empty.Double("weight", &v);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.message(), "test block line 2: truncated before weight");
}

TEST(TextIoTest, SizeHoldsCountsToCapAndBytesLeft) {
  // 10 bytes follow the count: room for 5 items of 2 bytes, not 6.
  const std::string tail = " 1 2 3 4 5";
  for (const auto& [count, ok] :
       {std::pair<const char*, bool>{"5", true}, {"6", false}}) {
    const std::string text = std::string(count) + tail;
    BoundedReader reader(text, "block");
    size_t n = 0;
    const Status s = reader.Size("items", 2, 100, &n);
    EXPECT_EQ(s.ok(), ok) << count;
    if (!ok) {
      EXPECT_EQ(s.message(),
                "block line 1: items '6' exceeds the limit 5 that the 10 "
                "bytes left hold at 2 bytes each");
    }
  }
  BoundedReader capped("101", "block");
  size_t n = 0;
  EXPECT_EQ(capped.Size("items", 0, 100, &n).message(),
            "block line 1: items '101' exceeds the limit 100");
  for (const char* bad : {"-1", "1e3", "18446744073709551616"}) {
    BoundedReader reader(bad, "block");
    EXPECT_EQ(reader.Size("items", 0, SIZE_MAX, &n).code(),
              StatusCode::kIoError)
        << bad;
  }
}

TEST(TextIoTest, ExpectLineEndsAndComments) {
  BoundedReader reader("magic 3\n# note\n4 5\n", "block");
  EXPECT_TRUE(reader.Expect("magic").ok());
  size_t n = 0;
  ASSERT_TRUE(reader.Integer("n", &n).ok());
  EXPECT_TRUE(reader.AtLineEnd());
  EXPECT_EQ(reader.Peek(), '#');
  reader.SkipLine();
  ASSERT_TRUE(reader.Integer("n", &n).ok());
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(reader.line(), 3u);
  EXPECT_FALSE(reader.AtLineEnd());
  EXPECT_EQ(reader.Expect("6").message(),
            "block line 3: field '5' is not the expected '6'");
  EXPECT_EQ(reader.Expect("7").message(),
            "block line 4: truncated before '7'");
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(TextIoTest, ReadAllTakesTheRestOfTheStream) {
  std::string big(70000, 'x');
  std::istringstream in("head " + big);
  std::string head;
  in >> head;
  EXPECT_EQ(ReadAll(in), " " + big);
  EXPECT_TRUE(in.eof());
}

TEST(TextIoTest, ParseWholeNumberNeedsTheWholeToken) {
  int i = 0;
  EXPECT_TRUE(ParseWholeNumber("-12", &i));
  EXPECT_EQ(i, -12);
  EXPECT_FALSE(ParseWholeNumber("12 ", &i));
  EXPECT_FALSE(ParseWholeNumber("", &i));
  EXPECT_FALSE(ParseWholeNumber("99999999999", &i));
  double d = 0.0;
  EXPECT_TRUE(ParseWholeNumber("2.5e-3", &d));
  EXPECT_EQ(d, 2.5e-3);
  EXPECT_FALSE(ParseWholeNumber("nan", &d));
  EXPECT_FALSE(ParseWholeNumber("1e999", &d));
}

}  // namespace
}  // namespace gnn4tdl
