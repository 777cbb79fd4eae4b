// Kernel tier: f32 storage round-trips, f32-vs-double tolerance, and
// bit-exactness between the scalar and AVX2 dispatch tables (the f32
// kernels, the f64 kNN scan and the f64 training kernels).
//
// Tolerance contract (documented in docs/KERNELS.md): for the reduction
// depths serving uses (k <= a few hundred), every f32 kernel matches the
// double reference within 1e-5 relative of the result magnitude (scaled by
// the reduction length). The scalar and AVX2 tables are *bit-identical* on
// identical inputs — that is an equality check, not a tolerance.

#include "kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "kernels/fmatrix.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"

namespace gnn4tdl {
namespace {

using kernels::FAct;
using kernels::FCsr;
using kernels::FMatrix;
using kernels::KernelTable;
using kernels::SimdLevel;

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r)
    for (size_t c = 0; c < cols; ++c) m(r, c) = rng.Uniform(-1.0, 1.0);
  return m;
}

SparseMatrix RandomSparse(size_t rows, size_t cols, double density, Rng& rng) {
  std::vector<Triplet> triplets;
  for (size_t r = 0; r < rows; ++r)
    for (size_t c = 0; c < cols; ++c)
      if (rng.Uniform(0.0, 1.0) < density)
        triplets.push_back({r, c, rng.Uniform(-1.0, 1.0)});
  return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

/// |a - b| <= tol * max(1, |b|), elementwise.
void ExpectClose(const FMatrix& got, const Matrix& want, double tol) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t r = 0; r < got.rows(); ++r) {
    for (size_t c = 0; c < got.cols(); ++c) {
      const double g = static_cast<double>(got(r, c));
      const double w = want(r, c);
      EXPECT_NEAR(g, w, tol * std::max(1.0, std::abs(w)))
          << "at (" << r << ", " << c << ")";
    }
  }
}

void ExpectBitIdentical(const FMatrix& a, const FMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
}

// f32 accumulating k products: error ~ k * eps_f32; 1e-5 relative covers the
// k <= 128 shapes exercised here with a healthy margin.
constexpr double kF32Tol = 1e-5;

TEST(FMatrixTest, DoubleRoundTrip) {
  Rng rng(7);
  Matrix m = RandomMatrix(5, 9, rng);
  FMatrix f = FMatrix::FromDouble(m);
  Matrix back = f.ToDouble();
  for (size_t r = 0; r < m.rows(); ++r)
    for (size_t c = 0; c < m.cols(); ++c)
      EXPECT_DOUBLE_EQ(back(r, c), static_cast<double>(static_cast<float>(m(r, c))));
}

TEST(FMatrixTest, SetRowVariants) {
  Rng rng(8);
  Matrix m = RandomMatrix(3, 4, rng);
  FMatrix src = FMatrix::FromDouble(m);
  FMatrix dst(2, 4);
  dst.SetRow(0, src, 2);
  dst.SetRowFromDouble(1, m.row_data(1));
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(dst(0, c), src(2, c));
    EXPECT_EQ(dst(1, c), static_cast<float>(m(1, c)));
  }
}

TEST(FCsrTest, FromDoublePreservesStructure) {
  Rng rng(9);
  SparseMatrix s = RandomSparse(6, 5, 0.4, rng);
  FCsr f = FCsr::FromDouble(s);
  EXPECT_EQ(f.rows, s.rows());
  EXPECT_EQ(f.cols, s.cols());
  ASSERT_EQ(f.nnz(), s.nnz());
  for (size_t i = 0; i < s.nnz(); ++i) {
    EXPECT_EQ(f.col_idx[i], static_cast<uint32_t>(s.col_idx()[i]));
    EXPECT_EQ(f.values[i], static_cast<float>(s.values()[i]));
  }
}

TEST(PrecisionTest, NamesRoundTrip) {
  EXPECT_STREQ("f32", kernels::PrecisionName(kernels::Precision::kF32));
  EXPECT_STREQ("f64", kernels::PrecisionName(kernels::Precision::kF64));
  StatusOr<kernels::Precision> p = kernels::PrecisionFromName("f32");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, kernels::Precision::kF32);
  EXPECT_FALSE(kernels::PrecisionFromName("f16").ok());
}

TEST(DispatchTest, ScalarTableAlwaysAvailable) {
  const KernelTable* scalar = kernels::GetKernelTable(SimdLevel::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->level, SimdLevel::kScalar);
  EXPECT_NE(scalar->matmul, nullptr);
  EXPECT_NE(scalar->matmul_nt, nullptr);
  EXPECT_NE(scalar->spmm, nullptr);
  EXPECT_NE(scalar->bias_act, nullptr);
  EXPECT_NE(scalar->scale_add, nullptr);
  EXPECT_NE(scalar->spmm_bias_act, nullptr);
  EXPECT_NE(scalar->mt64_block, nullptr);
  // Dispatch() always resolves to *some* complete table.
  EXPECT_NE(kernels::Dispatch().matmul, nullptr);
}

// --- f32 vs double reference ------------------------------------------------

TEST(KernelToleranceTest, MatmulMatchesDouble) {
  Rng rng(11);
  for (size_t n : {1u, 7u, 8u, 17u, 32u}) {
    Matrix a = RandomMatrix(9, 13, rng);
    Matrix b = RandomMatrix(13, n, rng);
    FMatrix fa = FMatrix::FromDouble(a), fb = FMatrix::FromDouble(b);
    FMatrix out;
    kernels::Matmul(fa, fb, &out);
    ExpectClose(out, a.Matmul(b), kF32Tol);
  }
}

TEST(KernelToleranceTest, MatmulNtMatchesDouble) {
  Rng rng(12);
  for (size_t k : {1u, 5u, 8u, 9u, 24u, 67u}) {
    Matrix a = RandomMatrix(6, k, rng);
    Matrix b = RandomMatrix(4, k, rng);
    FMatrix fa = FMatrix::FromDouble(a), fb = FMatrix::FromDouble(b);
    FMatrix out;
    kernels::MatmulNt(fa, fb, &out);
    // Reference: a * b^T in double.
    Matrix want(a.rows(), b.rows());
    for (size_t i = 0; i < a.rows(); ++i)
      for (size_t j = 0; j < b.rows(); ++j) {
        double acc = 0.0;
        for (size_t kk = 0; kk < k; ++kk) acc += a(i, kk) * b(j, kk);
        want(i, j) = acc;
      }
    ExpectClose(out, want, kF32Tol);
  }
}

TEST(KernelToleranceTest, SpmmMatchesDouble) {
  Rng rng(13);
  for (size_t n : {1u, 8u, 11u}) {
    SparseMatrix s = RandomSparse(12, 10, 0.3, rng);
    Matrix x = RandomMatrix(10, n, rng);
    FCsr fs = FCsr::FromDouble(s);
    FMatrix fx = FMatrix::FromDouble(x);
    FMatrix out;
    kernels::Spmm(fs, fx, &out);
    ExpectClose(out, s.Multiply(x), kF32Tol);
  }
}

TEST(KernelToleranceTest, SegmentSoftmaxMatchesDouble) {
  Rng rng(14);
  const size_t e_count = 40, groups = 7;
  std::vector<float> logits(e_count);
  std::vector<size_t> seg(e_count);
  Matrix dlogits(e_count, 1);
  for (size_t e = 0; e < e_count; ++e) {
    dlogits(e, 0) = rng.Uniform(-3.0, 3.0);
    logits[e] = static_cast<float>(dlogits(e, 0));
    seg[e] = e % groups;
  }
  std::vector<float> out;
  kernels::SegmentSoftmax(logits, seg, groups, &out);
  Matrix want = SegmentSoftmax(dlogits, seg, groups);
  for (size_t e = 0; e < e_count; ++e) {
    EXPECT_NEAR(static_cast<double>(out[e]), want(e, 0), kF32Tol);
  }
  // Per-group sums are 1.
  std::vector<double> sums(groups, 0.0);
  for (size_t e = 0; e < e_count; ++e) sums[seg[e]] += out[e];
  for (double s : sums) EXPECT_NEAR(s, 1.0, 1e-5);
}

TEST(KernelToleranceTest, BiasActMatchesReference) {
  Rng rng(15);
  Matrix m = RandomMatrix(5, 11, rng);
  std::vector<float> bias(11);
  for (size_t j = 0; j < 11; ++j) bias[j] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (FAct act : {FAct::kNone, FAct::kRelu, FAct::kLeakyRelu, FAct::kSigmoid,
                   FAct::kTanh}) {
    FMatrix x = FMatrix::FromDouble(m);
    kernels::BiasAct(&x, bias.data(), act);
    for (size_t r = 0; r < x.rows(); ++r)
      for (size_t c = 0; c < x.cols(); ++c) {
        const float want = kernels::detail::ApplyBiasAct(
            static_cast<float>(m(r, c)), bias[c], act, 0.2f);
        EXPECT_EQ(x(r, c), want);
      }
  }
}

TEST(KernelToleranceTest, ScaleAddMatchesDouble) {
  Rng rng(16);
  Matrix a = RandomMatrix(4, 9, rng), b = RandomMatrix(4, 9, rng);
  FMatrix fa = FMatrix::FromDouble(a), fb = FMatrix::FromDouble(b);
  FMatrix out;
  kernels::ScaleAdd(fa, 0.7f, fb, -1.3f, &out);
  for (size_t r = 0; r < 4; ++r)
    for (size_t c = 0; c < 9; ++c)
      EXPECT_NEAR(static_cast<double>(out(r, c)),
                  0.7 * a(r, c) - 1.3 * b(r, c), kF32Tol);
}

// --- scalar vs AVX2 bit-exactness -------------------------------------------

class SimdParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scalar_ = kernels::GetKernelTable(SimdLevel::kScalar);
    avx2_ = kernels::GetKernelTable(SimdLevel::kAvx2);
    ASSERT_NE(scalar_, nullptr);
    if (avx2_ == nullptr) {
      GTEST_SKIP() << "AVX2 table not available on this build/CPU";
    }
  }

  const KernelTable* scalar_ = nullptr;
  const KernelTable* avx2_ = nullptr;
};

TEST_F(SimdParityTest, MatmulBitIdentical) {
  Rng rng(21);
  // Column counts straddling the 8-lane width, including ragged tails.
  for (size_t n : {1u, 2u, 7u, 8u, 9u, 16u, 17u, 33u}) {
    Matrix a = RandomMatrix(5, 13, rng);
    Matrix b = RandomMatrix(13, n, rng);
    FMatrix fa = FMatrix::FromDouble(a), fb = FMatrix::FromDouble(b);
    FMatrix out_s(5, n), out_v(5, n);
    scalar_->matmul(fa, fb, &out_s);
    avx2_->matmul(fa, fb, &out_v);
    ExpectBitIdentical(out_s, out_v);
  }
}

TEST_F(SimdParityTest, MatmulNtBitIdentical) {
  Rng rng(22);
  for (size_t k : {1u, 3u, 8u, 9u, 15u, 16u, 17u, 64u, 67u}) {
    Matrix a = RandomMatrix(6, k, rng);
    Matrix b = RandomMatrix(5, k, rng);
    FMatrix fa = FMatrix::FromDouble(a), fb = FMatrix::FromDouble(b);
    FMatrix out_s(6, 5), out_v(6, 5);
    scalar_->matmul_nt(fa, fb, &out_s);
    avx2_->matmul_nt(fa, fb, &out_v);
    ExpectBitIdentical(out_s, out_v);
  }
}

TEST_F(SimdParityTest, SpmmBitIdentical) {
  Rng rng(23);
  for (size_t n : {1u, 7u, 8u, 9u, 17u}) {
    SparseMatrix s = RandomSparse(14, 12, 0.35, rng);
    Matrix x = RandomMatrix(12, n, rng);
    FCsr fs = FCsr::FromDouble(s);
    FMatrix fx = FMatrix::FromDouble(x);
    FMatrix out_s(14, n), out_v(14, n);
    scalar_->spmm(fs, fx, &out_s);
    avx2_->spmm(fs, fx, &out_v);
    ExpectBitIdentical(out_s, out_v);
  }
}

TEST_F(SimdParityTest, BiasActBitIdentical) {
  Rng rng(24);
  for (size_t n : {1u, 8u, 9u, 19u}) {
    Matrix m = RandomMatrix(4, n, rng);
    std::vector<float> bias(n);
    for (size_t j = 0; j < n; ++j)
      bias[j] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    for (FAct act : {FAct::kNone, FAct::kRelu, FAct::kLeakyRelu,
                     FAct::kSigmoid, FAct::kTanh}) {
      FMatrix x_s = FMatrix::FromDouble(m), x_v = FMatrix::FromDouble(m);
      scalar_->bias_act(&x_s, bias.data(), act, 0.2f);
      avx2_->bias_act(&x_v, bias.data(), act, 0.2f);
      ExpectBitIdentical(x_s, x_v);
    }
  }
}

TEST_F(SimdParityTest, SpmmBiasActBitIdentical) {
  Rng rng(26);
  for (size_t n : {1u, 7u, 8u, 9u, 17u}) {
    SparseMatrix s = RandomSparse(14, 12, 0.35, rng);
    Matrix x = RandomMatrix(12, n, rng);
    std::vector<float> bias(n);
    for (size_t j = 0; j < n; ++j)
      bias[j] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    FCsr fs = FCsr::FromDouble(s);
    FMatrix fx = FMatrix::FromDouble(x);
    for (FAct act : {FAct::kNone, FAct::kRelu, FAct::kLeakyRelu,
                     FAct::kSigmoid, FAct::kTanh}) {
      FMatrix out_s(14, n), out_v(14, n);
      scalar_->spmm_bias_act(fs, fx, bias.data(), act, 0.2f, &out_s);
      avx2_->spmm_bias_act(fs, fx, bias.data(), act, 0.2f, &out_v);
      ExpectBitIdentical(out_s, out_v);
    }
  }
}

// The fusion contract: spmm_bias_act == spmm then bias_act, as an equality of
// bits, within one tier and across both.
TEST_F(SimdParityTest, SpmmBiasActMatchesUnfusedComposition) {
  Rng rng(27);
  for (const KernelTable* table : {scalar_, avx2_}) {
    SparseMatrix s = RandomSparse(11, 9, 0.4, rng);
    Matrix x = RandomMatrix(9, 13, rng);
    std::vector<float> bias(13);
    for (size_t j = 0; j < 13; ++j)
      bias[j] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    FCsr fs = FCsr::FromDouble(s);
    FMatrix fx = FMatrix::FromDouble(x);
    for (FAct act : {FAct::kNone, FAct::kRelu, FAct::kLeakyRelu,
                     FAct::kSigmoid, FAct::kTanh}) {
      FMatrix fused(11, 13), unfused(11, 13);
      table->spmm_bias_act(fs, fx, bias.data(), act, 0.2f, &fused);
      table->spmm(fs, fx, &unfused);
      table->bias_act(&unfused, bias.data(), act, 0.2f);
      ExpectBitIdentical(fused, unfused);
    }
  }
}

TEST_F(SimdParityTest, ScaleAddBitIdentical) {
  Rng rng(25);
  for (size_t n : {1u, 8u, 9u, 31u}) {
    Matrix a = RandomMatrix(3, n, rng), b = RandomMatrix(3, n, rng);
    FMatrix fa = FMatrix::FromDouble(a), fb = FMatrix::FromDouble(b);
    FMatrix out_s(3, n), out_v(3, n);
    scalar_->scale_add(fa, 0.85f, fb, 0.15f, &out_s);
    avx2_->scale_add(fa, 0.85f, fb, 0.15f, &out_v);
    ExpectBitIdentical(out_s, out_v);
  }
}

TEST_F(SimdParityTest, KnnScanBitIdenticalForEveryQueryGrouping) {
  using kernels::KnnScanOp;
  using kernels::kKnnLanes;
  Rng rng(27);
  for (KnnScanOp op : {KnnScanOp::kSquaredDiff, KnnScanOp::kAbsDiff,
                       KnnScanOp::kDot, KnnScanOp::kCenteredDot}) {
    // Query counts around the 4-query tile, block counts around the 2- and
    // 4-block tiles.
    for (size_t nq : {1u, 2u, 3u, 4u, 5u, 9u}) {
      for (size_t blocks : {1u, 2u, 3u, 5u}) {
        for (size_t dim : {1u, 7u}) {
          const size_t n = blocks * kKnnLanes;
          Matrix queries = RandomMatrix(nq, dim, rng);
          Matrix packed = RandomMatrix(n, dim, rng);  // any layout will do
          Matrix mean = RandomMatrix(1, n, rng);
          std::vector<double> out_s(nq * n), out_v(nq * n), one(n);
          scalar_->knn_scan(op, queries.data(), nq, packed.data(), mean.data(),
                            blocks, dim, out_s.data());
          avx2_->knn_scan(op, queries.data(), nq, packed.data(), mean.data(),
                          blocks, dim, out_v.data());
          ASSERT_EQ(0, std::memcmp(out_s.data(), out_v.data(),
                                   out_s.size() * sizeof(double)))
              << "op " << static_cast<int>(op) << " nq " << nq << " blocks "
              << blocks << " dim " << dim;
          // A query scanned alone gets the bits it got in the group.
          for (size_t q = 0; q < nq; ++q) {
            avx2_->knn_scan(op, queries.row_data(q), 1, packed.data(),
                            mean.data(), blocks, dim, one.data());
            ASSERT_EQ(0, std::memcmp(one.data(), out_v.data() + q * n,
                                     n * sizeof(double)))
                << "op " << static_cast<int>(op) << " query " << q;
          }
        }
      }
    }
  }
}

// --- f64 training kernels, scalar vs AVX2 ------------------------------------
//
// The tier contract of the f64 entries: every output that is not NaN has
// the same bits at both tiers, and NaN outputs sit in the same positions.
// Only a NaN's payload or sign may differ, because the compiler may commute
// an add in either tier's loop.

/// Uniform values in [-1, 1] with 0.0, -0.0, NaN, +-Inf and subnormals mixed
/// in. NaN and Inf are rare enough that most dot products stay finite.
std::vector<double> SpecialValues(size_t count, Rng& rng) {
  const double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  std::vector<double> out(count);
  for (double& v : out) {
    const double u = rng.Uniform(0.0, 1.0);
    if (u < 0.10) {
      v = 0.0;
    } else if (u < 0.15) {
      v = -0.0;
    } else if (u < 0.165) {
      v = std::numeric_limits<double>::denorm_min();
    } else if (u < 0.18) {
      v = -4.9e-310;  // subnormal
    } else if (u < 0.184) {
      v = kNonFinite[rng.Int(0, 2)];
    } else {
      v = rng.Uniform(-1.0, 1.0);
    }
  }
  return out;
}

void ExpectSameBitsOrBothNaN(const std::vector<double>& scalar,
                             const std::vector<double>& avx2,
                             const std::string& what) {
  ASSERT_EQ(scalar.size(), avx2.size()) << what;
  for (size_t i = 0; i < scalar.size(); ++i) {
    if (std::isnan(scalar[i]) || std::isnan(avx2[i])) {
      ASSERT_TRUE(std::isnan(scalar[i]) && std::isnan(avx2[i]))
          << what << " element " << i << ": " << scalar[i] << " vs "
          << avx2[i];
      continue;
    }
    ASSERT_EQ(0, std::memcmp(&scalar[i], &avx2[i], sizeof(double)))
        << what << " element " << i << ": " << scalar[i] << " vs " << avx2[i];
  }
}

// The MT19937-64 block: from the same state both tiers write the same
// 312 outputs and leave the same next state, over consecutive blocks from
// several seeds (so the twist's wrap and its already twisted reads are hit
// with varied words).
TEST_F(SimdParityTest, Mt64BlockBitIdentical) {
  constexpr size_t kWords = Mt19937_64::kStateWords;
  for (uint64_t seed : {0ULL, 1ULL, 5489ULL, ~0ULL}) {
    // The seeded state: the standard recurrence Mt19937_64's constructor
    // runs.
    std::vector<uint64_t> state_s(kWords);
    state_s[0] = seed;
    for (size_t i = 1; i < kWords; ++i) {
      const uint64_t prev = state_s[i - 1];
      state_s[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
    std::vector<uint64_t> state_v = state_s;
    Mt19937_64 engine(seed);
    std::vector<uint64_t> out_s(kWords), out_v(kWords, 1);
    for (int block = 0; block < 5; ++block) {
      scalar_->mt64_block(state_s.data(), out_s.data());
      avx2_->mt64_block(state_v.data(), out_v.data());
      ASSERT_EQ(out_s, out_v) << "seed " << seed << " block " << block;
      ASSERT_EQ(state_s, state_v) << "seed " << seed << " block " << block;
      // And both equal the engine's own stream.
      for (size_t k = 0; k < kWords; ++k) {
        ASSERT_EQ(out_s[k], engine()) << "seed " << seed << " word " << k;
      }
    }
  }
}

/// A rows x cols CSR with about a third of the entries set, values drawn by
/// SpecialValues.
struct TestCsr {
  std::vector<size_t> row_ptr{0};
  std::vector<size_t> col_idx;
  std::vector<double> values;
};

TestCsr SpecialCsr(size_t rows, size_t cols, Rng& rng) {
  TestCsr csr;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (rng.Uniform(0.0, 1.0) < 0.35) csr.col_idx.push_back(c);
    }
    csr.row_ptr.push_back(csr.col_idx.size());
  }
  csr.values = SpecialValues(csr.col_idx.size(), rng);
  return csr;
}

TEST_F(SimdParityTest, F64KernelsBitIdentical) {
  using kernels::F64Kernels;
  Rng rng(41);
  const F64Kernels& s = scalar_->f64;
  const F64Kernels& v = avx2_->f64;
  for (size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 31u, 32u, 33u, 64u, 65u}) {
    for (size_t m : {1u, 2u, 5u, 33u}) {
      for (size_t k : {1u, 3u, 32u, 64u}) {
        const std::string shape = " m=" + std::to_string(m) +
                                  " k=" + std::to_string(k) +
                                  " n=" + std::to_string(n);
        const std::vector<double> a = SpecialValues(m * k, rng);
        const std::vector<double> b = SpecialValues(k * n, rng);
        std::vector<double> out_s(m * n, 0.0), out_v(m * n, 0.0);
        s.matmul(a.data(), b.data(), k, n, 0, m, out_s.data());
        v.matmul(a.data(), b.data(), k, n, 0, m, out_v.data());
        ExpectSameBitsOrBothNaN(out_s, out_v, "matmul" + shape);

        // a^T * b with a (k x m), b (k x n): reduction over the k rows.
        const std::vector<double> bt = SpecialValues(k * n, rng);
        out_s.assign(m * n, 0.0);
        out_v.assign(m * n, 0.0);
        s.matmul_tn(a.data(), bt.data(), k, m, n, 0, m, out_s.data());
        v.matmul_tn(a.data(), bt.data(), k, m, n, 0, m, out_v.data());
        ExpectSameBitsOrBothNaN(out_s, out_v, "matmul_tn" + shape);

        // a * c^T with c (n x k).
        const std::vector<double> c = SpecialValues(n * k, rng);
        out_s.assign(m * n, 1.0);
        out_v.assign(m * n, -1.0);
        s.matmul_nt(a.data(), c.data(), k, n, 0, m, out_s.data());
        v.matmul_nt(a.data(), c.data(), k, n, 0, m, out_v.data());
        ExpectSameBitsOrBothNaN(out_s, out_v, "matmul_nt" + shape);

        // (m x k) CSR times x (k x n).
        const TestCsr csr = SpecialCsr(m, k, rng);
        out_s.assign(m * n, 0.0);
        out_v.assign(m * n, 0.0);
        s.spmm(csr.row_ptr.data(), csr.col_idx.data(), csr.values.data(),
               b.data(), n, 0, m, out_s.data());
        v.spmm(csr.row_ptr.data(), csr.col_idx.data(), csr.values.data(),
               b.data(), n, 0, m, out_v.data());
        ExpectSameBitsOrBothNaN(out_s, out_v, "spmm" + shape);
      }

      // The epilogue: every activation, with and without a bias row.
      const std::vector<double> x = SpecialValues(m * n, rng);
      const std::vector<double> act_out = SpecialValues(m * n, rng);
      const std::vector<double> bias = SpecialValues(n, rng);
      for (FAct act : {FAct::kNone, FAct::kRelu, FAct::kLeakyRelu,
                       FAct::kSigmoid, FAct::kTanh}) {
        const std::string what = " act=" +
                                 std::to_string(static_cast<int>(act)) +
                                 " m=" + std::to_string(m) +
                                 " n=" + std::to_string(n);
        for (const double* b : {static_cast<const double*>(nullptr),
                                bias.data()}) {
          std::vector<double> xs = x, xv = x;
          s.bias_act(xs.data(), n, b, act, 0.2, 0, m);
          v.bias_act(xv.data(), n, b, act, 0.2, 0, m);
          ExpectSameBitsOrBothNaN(xs, xv, "bias_act" + what);
        }
        // Out of place at both tiers, and in place equal to out of place.
        std::vector<double> gs(m * n, 1.0), gv(m * n, -1.0), gi = x;
        s.act_grad(x.data(), act_out.data(), gs.data(), n, act, 0.2, 0, m);
        v.act_grad(x.data(), act_out.data(), gv.data(), n, act, 0.2, 0, m);
        v.act_grad(gi.data(), act_out.data(), gi.data(), n, act, 0.2, 0, m);
        ExpectSameBitsOrBothNaN(gs, gv, "act_grad" + what);
        ExpectSameBitsOrBothNaN(gs, gi, "act_grad in place" + what);
      }
    }
  }

  // matmul_tn over more rows than one of the AVX2 entry's L2 blocks: partial
  // sums carry from block to block through out.
  const size_t rows = 600, cols = 5, n = 65;
  const std::vector<double> a = SpecialValues(rows * cols, rng);
  const std::vector<double> b = SpecialValues(rows * n, rng);
  std::vector<double> out_s(cols * n, 0.0), out_v(cols * n, 0.0);
  s.matmul_tn(a.data(), b.data(), rows, cols, n, 0, cols, out_s.data());
  v.matmul_tn(a.data(), b.data(), rows, cols, n, 0, cols, out_v.data());
  ExpectSameBitsOrBothNaN(out_s, out_v, "matmul_tn blocked");
}

// The matmul zero skip is observable: 0 * Inf is NaN, so a kernel that
// multiplied the skipped terms would turn these finite outputs into NaN.
TEST(F64KernelTest, MatmulZeroSkipKeepsInfinityOut) {
  const double inf = std::numeric_limits<double>::infinity();
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    const KernelTable* table = kernels::GetKernelTable(level);
    if (table == nullptr) continue;
    for (size_t n : {2u, 5u, 33u}) {
      // a = [[0, -0, 1], [-0, 2, 0]] against b rows of +Inf, finite, -Inf
      // where a is zero: every term that survives the skip is finite.
      const std::vector<double> a = {0.0, -0.0, 1.0, -0.0, 2.0, 0.0};
      std::vector<double> b(3 * n);
      for (size_t j = 0; j < n; ++j) {
        b[j] = inf;
        b[n + j] = 0.5 + static_cast<double>(j);
        b[2 * n + j] = j % 2 == 0 ? -inf : 0.25;
      }
      std::vector<double> out(2 * n, 0.0);
      table->f64.matmul(a.data(), b.data(), 3, n, 0, 2, out.data());
      for (size_t j = 0; j < n; ++j) {
        EXPECT_EQ(out[j], b[2 * n + j])
            << kernels::SimdLevelName(level) << " n=" << n;
        EXPECT_EQ(out[n + j], 2.0 * b[n + j])
            << kernels::SimdLevelName(level) << " n=" << n;
      }
      // The same a, read transposed: a^T is (3 x 2) over rows of b2 (2 x n).
      std::vector<double> b2(2 * n);
      for (size_t j = 0; j < n; ++j) {
        b2[j] = inf;
        b2[n + j] = -inf;
      }
      std::vector<double> out_tn(3 * n, 0.0);
      table->f64.matmul_tn(a.data(), b2.data(), 2, 3, n, 0, 3, out_tn.data());
      for (size_t j = 0; j < n; ++j) {
        EXPECT_EQ(out_tn[j], 0.0) << kernels::SimdLevelName(level);
        EXPECT_EQ(out_tn[n + j], -inf) << kernels::SimdLevelName(level);
        EXPECT_EQ(out_tn[2 * n + j], inf) << kernels::SimdLevelName(level);
      }
    }
  }
}

// --- row independence ---------------------------------------------------------
//
// Serving runs each GNN layer only on the rows it can compute exactly
// (models/knn_gnn.cc, Operators), from a gathered subset of the input rows.
// That is bit-exact only if a kernel's output row never depends on which
// other rows the call computes: same per-row summation order whatever the
// row count, chunking or thread count.

// The full calls are large enough to split across pool threads; the subsets
// are a handful of rows, one chunk.
constexpr size_t kFullRows = 300;
const std::vector<size_t> kSubsetRows = {0, 3, 17, 18, 150, 299};

/// The rows `rows` of `s` with each column remapped to its position in
/// *read, the ascending columns those rows read.
SparseMatrix RowSlice(const SparseMatrix& s, const std::vector<size_t>& rows,
                      std::vector<size_t>* read) {
  read->clear();
  for (size_t r : rows) {
    for (size_t k = s.row_ptr()[r]; k < s.row_ptr()[r + 1]; ++k)
      read->push_back(s.col_idx()[k]);
  }
  std::sort(read->begin(), read->end());
  read->erase(std::unique(read->begin(), read->end()), read->end());
  std::vector<size_t> row_ptr(1, 0), col_idx;
  std::vector<double> values;
  for (size_t r : rows) {
    for (size_t k = s.row_ptr()[r]; k < s.row_ptr()[r + 1]; ++k) {
      col_idx.push_back(static_cast<size_t>(
          std::lower_bound(read->begin(), read->end(), s.col_idx()[k]) -
          read->begin()));
      values.push_back(s.values()[k]);
    }
    row_ptr.push_back(col_idx.size());
  }
  return SparseMatrix::FromCsr(rows.size(), read->size(), std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

FMatrix GatherF32(const FMatrix& x, const std::vector<size_t>& rows) {
  FMatrix out(rows.size(), x.cols());
  for (size_t i = 0; i < rows.size(); ++i) out.SetRow(i, x, rows[i]);
  return out;
}

template <typename Mat>
void ExpectRowsOfFull(const Mat& subset, const Mat& full,
                      const std::vector<size_t>& rows) {
  ASSERT_EQ(subset.rows(), rows.size());
  ASSERT_EQ(subset.cols(), full.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(subset.row_data(i), full.row_data(rows[i]),
                             full.cols() * sizeof(*full.data())))
        << "row " << rows[i];
  }
}

TEST(RowIndependenceTest, F64MatmulAndSpmm) {
  Rng rng(31);
  const Matrix a = RandomMatrix(kFullRows, 40, rng);
  const Matrix w = RandomMatrix(40, 24, rng);
  ExpectRowsOfFull(a.GatherRows(kSubsetRows).Matmul(w), a.Matmul(w),
                   kSubsetRows);

  const SparseMatrix s = RandomSparse(kFullRows, kFullRows, 0.05, rng);
  const Matrix x = RandomMatrix(kFullRows, 24, rng);
  std::vector<size_t> read;
  const SparseMatrix slice = RowSlice(s, kSubsetRows, &read);
  ExpectRowsOfFull(slice.Multiply(x.GatherRows(read)), s.Multiply(x),
                   kSubsetRows);
}

TEST(RowIndependenceTest, F32MatmulAndSpmmBiasAct) {
  Rng rng(32);
  const FMatrix a = FMatrix::FromDouble(RandomMatrix(kFullRows, 40, rng));
  const FMatrix w = FMatrix::FromDouble(RandomMatrix(40, 24, rng));
  FMatrix full, subset;
  kernels::Matmul(a, w, &full);
  kernels::Matmul(GatherF32(a, kSubsetRows), w, &subset);
  ExpectRowsOfFull(subset, full, kSubsetRows);

  const SparseMatrix s = RandomSparse(kFullRows, kFullRows, 0.05, rng);
  const FMatrix x = FMatrix::FromDouble(RandomMatrix(kFullRows, 24, rng));
  std::vector<float> bias(24);
  for (float& b : bias) b = static_cast<float>(rng.Uniform(-1.0, 1.0));
  std::vector<size_t> read;
  const FCsr slice = FCsr::FromDouble(RowSlice(s, kSubsetRows, &read));
  for (FAct act : {FAct::kNone, FAct::kRelu}) {
    kernels::SpmmBiasAct(FCsr::FromDouble(s), x, bias.data(), act, &full);
    kernels::SpmmBiasAct(slice, GatherF32(x, read), bias.data(), act,
                         &subset);
    ExpectRowsOfFull(subset, full, kSubsetRows);
  }
}

}  // namespace
}  // namespace gnn4tdl
