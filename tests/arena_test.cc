// Arena allocator (common/arena.h), free-at-last-use Backward
// (nn/tensor.h BackwardOptions), and the TapePlan lifetime analysis
// (nn/tape_plan.h). Together these are the memory model documented in
// docs/MEMORY.md; the assertions here pin its load-bearing guarantees:
// slab reuse, escape safety, bit-neutrality, last-use ordering on branching
// tapes, the external-handle release veto, and poisoning that the
// TapeVerifier can catch.

#include "common/arena.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "nn/fused.h"
#include "nn/ops.h"
#include "nn/tape_plan.h"
#include "nn/tape_verifier.h"
#include "nn/tensor.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"

namespace gnn4tdl {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r)
    for (size_t c = 0; c < cols; ++c) m(r, c) = rng.Normal(0.0, 1.0);
  return m;
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
}

TEST(DoubleBufferTest, HeapPathWithoutScope) {
  ASSERT_FALSE(ArenaScope::Active());
  DoubleBuffer buf(100);
  EXPECT_EQ(buf.size(), 100u);
  for (size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0.0);
  buf[7] = 3.5;
  DoubleBuffer copy(buf);
  EXPECT_EQ(copy[7], 3.5);
  DoubleBuffer moved(std::move(copy));
  EXPECT_EQ(moved[7], 3.5);
}

TEST(ArenaTest, FreelistRecyclesSlabs) {
  Arena arena;
  ArenaScope scope(&arena);
  ASSERT_TRUE(ArenaScope::Active());
  { Matrix m(32, 32); }  // checked out and returned
  const ArenaStats after_first = arena.stats();
  EXPECT_EQ(after_first.alloc_calls, 1u);
  EXPECT_EQ(after_first.pool_hits, 0u);  // dry run: cold miss grows the pool
  { Matrix m(32, 32); }  // same size class: must come off the freelist
  const ArenaStats after_second = arena.stats();
  EXPECT_EQ(after_second.alloc_calls, 2u);
  EXPECT_EQ(after_second.pool_hits, 1u);
  EXPECT_EQ(after_second.live_bytes, 0u);
  EXPECT_GE(after_second.high_water_bytes, 32u * 32u * sizeof(double));
}

TEST(ArenaTest, HighWaterTracksPeakNotCurrent) {
  Arena arena;
  ArenaScope scope(&arena);
  size_t peak;
  {
    Matrix a(16, 16);
    Matrix b(16, 16);
    peak = arena.stats().live_bytes;
  }
  EXPECT_EQ(arena.stats().live_bytes, 0u);
  EXPECT_EQ(arena.stats().high_water_bytes, peak);
  EXPECT_GE(peak, 2u * 16u * 16u * sizeof(double));
}

TEST(ArenaTest, EscapedBufferOutlivesArena) {
  Matrix escaped;
  {
    auto arena = std::make_unique<Arena>();
    ArenaScope scope(arena.get());
    Matrix m(8, 8);
    m(3, 4) = 42.0;
    escaped = std::move(m);
  }  // scope and Arena both gone; the shared state must survive
  EXPECT_EQ(escaped(3, 4), 42.0);
  escaped(0, 0) = 1.0;  // still writable (asan stage would flag a UAF)
  EXPECT_EQ(escaped(0, 0), 1.0);
}

TEST(ArenaTest, ScopesNest) {
  Arena outer_arena;
  ArenaScope outer(&outer_arena);
  { Matrix m(4, 4); }
  {
    Arena inner_arena;
    ArenaScope inner(&inner_arena);
    { Matrix m(4, 4); }
    EXPECT_EQ(inner_arena.stats().alloc_calls, 1u);
  }
  { Matrix m(4, 4); }
  EXPECT_EQ(outer_arena.stats().alloc_calls, 2u);  // inner alloc not counted
}

TEST(ArenaTest, ComputationBitExactUnderArena) {
  Rng rng_a(41), rng_b(41);
  Matrix plain;
  {
    Matrix x = RandomMatrix(12, 9, rng_a);
    Matrix y = RandomMatrix(9, 7, rng_a);
    plain = x.Matmul(y);
  }
  Matrix under_arena;
  {
    Arena arena;
    ArenaScope scope(&arena);
    Matrix x = RandomMatrix(12, 9, rng_b);
    Matrix y = RandomMatrix(9, 7, rng_b);
    under_arena = x.Matmul(y);
  }
  ExpectBitIdentical(plain, under_arena);
}

// --- Outputs that skip the fill --------------------------------------------
// Kernel outputs, elementwise results, the first gradient write, dropout and
// the fused backward no longer zero-fill or copy their storage first: the
// kernels write every element (the +0.0 accumulator start included). Under an
// arena whose slabs were released full of NaN and garbage bits, each must
// equal its heap-path result bit for bit.

// Checks out slabs of every size class up to 2^19 doubles, fills them with
// quiet NaNs and arbitrary bit patterns (negative zeros, infinities,
// signaling-NaN payloads, denormals), and releases them dirty.
void DirtyArena() {
  ASSERT_TRUE(ArenaScope::Active());
  std::vector<Matrix> slabs;
  uint64_t bits = 0x9E3779B97F4A7C15ULL;
  for (size_t n = 1; n <= (size_t{1} << 19); n *= 2) {
    const int copies = n <= (size_t{1} << 16) ? 16 : 3;
    for (int copy = 0; copy < copies; ++copy) {
      Matrix m(1, n);
      for (size_t i = 0; i < n; ++i) {
        bits = bits * 6364136223846793005ULL + 1442695040888963407ULL;
        double v = std::numeric_limits<double>::quiet_NaN();
        if (i % 2 == 1) std::memcpy(&v, &bits, sizeof(v));
        m.data()[i] = v;
      }
      slabs.push_back(std::move(m));
    }
  }
}

SparseMatrix RandomCsr(size_t rows, size_t cols, size_t per_row, Rng& rng) {
  std::vector<Triplet> triplets;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t k = 0; k < per_row; ++k) {
      const int64_t col = rng.Int(0, static_cast<int64_t>(cols) - 1);
      triplets.push_back(
          {r, static_cast<size_t>(col), rng.Uniform(-1.0, 1.0)});
    }
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

// Every output that skips the fill, computed from inputs drawn by `seed`.
// Each is copied out to the heap as soon as it exists and its buffer goes
// back to the pool, so under a dirtied arena every output lands in a
// recycled slab.
std::vector<std::vector<double>> UnfilledOutputs(uint64_t seed) {
  std::vector<std::vector<double>> out;
  const auto keep = [&out](const Matrix& m) {
    out.emplace_back(m.data(), m.data() + m.size());
  };
  Rng rng(seed);
  // Large enough that the kernels split over several chunks when the pool
  // has more than one thread.
  const size_t n = 600, k = 40, m = 48;
  const Matrix a = RandomMatrix(n, k, rng);
  const Matrix b = RandomMatrix(k, m, rng);
  const Matrix c = RandomMatrix(n, m, rng);
  Matrix d = RandomMatrix(n, m, rng);
  d(0, 0) = -0.0;
  const SparseMatrix sp = RandomCsr(n, n, 8, rng);

  keep(a.Matmul(b));
  keep(a.TransposeMatmul(c));
  keep(c.MatmulTranspose(d));
  keep(sp.Multiply(c));
  keep(sp.Transpose().Multiply(c));
  keep(c + d);
  keep(c - d);
  keep(c.CwiseMul(d));
  keep(c.CwiseDiv(d));
  keep(c * 0.75);
  keep(c.Map([](double v) { return v * v; }));

  // First AccumulateGrad: 0.0 + g, so the -0.0 in d lands as +0.0.
  {
    Tensor leaf = Tensor::Leaf(Matrix(n, m), true);
    leaf.AccumulateGrad(d);
    keep(leaf.grad());
    EXPECT_FALSE(std::signbit(leaf.grad()(0, 0)));
  }

  // Dropout, forward and backward.
  {
    Tensor x = Tensor::Leaf(c, true);
    Tensor dropped = ops::Dropout(x, 0.4, rng, /*training=*/true);
    keep(dropped.value());
    ops::SumSquares(dropped).Backward();
    keep(x.grad());
  }

  // The fused backward with and without an activation mask.
  for (Activation act : {Activation::kNone, Activation::kRelu}) {
    Tensor xa = Tensor::Leaf(a, true);
    Tensor w = Tensor::Leaf(b, true);
    Tensor bias = Tensor::Leaf(RandomMatrix(1, m, rng), true);
    Tensor h = fused::LinearBiasAct(xa, w, bias, act);
    Tensor agg = fused::SpmmBiasAct(sp, h, Tensor(), act);
    Tensor sum = fused::AddAct(agg, h, act);
    ops::SumSquares(sum).Backward();
    keep(sum.value());
    keep(xa.grad());
    keep(w.grad());
    keep(bias.grad());
  }
  return out;
}

TEST(ArenaTest, UnfilledOutputsIgnoreDirtySlabs) {
  const std::vector<std::vector<double>> heap = UnfilledOutputs(61);
  std::vector<std::vector<double>> dirty;
  {
    Arena arena;
    ArenaScope scope(&arena);
    DirtyArena();
    const ArenaStats before = arena.stats();
    dirty = UnfilledOutputs(61);
    const ArenaStats after = arena.stats();
    // Every checkout came off the freelist: no output got a fresh slab.
    EXPECT_EQ(after.alloc_calls - before.alloc_calls,
              after.pool_hits - before.pool_hits);
  }
  ASSERT_EQ(heap.size(), dirty.size());
  for (size_t i = 0; i < heap.size(); ++i) {
    ASSERT_EQ(heap[i].size(), dirty[i].size()) << "output " << i;
    EXPECT_EQ(0, std::memcmp(heap[i].data(), dirty[i].data(),
                             heap[i].size() * sizeof(double)))
        << "output " << i << " differs under a dirty arena";
  }
}

// --- TapePlan ----------------------------------------------------------------

TEST(TapePlanTest, DiamondTapeFreesInteriorAtOwnStep) {
  Rng rng(42);
  Tensor x = Tensor::Leaf(RandomMatrix(6, 6, rng), true);
  // Diamond: two branches off x rejoin in the Add. Built as one expression —
  // a named local would itself be an external handle and pin its node.
  Tensor loss = ops::SumSquares(ops::Add(ops::Relu(x), ops::Sigmoid(x)));
  TapePlan plan = BuildTapePlan(loss);
  ASSERT_EQ(plan.nodes.size(), 5u);  // loss, add, sigmoid|relu, relu|sigmoid, x

  // Execution order is descending seq; steps are 0..n-1 in that order.
  for (size_t i = 0; i < plan.nodes.size(); ++i)
    EXPECT_EQ(plan.nodes[i].step, i);
  for (size_t i = 1; i < plan.nodes.size(); ++i)
    EXPECT_LT(plan.nodes[i].seq, plan.nodes[i - 1].seq);

  // Root (step 0): pinned — callers read the loss value.
  EXPECT_FALSE(plan.nodes[0].releasable);
  // Interior nodes (add, relu, sigmoid): each held as a tape-internal handle
  // only, so each frees exactly at its own step — its last use under
  // reverse-seq order.
  for (size_t i = 1; i + 1 < plan.nodes.size(); ++i) {
    EXPECT_TRUE(plan.nodes[i].releasable) << "step " << i;
    EXPECT_EQ(plan.nodes[i].free_step, plan.nodes[i].step) << "step " << i;
    EXPECT_FALSE(plan.nodes[i].is_leaf);
  }
  // Leaf x: pinned for the whole run (optimizer reads its grad).
  EXPECT_TRUE(plan.nodes.back().is_leaf);
  EXPECT_FALSE(plan.nodes.back().releasable);
  EXPECT_EQ(plan.nodes.back().free_step, plan.nodes.size());

  EXPECT_LT(plan.planned_peak_bytes, plan.naive_peak_bytes);
  EXPECT_GT(plan.planned_peak_bytes, 0u);
}

TEST(TapePlanTest, ExternallyHeldIntermediateIsPinnedInPlan) {
  Rng rng(43);
  Tensor x = Tensor::Leaf(RandomMatrix(5, 5, rng), true);
  Tensor held = ops::Relu(x);  // `held` is an external handle
  Tensor loss = ops::SumSquares(held);
  TapePlan plan = BuildTapePlan(loss);
  ASSERT_EQ(plan.nodes.size(), 3u);
  EXPECT_FALSE(plan.nodes[1].releasable);  // the held Relu node
  EXPECT_EQ(plan.nodes[1].free_step, plan.nodes.size());
}

// A deeper chain shows the point of the exercise: the planned peak stays
// near a couple of layers' footprint while the naive peak grows with depth.
// This is the in-process regression guard for the planner (bench_fusion
// measures the same effect as process RSS).
TEST(TapePlanTest, DeepChainPeakRegression) {
  Rng rng(44);
  Tensor x = Tensor::Leaf(RandomMatrix(64, 64, rng), true);
  Tensor w = Tensor::Leaf(RandomMatrix(64, 64, rng), true);
  Tensor h = x;
  const int depth = 12;
  for (int l = 0; l < depth; ++l) h = ops::Relu(ops::MatMul(h, w));
  Tensor loss = ops::SumSquares(h);
  TapePlan plan = BuildTapePlan(loss);
  // The floor of the planned schedule is the sum of all forward values
  // (every value must survive until backward reaches it), which is exactly
  // naive/2 when each grad matches its value's shape. Free-at-last-use must
  // sit just above that floor — a thin band of transient grads — while the
  // naive schedule doubles everything.
  EXPECT_GE(plan.planned_peak_bytes, plan.naive_peak_bytes / 2);
  EXPECT_LT(plan.planned_peak_bytes, plan.naive_peak_bytes * 3 / 5);
}

// --- Backward with release_values -------------------------------------------

TEST(BackwardReleaseTest, GradientsBitExactWithRelease) {
  Rng rng_a(45), rng_b(45);
  auto run = [](Rng& rng, bool release) -> std::vector<Matrix> {
    Tensor x = Tensor::Leaf(RandomMatrix(10, 8, rng), true);
    Tensor w = Tensor::Leaf(RandomMatrix(8, 8, rng), true);
    Tensor h = ops::Tanh(ops::MatMul(x, w));
    Tensor loss = ops::SumSquares(ops::Relu(ops::MatMul(h, w)));
    BackwardOptions opts;
    opts.release_values = release;
    loss.Backward(opts);
    return {x.grad(), w.grad(), loss.value()};
  };
  std::vector<Matrix> plain = run(rng_a, false);
  std::vector<Matrix> released = run(rng_b, true);
  for (size_t i = 0; i < plain.size(); ++i)
    ExpectBitIdentical(plain[i], released[i]);
}

TEST(BackwardReleaseTest, RootValueAndLeafGradsSurvive) {
  Rng rng(46);
  Tensor x = Tensor::Leaf(RandomMatrix(4, 4, rng), true);
  Tensor loss = ops::SumSquares(ops::Sigmoid(x));
  BackwardOptions opts;
  opts.release_values = true;
  loss.Backward(opts);
  EXPECT_TRUE(std::isfinite(loss.value()(0, 0)));  // root readable
  ASSERT_FALSE(x.grad().empty());                  // leaf grad kept
  for (size_t i = 0; i < x.grad().size(); ++i)
    EXPECT_TRUE(std::isfinite(x.grad().data()[i]));
}

TEST(BackwardReleaseTest, ExternalHandleVetoesRelease) {
  Rng rng(47);
  Tensor x = Tensor::Leaf(RandomMatrix(5, 5, rng), true);
  Tensor held = ops::Relu(x);  // external handle into the tape
  Tensor loss = ops::SumSquares(ops::Tanh(held));
  Matrix before = held.value();
  BackwardOptions opts;
  opts.release_values = true;
  opts.poison_released = true;  // would NaN-fill `held` if wrongly released
  loss.Backward(opts);
  ExpectBitIdentical(before, held.value());
}

TEST(BackwardReleaseTest, PoisonedReleaseIsCaughtByVerifier) {
  Rng rng(48);
  Tensor x = Tensor::Leaf(RandomMatrix(6, 6, rng), true);
  Tensor loss = ops::SumSquares(ops::Relu(ops::Sigmoid(x)));
  BackwardOptions opts;
  opts.release_values = true;
  opts.poison_released = true;
  loss.Backward(opts);
  // The poison mode keeps released buffers allocated but NaN-fills them: any
  // later read of a "freed" value is no longer silent garbage — the
  // verifier's finite scan names it.
  TapeVerifier verifier({.check_finite = true});
  Status status = verifier.Verify(loss);
  EXPECT_FALSE(status.ok());
}

TEST(BackwardReleaseTest, ReleaseUnderArenaMatchesHeap) {
  Rng rng_a(49), rng_b(49);
  auto run = [](Rng& rng, bool arena_on) -> Matrix {
    std::unique_ptr<Arena> arena;
    std::unique_ptr<ArenaScope> scope;
    if (arena_on) {
      arena = std::make_unique<Arena>();
      scope = std::make_unique<ArenaScope>(arena.get());
    }
    Tensor x = Tensor::Leaf(RandomMatrix(9, 9, rng), true);
    Tensor loss = ops::SumSquares(ops::Tanh(ops::MatMul(x, x)));
    BackwardOptions opts;
    opts.release_values = true;
    loss.Backward(opts);
    Matrix grad = x.grad();
    scope.reset();
    arena.reset();
    return grad;  // escaped from the arena — must stay valid
  };
  ExpectBitIdentical(run(rng_a, false), run(rng_b, true));
}

}  // namespace
}  // namespace gnn4tdl
