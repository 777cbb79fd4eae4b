#include "common/parallel.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/ops.h"
#include "tensor/sparse.h"

namespace gnn4tdl {
namespace {

// Restores the global pool to its env-configured size when a test ends, so
// tests that resize it cannot leak thread counts into later tests.
class PoolSizeGuard {
 public:
  PoolSizeGuard() = default;
  ~PoolSizeGuard() { ThreadPool::Global().SetNumThreads(ThreadCountFromEnv()); }
};

TEST(ThreadPoolTest, StartupShutdownAndResize) {
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    std::vector<int> hits(8, 0);
    pool.Run(8, [&](size_t c) { hits[c]++; });
    for (int h : hits) EXPECT_EQ(h, 1);

    pool.SetNumThreads(2);
    EXPECT_EQ(pool.num_threads(), 2u);
    pool.Run(8, [&](size_t c) { hits[c]++; });
    for (int h : hits) EXPECT_EQ(h, 2);

    pool.SetNumThreads(1);  // serial mode: no workers at all
    EXPECT_EQ(pool.num_threads(), 1u);
    pool.Run(3, [&](size_t c) { hits[c]++; });
  }  // destructor joins whatever workers remain
}

TEST(ThreadPoolTest, RunWithZeroChunksIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.Run(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SingleChunkJobsDoNotWaitForAPooledJob) {
  PoolSizeGuard guard;
  ThreadPool::Global().SetNumThreads(2);
  // Another thread's two-chunk job, parked until `release`, holds the pool.
  std::promise<void> entered;
  std::atomic<int> arrived{0};
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::future<void> pooled = std::async(std::launch::async, [&] {
    ParallelFor(0, 2, 1, [&](size_t, size_t) {
      if (arrived.fetch_add(1) == 0) entered.set_value();
      released.wait();
    });
  });
  entered.get_future().wait();
  // One-range jobs run inline on their own thread meanwhile.
  std::future<int> single = std::async(std::launch::async, [] {
    int runs = 0;
    ParallelFor(0, 1, 1, [&](size_t, size_t) { ++runs; });
    ThreadPool::Global().Run(1, [&](size_t) { ++runs; });
    return runs;
  });
  const bool done = single.wait_for(std::chrono::seconds(30)) ==
                    std::future_status::ready;
  release.set_value();
  pooled.get();
  ASSERT_TRUE(done) << "a one-chunk job waited for the pooled job";
  EXPECT_EQ(single.get(), 2);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  PoolSizeGuard guard;
  ThreadPool::Global().SetNumThreads(4);
  const size_t n = 10007;  // prime: uneven chunk boundaries
  std::vector<int> hits(n, 0);
  ParallelFor(0, n, 16, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelForTest, EmptyRangeRunsNothing) {
  bool called = false;
  ParallelFor(5, 5, 1, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, ExceptionPropagatesAndPoolStaysUsable) {
  PoolSizeGuard guard;
  ThreadPool::Global().SetNumThreads(4);
  EXPECT_THROW(ParallelFor(0, 1000, 1,
                           [&](size_t lo, size_t) {
                             if (lo >= 500) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  // The pool must have fully retired the failed job: a fresh job runs clean.
  std::vector<int> hits(100, 0);
  ParallelFor(0, 100, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, NestedParallelismIsRejected) {
  PoolSizeGuard guard;
  ThreadPool::Global().SetNumThreads(2);
  EXPECT_THROW(ParallelFor(0, 100, 1,
                           [&](size_t, size_t) {
                             ParallelFor(0, 10, 1, [](size_t, size_t) {});
                           }),
               std::logic_error);
  // Same guard on the raw pool entry point (a nested Run would deadlock).
  EXPECT_THROW(ParallelFor(0, 100, 1,
                           [&](size_t, size_t) {
                             ThreadPool::Global().Run(2, [](size_t) {});
                           }),
               std::logic_error);
  EXPECT_FALSE(InParallelRegion());
}

TEST(ParallelForTest, InParallelRegionIsVisibleInsideBodies) {
  bool inside = false;
  ParallelFor(0, 1, 1, [&](size_t, size_t) { inside = InParallelRegion(); });
  EXPECT_TRUE(inside);
  EXPECT_FALSE(InParallelRegion());
}

TEST(ParallelReduceTest, SumMatchesSerialExactly) {
  PoolSizeGuard guard;
  ThreadPool::Global().SetNumThreads(4);
  const size_t n = 4096;
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = 1.0 / static_cast<double>(i + 1);
  double parallel_sum = ParallelReduceSum(0, n, 64, [&](size_t lo, size_t hi) {
    double s = 0.0;
    for (size_t i = lo; i < hi; ++i) s += v[i];
    return s;
  });
  double serial_sum = 0.0;
  for (double x : v) serial_sum += x;
  EXPECT_NEAR(parallel_sum, serial_sum, 1e-12);

  // The partition is fixed, so repeated runs are bit-identical.
  double again = ParallelReduceSum(0, n, 64, [&](size_t lo, size_t hi) {
    double s = 0.0;
    for (size_t i = lo; i < hi; ++i) s += v[i];
    return s;
  });
  EXPECT_EQ(parallel_sum, again);
}

TEST(PartitionRangeTest, CoversRangeWithBoundedChunks) {
  std::vector<Range> ranges = PartitionRange(10, 110, 7, 6);
  ASSERT_FALSE(ranges.empty());
  EXPECT_LE(ranges.size(), 6u);
  size_t at = 10;
  for (const Range& r : ranges) {
    EXPECT_EQ(r.begin, at);
    EXPECT_GE(r.size(), 7u);
    at = r.end;
  }
  EXPECT_EQ(at, 110u);

  EXPECT_TRUE(PartitionRange(3, 3, 1, 4).empty());
  // Grain larger than the range: one chunk.
  EXPECT_EQ(PartitionRange(0, 5, 100, 4).size(), 1u);
}

TEST(TreeCombineTest, FoldsPairwiseIntoFirstElement) {
  // Strings make the combine order observable: pairwise stride doubling
  // folds ((a+b)+(c+d)) rather than (((a+b)+c)+d).
  std::vector<std::string> parts = {"a", "b", "c", "d", "e"};
  std::vector<std::string> trace;
  TreeCombine(parts, [&](std::string& into, const std::string& from) {
    trace.push_back(into + "+" + from);
    into += from;
  });
  EXPECT_EQ(parts[0], "abcde");
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[0], "a+b");
  EXPECT_EQ(trace[1], "c+d");
  EXPECT_EQ(trace[2], "ab+cd");
  EXPECT_EQ(trace[3], "abcd+e");
}

TEST(ThreadCountFromEnvTest, ParsesClampsAndFallsBack) {
  const char* saved = std::getenv("GNN4TDL_THREADS");
  std::string saved_value = saved ? saved : "";

  ASSERT_EQ(setenv("GNN4TDL_THREADS", "7", 1), 0);
  EXPECT_EQ(ThreadCountFromEnv(), 7u);
  ASSERT_EQ(setenv("GNN4TDL_THREADS", "0", 1), 0);
  EXPECT_EQ(ThreadCountFromEnv(), 1u);  // clamp to >= 1
  ASSERT_EQ(setenv("GNN4TDL_THREADS", "100000", 1), 0);
  EXPECT_EQ(ThreadCountFromEnv(), 256u);  // clamp to <= 256
  ASSERT_EQ(setenv("GNN4TDL_THREADS", "abc", 1), 0);
  EXPECT_EQ(ThreadCountFromEnv(), 1u);  // unparsable: serial
  ASSERT_EQ(setenv("GNN4TDL_THREADS", "4x", 1), 0);
  EXPECT_EQ(ThreadCountFromEnv(), 1u);  // trailing junk: serial
  // Only a whole number that fits size_t counts: a sign, a blank, a fraction
  // or an overflow is junk too, so "-1" cannot wrap to the 256 cap.
  for (const char* value : {"-1", "-4", " 4", "4 ", "4.0", "1e2", "0x10",
                            "99999999999999999999999"}) {
    ASSERT_EQ(setenv("GNN4TDL_THREADS", value, 1), 0);
    EXPECT_EQ(ThreadCountFromEnv(), 1u) << "'" << value << "'";
  }
  ASSERT_EQ(setenv("GNN4TDL_THREADS", "003", 1), 0);
  EXPECT_EQ(ThreadCountFromEnv(), 3u);
  ASSERT_EQ(unsetenv("GNN4TDL_THREADS"), 0);
  EXPECT_GE(ThreadCountFromEnv(), 1u);  // hardware default, clamped

  if (saved) {
    setenv("GNN4TDL_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("GNN4TDL_THREADS");
  }
}

// --- Kernel determinism across thread counts --------------------------------

Matrix RandomDense(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  return Matrix::Randn(rows, cols, rng);
}

SparseMatrix RandomCsr(size_t rows, size_t cols, size_t per_row,
                       uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  triplets.reserve(rows * per_row);
  for (size_t r = 0; r < rows; ++r)
    for (size_t j = 0; j < per_row; ++j)
      triplets.push_back(
          {r, static_cast<size_t>(rng.Int(0, static_cast<int64_t>(cols) - 1)),
           rng.Uniform(-1.0, 1.0)});
  return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

TEST(KernelDeterminismTest, MatmulBitExactAcrossThreadCounts) {
  PoolSizeGuard guard;
  Matrix a = RandomDense(37, 53, 1);
  // Output column counts below, at and around the 4-lane vector width and
  // the 32-column register tile, so lane tails run at both thread counts.
  for (size_t n : {2u, 5u, 29u, 32u, 65u}) {
    Matrix b = RandomDense(53, n, 2);
    Matrix c = RandomDense(37, n, 3);
    Matrix d = RandomDense(n, 53, 4);
    ThreadPool::Global().SetNumThreads(1);
    Matrix serial = a.Matmul(b);
    Matrix serial_t = a.TransposeMatmul(c);
    Matrix serial_bt = a.MatmulTranspose(d);
    ThreadPool::Global().SetNumThreads(4);
    Matrix parallel = a.Matmul(b);
    Matrix parallel_t = a.TransposeMatmul(c);
    Matrix parallel_bt = a.MatmulTranspose(d);
    for (size_t i = 0; i < serial.size(); ++i)
      ASSERT_EQ(serial.data()[i], parallel.data()[i]) << "n=" << n;
    for (size_t i = 0; i < serial_t.size(); ++i)
      ASSERT_EQ(serial_t.data()[i], parallel_t.data()[i]) << "n=" << n;
    for (size_t i = 0; i < serial_bt.size(); ++i)
      ASSERT_EQ(serial_bt.data()[i], parallel_bt.data()[i]) << "n=" << n;
  }
}

TEST(KernelDeterminismTest, SpmmBitExactAcrossThreadCounts) {
  PoolSizeGuard guard;
  SparseMatrix adj = RandomCsr(400, 400, 6, 3);
  Matrix h = RandomDense(400, 16, 4);
  ThreadPool::Global().SetNumThreads(1);
  Matrix serial = adj.Multiply(h);
  ThreadPool::Global().SetNumThreads(4);
  Matrix parallel = adj.Multiply(h);
  for (size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial.data()[i], parallel.data()[i]);
}

TEST(KernelDeterminismTest, TreeReducedKernelsBitExactAcrossThreadCounts) {
  PoolSizeGuard guard;
  // Sized past two grains so every reduction splits into several chunks:
  // h.Sum() over 48000 elements, the segment passes over 20000 edges.
  SparseMatrix adj = RandomCsr(3000, 2000, 6, 5);
  Matrix h = RandomDense(3000, 16, 6);
  Matrix logits = RandomDense(20000, 1, 7);
  Matrix upstream = RandomDense(20000, 1, 8);
  std::vector<size_t> seg(20000);
  Rng seg_rng(9);
  for (size_t& s : seg) s = static_cast<size_t>(seg_rng.Int(0, 499));

  struct Results {
    Matrix transposed;
    double sum;
    Matrix softmax;
    Matrix softmax_grad;
  };
  const auto run = [&] {
    Results r;
    r.transposed = adj.Transpose().Multiply(h);
    r.sum = h.Sum();
    r.softmax = SegmentSoftmax(logits, seg, 500);
    r.softmax_grad = SegmentSoftmaxBackward(r.softmax, upstream, seg, 500);
    return r;
  };
  ThreadPool::Global().SetNumThreads(1);
  const Results serial = run();
  ThreadPool::Global().SetNumThreads(4);
  const Results parallel = run();

  for (size_t i = 0; i < serial.transposed.size(); ++i)
    ASSERT_EQ(serial.transposed.data()[i], parallel.transposed.data()[i]);
  EXPECT_EQ(serial.sum, parallel.sum);
  for (size_t i = 0; i < serial.softmax.size(); ++i)
    ASSERT_EQ(serial.softmax.data()[i], parallel.softmax.data()[i]);
  for (size_t i = 0; i < serial.softmax_grad.size(); ++i)
    ASSERT_EQ(serial.softmax_grad.data()[i], parallel.softmax_grad.data()[i]);
}

TEST(KernelDeterminismTest, EdgeSoftmaxGradientMatchesSerial) {
  PoolSizeGuard guard;
  Matrix logits_value = RandomDense(300, 1, 9);
  std::vector<size_t> dst(300);
  Rng seg_rng(10);
  for (size_t& s : dst) s = static_cast<size_t>(seg_rng.Int(0, 39));

  auto run = [&]() {
    Tensor logits = Tensor::Leaf(logits_value, true);
    Tensor w = ops::EdgeSoftmax(logits, dst, 40);
    ops::SumSquares(w).Backward();
    return logits.grad();
  };
  ThreadPool::Global().SetNumThreads(1);
  Matrix g_serial = run();
  ThreadPool::Global().SetNumThreads(4);
  Matrix g_parallel = run();
  for (size_t i = 0; i < g_serial.size(); ++i)
    ASSERT_NEAR(g_serial.data()[i], g_parallel.data()[i], 1e-12);
}

}  // namespace
}  // namespace gnn4tdl
