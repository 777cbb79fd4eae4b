// Seeded lint-fixture source: one specimen per remaining rule. Never
// compiled — gnn4tdl_lint reads it as text.

#include "bad.h"

void Caller(Helper* helper) {
  DoThing();               // status-discard: bare call, result dropped
  helper->ComputeThing();  // status-discard: through a member chain
  (void)DoThing();         // sanctioned discard idiom — must NOT be flagged
  Status kept = DoThing(); // checked — must NOT be flagged

  std::srand(42);          // banned-call
  int r = std::rand();     // banned-call

  std::cout << r;          // cout-in-src

  int* buffer = new int[8];  // raw-new-delete
  delete[] buffer;           // raw-new-delete

  std::thread worker([] {});  // raw-thread: bypasses the shared ThreadPool
  worker.join();
  (void)std::thread::hardware_concurrency();  // query — must NOT be flagged

  std::deque<int> queue;  // raw-deque: request queues live in src/serve/
  queue.push_back(r);

  auto t0 = std::chrono::steady_clock::now();  // raw-clock: use obs::Clock
  (void)t0;

  __m256 acc = _mm256_setzero_ps();  // raw-simd: intrinsics outside kernels/
  acc = _mm256_add_ps(acc, acc);     // raw-simd
  (void)acc;

  std::fprintf(stderr, "oops\n");  // raw-stderr
  std::cerr << "oops";             // raw-stderr
  // lint:stderr(fixture: exempted write — must NOT be flagged)
  std::fprintf(stderr, "exempted\n");
}
