// gnn4tdl_perfbench: the train -> freeze -> serve benchmark.
//
//   gnn4tdl_perfbench --workload serve_open|score_bulk|train_fit --seed N
//                     --seconds S --trace 0|1 [--trace-out PATH]
//                     [--commit SHA]
//
// --trace-out is required with --trace 1. Every run first runs the helpers'
// self-tests. Prints the run's metadata, a human-readable report, and as its
// last line one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer ledger with
// --trace 1. Exits 1 and names the check when a self-test or output check
// fails, 2 on bad usage.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/parallel.h"
#include "harness.h"
#include "kernels/kernels.h"
#include "load/loadgen.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "gnn4tdl_perfbench: %s\nusage: gnn4tdl_perfbench --workload "
               "serve_open|score_bulk|train_fit --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--commit SHA]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (arg == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0.0)) {
        return false;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (arg == "--trace-out") {
      args->trace_out = value;
    } else if (arg == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && (!args->trace || !args->trace_out.empty());
}

/// The kernel pool gets nproc - 1 threads: one core stays for the submitting
/// thread, the engine worker being the pool's calling lane.
size_t ConfigureThreads(size_t* nproc) {
  cpu_set_t set;
  CPU_ZERO(&set);
  *nproc = sched_getaffinity(0, sizeof(set), &set) == 0
               ? static_cast<size_t>(CPU_COUNT(&set))
               : std::max(1u, std::thread::hardware_concurrency());
  const size_t threads = *nproc > 1 ? *nproc - 1 : 1;
  setenv("GNN4TDL_THREADS", std::to_string(threads).c_str(), 1);
  return gnn4tdl::ThreadPool::Global().num_threads();
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The same seed must give the same arrival schedule, and another seed
/// another one.
std::string SelfTestSchedule() {
  Matrix pool(16, 2);
  std::vector<gnn4tdl::TenantTraffic> traffic = {{"a", 2.0, &pool},
                                                 {"b", 1.0, &pool}};
  gnn4tdl::LoadOptions load;
  load.offered_rps = 1000.0;
  load.duration_s = 0.5;
  load.seed = DeriveSeed(7, 4);
  const auto one = gnn4tdl::BuildOpenLoopSchedule(traffic, load);
  const auto two = gnn4tdl::BuildOpenLoopSchedule(traffic, load);
  load.seed = DeriveSeed(8, 4);
  const auto other = gnn4tdl::BuildOpenLoopSchedule(traffic, load);
  auto same = [](const std::vector<gnn4tdl::Arrival>& a,
                 const std::vector<gnn4tdl::Arrival>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].at_ns != b[i].at_ns || a[i].traffic != b[i].traffic ||
          a[i].row != b[i].row) {
        return false;
      }
    }
    return true;
  };
  if (one.empty() || !same(one, two)) return "schedule: same seed differs";
  if (same(one, other)) return "schedule: another seed gives the same schedule";
  return "";
}

/// The ledger check passes parts that add up to the call and fails parts
/// that leave a quarter of it unaccounted for, either way.
std::string SelfTestLedger() {
  LedgerRow row;
  row.knn_ns = 700'000;
  row.attach_ns = 2'000'000;
  row.forward_ns = 5'000'000;
  row.assembly_ns = 300'000;
  row.score_ns = 7'400'000;
  if (row.attach_self_ns() != 1'300'000 || row.parts_ns() != 7'300'000 ||
      !CheckLedgerSum(row).ok()) {
    return "ledger: parts that add up to the call fail the check";
  }
  row.score_ns = 10'000'000;  // 2.7 ms unaccounted for
  if (CheckLedgerSum(row).ok()) {
    return "ledger: a call slower than its parts passes the check";
  }
  row.score_ns = 5'000'000;  // the parts exceed the call by 2.3 ms
  if (CheckLedgerSum(row).ok()) {
    return "ledger: parts slower than the call pass the check";
  }
  return "";
}

std::string SelfTests() {
  for (const std::string& failed :
       {SelfTestStats(), SelfTestSchedule(), SelfTestLedger()}) {
    if (!failed.empty()) return failed;
  }
  return "";
}

int Main(int argc, char** argv) {
  const int64_t process_start_ns = NowNs();
  size_t nproc = 0;
  const size_t threads = ConfigureThreads(&nproc);

  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  const std::string self_test = SelfTests();
  if (!self_test.empty()) {
    std::fprintf(stderr, "self-test failed: %s\n", self_test.c_str());
    return 1;
  }

  RunOutcome (*run)(const RunOptions&) = nullptr;
  if (args.workload == "serve_open") run = RunServeOpen;
  if (args.workload == "score_bulk") run = RunScoreBulk;
  if (args.workload == "train_fit") run = RunTrainFit;
  if (run == nullptr) return Usage("unknown workload");

  RunOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.trace = args.trace;
  options.trace_out = args.trace_out;

  std::printf(
      "meta: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %zu, \"gnn4tdl_threads\": %zu, \"simd\": "
      "\"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", \"commit\": "
      "\"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, nproc, threads,
      gnn4tdl::kernels::SimdLevelName(gnn4tdl::kernels::Dispatch().level),
      Compiler().c_str(), PERFBENCH_BUILD_TYPE, args.commit.c_str());

  // Process start-up (thread pool, self-tests) comes before the first
  // set-up, which setup_s times from its own start.
  std::printf("  startup_s = %.6g s  (process start to first set-up)\n",
              MsBetween(process_start_ns, NowNs()) / 1e3);
  RunOutcome outcome = run(options);
  for (const std::string& line : outcome.result.lines()) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("  attempted = %llu, failed = %llu  (failed_frac %g)\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.attempted > 0
                  ? static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted)
                  : 0.0);
  std::printf("metrics (%s):\n", options.trace ? "per-layer" : "end-to-end");
  for (const std::string& line : outcome.result.MetricLines()) {
    std::printf("%s\n", line.c_str());
  }
  if (options.trace && outcome.failed_check.empty()) {
    std::printf("trace written to %s\n", options.trace_out.c_str());
  }
  const bool correct = outcome.failed_check.empty();
  if (!correct) {
    std::fprintf(stderr, "FAILED CHECK: %s\n", outcome.failed_check.c_str());
    std::printf("FAILED CHECK: %s\n", outcome.failed_check.c_str());
  }
  // The result format needs attempted >= 1; a run that failed in set-up
  // attempted nothing and reports the set-up as its one attempt.
  const bool setup_failed = outcome.attempted == 0;
  std::printf("%s\n", outcome.result
                          .Json(correct, setup_failed ? 1 : outcome.attempted,
                                setup_failed ? 1 : outcome.failed)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
