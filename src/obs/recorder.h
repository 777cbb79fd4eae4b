#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/trace.h"

namespace gnn4tdl::obs {

/// Digest of one completed serving request — what the flight recorder keeps
/// per request so a slow request can be explained after the fact. Tenant is
/// a plain string (obs sits below serve and knows nothing about Tenant
/// objects). `spans` is non-empty only for SLO-breaching requests retained
/// by tail sampling: the full span subtree of the batch that served the
/// request, with span ids remapped to 1..n so retained traces are
/// deterministic under a FakeClock regardless of process-global span
/// numbering.
struct RequestDigest {
  std::string tenant;
  uint64_t trace_id = 0;
  int64_t enqueued_ns = 0;
  double queue_wait_ms = 0.0;  // enqueue -> batch start
  double compute_ms = 0.0;     // batch start -> done (shared by the batch)
  double total_ms = 0.0;       // enqueue -> done
  size_t batch_size = 0;
  double flops = 0.0;        // kernel FLOP total of the serving batch
  double bytes = 0.0;        // kernel byte total of the serving batch
  double alloc_bytes = 0.0;  // bytes the batch acquired (arena + heap)
  double slo_ms = 0.0;       // the tenant's SLO at completion time
  bool slo_breach = false;   // total_ms > slo_ms
  std::vector<SpanRecord> spans;
};

struct FlightRecorderOptions {
  /// Total digest slots across all stripes (split evenly; at least one slot
  /// per stripe). Size this at or above the request volume between scrapes
  /// so exported exemplar trace ids still resolve in the ring.
  size_t ring_capacity = 1024;
  size_t stripes = 8;
  /// Bounded FIFO of SLO-breaching digests kept with their span subtrees.
  size_t retained_capacity = 64;
};

/// Always-on, bounded, lock-striped ring of completed-request digests with
/// tail sampling. Every completed request lands in the ring stripe
/// `trace_id % stripes` (one uncontended mutex acquisition in steady state)
/// and ages out as the stripe wraps; requests that breached their tenant's
/// SLO are additionally copied — span subtree included — into a bounded
/// retained store, so the tail stays dumpable after the ring has moved on.
/// Memory is bounded by ring_capacity digests + retained_capacity traces no
/// matter how long the process serves.
class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options = {});
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Publish one completed request. Thread-safe.
  void Record(RequestDigest digest);

  /// Ring contents, oldest-first within each stripe, stripes in order.
  /// Deterministic for a deterministic Record sequence.
  std::vector<RequestDigest> RingSnapshot() const;
  /// Retained SLO-breach traces, oldest-first.
  std::vector<RequestDigest> RetainedSnapshot() const;

  /// Look up a trace id: retained store first (has spans), then the ring.
  std::optional<RequestDigest> FindTrace(uint64_t trace_id) const;

  struct Stats {
    uint64_t recorded = 0;          // digests accepted
    uint64_t retained = 0;          // SLO breaches copied to retention
    uint64_t ring_evicted = 0;      // digests overwritten by ring wrap
    uint64_t retained_evicted = 0;  // breach traces aged out of retention
  };
  Stats stats() const;

  /// Dump everything as JSON: {"schema":1,"stats":{...},"ring":[...],
  /// "retained":[...]} — the `gnn4tdl_cli obsdump` payload, validated by
  /// gnn4tdl_trace_check --obsdump.
  void WriteJson(std::ostream& out) const;

 private:
  struct Stripe {
    mutable Mutex mu;
    // Fixed-size ring; slot next % slots.size() is overwritten next.
    std::vector<RequestDigest> slots GNN4TDL_GUARDED_BY(mu);
    uint64_t next GNN4TDL_GUARDED_BY(mu) = 0;
    uint64_t evicted GNN4TDL_GUARDED_BY(mu) = 0;
  };

  const FlightRecorderOptions options_;
  size_t slots_per_stripe_ = 0;  // lint:unguarded(written once in the constructor)
  // Sized once in the constructor; each stripe self-guards.
  std::vector<Stripe> stripes_;  // lint:unguarded(fixed size after construction; elements self-guard)

  mutable Mutex retained_mu_;
  std::vector<RequestDigest> retained_ GNN4TDL_GUARDED_BY(retained_mu_);
  uint64_t retained_total_ GNN4TDL_GUARDED_BY(retained_mu_) = 0;
  uint64_t retained_evicted_ GNN4TDL_GUARDED_BY(retained_mu_) = 0;
};

}  // namespace gnn4tdl::obs
