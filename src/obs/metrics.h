#pragma once

#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/flags.h"

namespace gnn4tdl::obs {

/// Monotone counter with mutex-sharded accumulation: each thread is assigned
/// a shard round-robin at first touch, so concurrent Add calls from the pool
/// lanes contend only within a shard (and in practice not at all — lanes map
/// to distinct shards until more than kShards threads exist). Value() sums
/// the shards under their mutexes; it is exact, not a snapshot race.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(double delta);
  void Increment() { Add(1.0); }
  double Value() const;

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Shard {
    mutable Mutex mu;
    double value GNN4TDL_GUARDED_BY(mu) = 0.0;
  };
  Shard shards_[kShards];  // lint:unguarded(fixed array; elements self-guard)
};

/// Last-write-wins instantaneous value (queue depth, current loss).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value);
  double Value() const;

 private:
  mutable Mutex mu_;
  double value_ GNN4TDL_GUARDED_BY(mu_) = 0.0;
};

/// Fixed-bucket log-scale histogram configuration. Bucket i (1-based) covers
/// [min_value * growth^(i-1), min_value * growth^i); an underflow bucket
/// catches values below min_value (including zero and negatives) and an
/// overflow bucket everything at or above the top bound. The defaults give 8
/// buckets per doubling over a 2^25 dynamic range (1 microsecond to ~33
/// seconds when recording milliseconds).
struct HistogramOptions {
  double min_value = 1e-3;
  double growth = 1.0905077326652577;  // 2^(1/8)
  size_t num_buckets = 200;
};

/// One per-bucket exemplar: the most recent trace id recorded into that
/// bucket via Record(value, trace_id). Exported in Prometheus exemplar
/// syntax so a latency bucket links directly to a dumpable flight-recorder
/// trace. `seq` is the record's position in the process-wide exemplar
/// sequence (higher = more recent), so recency still compares after Merge;
/// the +Inf series uses the overall max.
struct HistogramExemplar {
  size_t bucket = 0;  // counts slot: 0 = under, 1..n = log buckets, n+1 = over
  double upper_bound = 0.0;  // +Inf for the overflow bucket
  uint64_t trace_id = 0;
  double value = 0.0;
  uint64_t seq = 0;
};

/// Bounded-memory quantile sketch: O(num_buckets) storage no matter how many
/// values are recorded, mutex-sharded like Counter so pool threads can record
/// concurrently.
///
/// Precision contract: Quantile() locates the bucket holding the requested
/// rank and reports its geometric midpoint, clamped to the exact observed
/// [min, max]. For values inside [min_value, top bound] the estimate is
/// within a relative error of sqrt(growth) - 1 (~4.4% at the default growth)
/// of some sample at that rank; values outside the range clamp to the
/// nearest bound, where only the exact min/max remain trustworthy. Count,
/// Sum, Min, and Max are exact.
class Histogram {
 public:
  explicit Histogram(HistogramOptions options = {});
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(double value);
  /// Record plus exemplar: remember `exemplar_trace_id` as the most recent
  /// trace to land in this value's bucket (0 = record without an exemplar).
  /// Exemplar storage is allocated lazily, so histograms that never carry
  /// exemplars pay nothing.
  void Record(double value, uint64_t exemplar_trace_id);
  /// Adds every sample of `other` (counts, sum, min, max) and keeps, per
  /// bucket, whichever exemplar is fresher. CHECKs that both histograms have
  /// the same options and are distinct objects.
  void Merge(const Histogram& other);

  /// The freshest exemplar per bucket (ascending bucket order), merged
  /// across shards by sequence number. Empty if no exemplars were recorded.
  std::vector<HistogramExemplar> Exemplars() const;

  uint64_t Count() const;
  double Sum() const;
  double Min() const;  // +inf when empty
  double Max() const;  // -inf when empty
  /// q in [0, 1]; 0.0 when empty.
  double Quantile(double q) const;
  /// Max relative error of Quantile for in-range values: sqrt(growth) - 1.
  double RelativeErrorBound() const { return std::sqrt(options_.growth) - 1.0; }

  const HistogramOptions& options() const { return options_; }

  /// Merged per-bucket cumulative counts as (upper_bound, cumulative_count)
  /// pairs for buckets with at least one direct hit, in ascending bound
  /// order — the Prometheus `le` series. The +Inf entry is Count().
  std::vector<std::pair<double, uint64_t>> CumulativeBuckets() const;

 private:
  static constexpr size_t kShards = 8;
  struct ShardExemplar {
    uint64_t trace_id = 0;  // 0 = slot empty
    double value = 0.0;
    uint64_t seq = 0;
  };
  struct alignas(64) Shard {
    mutable Mutex mu;
    // [under, b0..b(n-1), over]
    std::vector<uint64_t> counts GNN4TDL_GUARDED_BY(mu);
    uint64_t count GNN4TDL_GUARDED_BY(mu) = 0;
    double sum GNN4TDL_GUARDED_BY(mu) = 0.0;
    // min/max valid only when count > 0.
    double min GNN4TDL_GUARDED_BY(mu) = 0.0;
    double max GNN4TDL_GUARDED_BY(mu) = 0.0;
    // Sized like counts on first exemplar record; empty until then.
    std::vector<ShardExemplar> exemplars GNN4TDL_GUARDED_BY(mu);
  };

  size_t BucketIndex(double value) const;
  double BucketUpperBound(size_t index) const;
  std::vector<uint64_t> MergedCounts(uint64_t* count, double* sum, double* min,
                                     double* max) const;

  const HistogramOptions options_;
  const double inv_log_growth_;
  // Sized once in the constructor, never resized; per-shard state is guarded
  // by each shard's own mu.
  std::vector<Shard> shards_;  // lint:unguarded(fixed size after construction; elements self-guard)
};

/// Named metrics, created on first use and stable for the registry's
/// lifetime (returned references never dangle). Global() is the process
/// registry the hook points write to; tests construct their own instances.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name,
                          const HistogramOptions& options = {});

  /// Prometheus text exposition: `# TYPE` headers, sanitized names prefixed
  /// gnn4tdl_, histogram `_bucket{le=...}` / `_sum` / `_count` series.
  void WritePrometheus(std::ostream& out) const;

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      GNN4TDL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      GNN4TDL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GNN4TDL_GUARDED_BY(mu_);
};

/// Gate for the library's metric emission hooks (trainer epochs, serving
/// request accounting). Off by default: a hook then costs one relaxed atomic
/// load. The CLI enables this when --metrics-out is passed.
inline bool MetricsEnabled() { return (ObsFlags() & kObsMetrics) != 0; }
void EnableMetrics();
void DisableMetrics();

}  // namespace gnn4tdl::obs
