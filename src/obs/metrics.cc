#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace gnn4tdl::obs {

namespace {

// Threads pick shards round-robin at first touch; a thread keeps its shard
// for its lifetime so repeated Add/Record calls stay on one cache line.
size_t ThisThreadShard(size_t num_shards) {
  static std::atomic<size_t> next{0};
  thread_local size_t assigned =
      next.fetch_add(1, std::memory_order_relaxed);
  return assigned % num_shards;
}

// Exemplar recency is one process-wide order, so exemplars from different
// histograms stay comparable after Histogram::Merge.
uint64_t NextExemplarSeq() {
  static std::atomic<uint64_t> seq{0};
  return 1 + seq.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void Counter::Add(double delta) {
  Shard& shard = shards_[ThisThreadShard(kShards)];
  MutexLock lock(&shard.mu);
  shard.value += delta;
}

double Counter::Value() const {
  double total = 0.0;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    total += shard.value;
  }
  return total;
}

void Gauge::Set(double value) {
  MutexLock lock(&mu_);
  value_ = value;
}

double Gauge::Value() const {
  MutexLock lock(&mu_);
  return value_;
}

Histogram::Histogram(HistogramOptions options)
    : options_(options),
      inv_log_growth_(1.0 / std::log(options.growth)),
      shards_(kShards) {
  for (Shard& shard : shards_) {
    shard.counts.assign(options_.num_buckets + 2, 0);
  }
}

size_t Histogram::BucketIndex(double value) const {
  if (!(value >= options_.min_value)) return 0;  // under (also NaN, negatives)
  double log_index = std::log(value / options_.min_value) * inv_log_growth_;
  size_t index = 1 + static_cast<size_t>(log_index);
  if (index > options_.num_buckets) index = options_.num_buckets + 1;  // over
  return index;
}

double Histogram::BucketUpperBound(size_t index) const {
  // index is the slot in counts: 0 = under, 1..n = log buckets, n+1 = over.
  if (index == 0) return options_.min_value;
  if (index > options_.num_buckets) {
    return std::numeric_limits<double>::infinity();
  }
  return options_.min_value *
         std::pow(options_.growth, static_cast<double>(index));
}

void Histogram::Record(double value) { Record(value, 0); }

void Histogram::Record(double value, uint64_t exemplar_trace_id) {
  Shard& shard = shards_[ThisThreadShard(kShards)];
  size_t index = BucketIndex(value);
  MutexLock lock(&shard.mu);
  shard.counts[index]++;
  shard.sum += value;
  if (shard.count == 0 || value < shard.min) shard.min = value;
  if (shard.count == 0 || value > shard.max) shard.max = value;
  shard.count++;
  if (exemplar_trace_id != 0) {
    if (shard.exemplars.empty()) shard.exemplars.resize(shard.counts.size());
    ShardExemplar& slot = shard.exemplars[index];
    slot.trace_id = exemplar_trace_id;
    slot.value = value;
    slot.seq = NextExemplarSeq();
  }
}

void Histogram::Merge(const Histogram& other) {
  GNN4TDL_CHECK(&other != this);
  GNN4TDL_CHECK(options_.min_value == other.options_.min_value &&
                options_.growth == other.options_.growth &&
                options_.num_buckets == other.options_.num_buckets);
  // Snapshot `other` first so no two shard mutexes are ever held at once.
  uint64_t count;
  double sum, min, max;
  const std::vector<uint64_t> counts =
      other.MergedCounts(&count, &sum, &min, &max);
  if (count == 0) return;
  const std::vector<HistogramExemplar> exemplars = other.Exemplars();
  Shard& shard = shards_[ThisThreadShard(kShards)];
  MutexLock lock(&shard.mu);
  for (size_t i = 0; i < counts.size(); ++i) shard.counts[i] += counts[i];
  shard.sum += sum;
  if (shard.count == 0 || min < shard.min) shard.min = min;
  if (shard.count == 0 || max > shard.max) shard.max = max;
  shard.count += count;
  if (!exemplars.empty() && shard.exemplars.empty()) {
    shard.exemplars.resize(shard.counts.size());
  }
  for (const HistogramExemplar& e : exemplars) {
    ShardExemplar& slot = shard.exemplars[e.bucket];
    if (e.seq > slot.seq) slot = ShardExemplar{e.trace_id, e.value, e.seq};
  }
}

std::vector<HistogramExemplar> Histogram::Exemplars() const {
  // Freshest exemplar per bucket across shards, decided by seq.
  std::vector<HistogramExemplar> best(options_.num_buckets + 2);
  bool any = false;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    for (size_t i = 0; i < shard.exemplars.size(); ++i) {
      const ShardExemplar& e = shard.exemplars[i];
      if (e.trace_id == 0 || e.seq <= best[i].seq) continue;
      best[i] = HistogramExemplar{i, BucketUpperBound(i), e.trace_id, e.value,
                                  e.seq};
      any = true;
    }
  }
  std::vector<HistogramExemplar> out;
  if (!any) return out;
  for (const HistogramExemplar& e : best) {
    if (e.trace_id != 0) out.push_back(e);
  }
  return out;
}

std::vector<uint64_t> Histogram::MergedCounts(uint64_t* count, double* sum,
                                              double* min, double* max) const {
  std::vector<uint64_t> merged(options_.num_buckets + 2, 0);
  *count = 0;
  *sum = 0.0;
  *min = std::numeric_limits<double>::infinity();
  *max = -std::numeric_limits<double>::infinity();
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    for (size_t i = 0; i < merged.size(); ++i) merged[i] += shard.counts[i];
    *sum += shard.sum;
    if (shard.count > 0) {
      *min = std::min(*min, shard.min);
      *max = std::max(*max, shard.max);
    }
    *count += shard.count;
  }
  return merged;
}

uint64_t Histogram::Count() const {
  uint64_t count;
  double sum, min, max;
  MergedCounts(&count, &sum, &min, &max);
  return count;
}

double Histogram::Sum() const {
  uint64_t count;
  double sum, min, max;
  MergedCounts(&count, &sum, &min, &max);
  return sum;
}

double Histogram::Min() const {
  uint64_t count;
  double sum, min, max;
  MergedCounts(&count, &sum, &min, &max);
  return min;
}

double Histogram::Max() const {
  uint64_t count;
  double sum, min, max;
  MergedCounts(&count, &sum, &min, &max);
  return max;
}

double Histogram::Quantile(double q) const {
  uint64_t count;
  double sum, min, max;
  std::vector<uint64_t> merged = MergedCounts(&count, &sum, &min, &max);
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile, 1-based; smallest bucket whose cumulative
  // count reaches it.
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  size_t bucket = merged.size() - 1;
  for (size_t i = 0; i < merged.size(); ++i) {
    cumulative += merged[i];
    if (cumulative >= rank) {
      bucket = i;
      break;
    }
  }
  double estimate;
  if (bucket == 0) {
    estimate = min;  // underflow bucket: min is the only trustworthy value
  } else if (bucket > options_.num_buckets) {
    estimate = max;  // overflow bucket
  } else {
    // Geometric midpoint of [lower, upper): lower * sqrt(growth). Relative
    // error to any sample in the bucket is at most sqrt(growth) - 1.
    double lower = options_.min_value *
                   std::pow(options_.growth, static_cast<double>(bucket - 1));
    estimate = lower * std::sqrt(options_.growth);
  }
  return std::clamp(estimate, min, max);
}

std::vector<std::pair<double, uint64_t>> Histogram::CumulativeBuckets() const {
  uint64_t count;
  double sum, min, max;
  std::vector<uint64_t> merged = MergedCounts(&count, &sum, &min, &max);
  std::vector<std::pair<double, uint64_t>> out;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < merged.size(); ++i) {
    cumulative += merged[i];
    if (merged[i] > 0 && i <= options_.num_buckets) {
      out.emplace_back(BucketUpperBound(i), cumulative);
    }
  }
  out.emplace_back(std::numeric_limits<double>::infinity(), count);
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const HistogramOptions& options) {
  MutexLock lock(&mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(options);
  return *slot;
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; dots and dashes become
// underscores. Everything is prefixed gnn4tdl_ to namespace the exposition.
std::string PrometheusName(const std::string& name) {
  std::string out = "gnn4tdl_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string FmtDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

void MetricsRegistry::WritePrometheus(std::ostream& out) const {
  MutexLock lock(&mu_);
  for (const auto& [name, counter] : counters_) {
    std::string pname = PrometheusName(name);
    out << "# TYPE " << pname << " counter\n";
    out << pname << " " << FmtDouble(counter->Value()) << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    std::string pname = PrometheusName(name);
    out << "# TYPE " << pname << " gauge\n";
    out << pname << " " << FmtDouble(gauge->Value()) << "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    std::string pname = PrometheusName(name);
    out << "# TYPE " << pname << " histogram\n";
    // OpenMetrics exemplars: `name_bucket{le="X"} N # {trace_id="T"} V`.
    // Finite bucket lines carry that bucket's freshest exemplar; the +Inf
    // line carries the overflow bucket's, falling back to the freshest
    // exemplar overall (the +Inf series counts every sample).
    std::vector<HistogramExemplar> exemplars = hist->Exemplars();
    std::map<std::string, const HistogramExemplar*> by_bound;
    const HistogramExemplar* freshest = nullptr;
    for (const HistogramExemplar& e : exemplars) {
      if (std::isfinite(e.upper_bound)) by_bound[FmtDouble(e.upper_bound)] = &e;
      if (freshest == nullptr || e.seq > freshest->seq) freshest = &e;
    }
    for (const auto& [bound, cumulative] : hist->CumulativeBuckets()) {
      std::string bound_str = FmtDouble(bound);
      out << pname << "_bucket{le=\"" << bound_str << "\"} " << cumulative;
      const HistogramExemplar* e = nullptr;
      if (std::isinf(bound)) {
        e = freshest;
      } else {
        auto it = by_bound.find(bound_str);
        if (it != by_bound.end()) e = it->second;
      }
      if (e != nullptr) {
        out << " # {trace_id=\"" << e->trace_id << "\"} "
            << FmtDouble(e->value);
      }
      out << "\n";
    }
    out << pname << "_sum " << FmtDouble(hist->Sum()) << "\n";
    out << pname << "_count " << hist->Count() << "\n";
  }
}

void EnableMetrics() { internal::SetObsFlag(kObsMetrics, true); }
void DisableMetrics() { internal::SetObsFlag(kObsMetrics, false); }

}  // namespace gnn4tdl::obs
