#include "obs/recorder.h"

#include <algorithm>
#include <map>
#include <ostream>

namespace gnn4tdl::obs {

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(options) {
  size_t stripes = std::max<size_t>(1, options_.stripes);
  slots_per_stripe_ = std::max<size_t>(1, options_.ring_capacity / stripes);
  stripes_ = std::vector<Stripe>(stripes);
}

namespace {

// Retained span subtrees are renumbered 1..n (tree order preserved, unknown
// parents -> 0) so two runs with the same seed and FakeClock produce
// byte-identical retained traces even though live span ids come from a
// process-global counter.
void RemapSpanIds(std::vector<SpanRecord>* spans) {
  std::map<uint64_t, uint64_t> remap;
  uint64_t next = 1;
  for (const SpanRecord& span : *spans) remap[span.id] = next++;
  for (SpanRecord& span : *spans) {
    span.id = remap[span.id];
    auto it = remap.find(span.parent);
    span.parent = it == remap.end() ? 0 : it->second;
  }
}

}  // namespace

void FlightRecorder::Record(RequestDigest digest) {
  if (digest.slo_breach) {
    RequestDigest retained_copy = digest;
    RemapSpanIds(&retained_copy.spans);
    MutexLock lock(&retained_mu_);
    retained_total_++;
    if (retained_.size() >= options_.retained_capacity) {
      retained_.erase(retained_.begin());
      retained_evicted_++;
    }
    retained_.push_back(std::move(retained_copy));
  }
  // The ring holds digests only; span subtrees live in the retained store.
  digest.spans.clear();
  Stripe& stripe = stripes_[digest.trace_id % stripes_.size()];
  MutexLock lock(&stripe.mu);
  if (stripe.slots.size() < slots_per_stripe_) {
    stripe.slots.push_back(std::move(digest));
    stripe.next++;
    return;
  }
  stripe.slots[stripe.next % slots_per_stripe_] = std::move(digest);
  stripe.next++;
  stripe.evicted++;
}

std::vector<RequestDigest> FlightRecorder::RingSnapshot() const {
  std::vector<RequestDigest> out;
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(&stripe.mu);
    size_t n = stripe.slots.size();
    // Oldest-first: when full, the next overwrite target is the oldest slot.
    size_t start = n < slots_per_stripe_ ? 0 : stripe.next % slots_per_stripe_;
    for (size_t i = 0; i < n; ++i) {
      out.push_back(stripe.slots[(start + i) % n]);
    }
  }
  return out;
}

std::vector<RequestDigest> FlightRecorder::RetainedSnapshot() const {
  MutexLock lock(&retained_mu_);
  return retained_;
}

std::optional<RequestDigest> FlightRecorder::FindTrace(
    uint64_t trace_id) const {
  {
    MutexLock lock(&retained_mu_);
    for (auto it = retained_.rbegin(); it != retained_.rend(); ++it) {
      if (it->trace_id == trace_id) return *it;
    }
  }
  const Stripe& stripe = stripes_[trace_id % stripes_.size()];
  MutexLock lock(&stripe.mu);
  for (const RequestDigest& digest : stripe.slots) {
    if (digest.trace_id == trace_id) return digest;
  }
  return std::nullopt;
}

FlightRecorder::Stats FlightRecorder::stats() const {
  Stats stats;
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(&stripe.mu);
    stats.recorded += stripe.next;
    stats.ring_evicted += stripe.evicted;
  }
  MutexLock lock(&retained_mu_);
  stats.retained = retained_total_;
  stats.retained_evicted = retained_evicted_;
  return stats;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void WriteSpanJson(std::ostream& out, const SpanRecord& span) {
  out << "{\"name\":\"" << JsonEscape(span.name) << "\",\"id\":" << span.id
      << ",\"parent\":" << span.parent << ",\"start_ns\":" << span.start_ns
      << ",\"dur_ns\":" << span.dur_ns << ",\"cpu_ns\":" << span.cpu_ns
      << ",\"flops\":" << span.flops << ",\"bytes\":" << span.bytes
      << ",\"items\":" << span.items << ",\"alloc_bytes\":" << span.alloc_bytes
      << ",\"request_ids\":[";
  for (size_t i = 0; i < span.request_ids.size(); ++i) {
    if (i > 0) out << ",";
    out << span.request_ids[i];
  }
  out << "]}";
}

void WriteDigestJson(std::ostream& out, const RequestDigest& digest) {
  out << "{\"tenant\":\"" << JsonEscape(digest.tenant)
      << "\",\"trace_id\":" << digest.trace_id
      << ",\"enqueued_ns\":" << digest.enqueued_ns
      << ",\"queue_wait_ms\":" << digest.queue_wait_ms
      << ",\"compute_ms\":" << digest.compute_ms
      << ",\"total_ms\":" << digest.total_ms
      << ",\"batch_size\":" << digest.batch_size
      << ",\"flops\":" << digest.flops << ",\"bytes\":" << digest.bytes
      << ",\"alloc_bytes\":" << digest.alloc_bytes
      << ",\"slo_ms\":" << digest.slo_ms
      << ",\"slo_breach\":" << (digest.slo_breach ? "true" : "false");
  if (!digest.spans.empty()) {
    out << ",\"spans\":[";
    for (size_t i = 0; i < digest.spans.size(); ++i) {
      if (i > 0) out << ",";
      WriteSpanJson(out, digest.spans[i]);
    }
    out << "]";
  }
  out << "}";
}

}  // namespace

void FlightRecorder::WriteJson(std::ostream& out) const {
  // Enough digits that queue_wait + compute <= total still holds after a
  // parse round trip — consumers (gnn4tdl_trace_check) re-check it.
  const std::streamsize saved_precision = out.precision(15);
  Stats s = stats();
  out << "{\"schema\":1,\"stats\":{\"recorded\":" << s.recorded
      << ",\"retained\":" << s.retained
      << ",\"ring_evicted\":" << s.ring_evicted
      << ",\"retained_evicted\":" << s.retained_evicted << "},\n\"ring\":[";
  std::vector<RequestDigest> ring = RingSnapshot();
  for (size_t i = 0; i < ring.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n";
    WriteDigestJson(out, ring[i]);
  }
  out << "\n],\n\"retained\":[";
  std::vector<RequestDigest> retained = RetainedSnapshot();
  for (size_t i = 0; i < retained.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n";
    WriteDigestJson(out, retained[i]);
  }
  out << "\n]}\n";
  out.precision(saved_precision);
}

}  // namespace gnn4tdl::obs
