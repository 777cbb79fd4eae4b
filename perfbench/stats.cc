#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

namespace {

constexpr double kLadder[] = {0.99, 0.95, 0.9, 0.75, 0.5};

// 1-based nearest rank of quantile q in n samples. The epsilon keeps
// 0.99 * 1000 from rounding up to rank 991.
size_t Rank(double q, size_t n) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t rank = Rank(q, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

Tail SupportedTail(const std::vector<double>& samples, double want) {
  Tail tail;
  tail.n = samples.size();
  tail.q = 0.5;
  for (double q : kLadder) {
    if (q > want + 1e-12) continue;
    if (tail.n > 0 && tail.n - Rank(q, tail.n) >= kMinBeyond) {
      tail.q = q;
      break;
    }
  }
  tail.fallback = tail.q < want - 1e-12 || tail.n == 0 ||
                  tail.n < Rank(tail.q, tail.n) + kMinBeyond;
  tail.value = NearestRank(samples, tail.q);
  return tail;
}

std::string PercentileName(double q) {
  return "p" + std::to_string(static_cast<int>(std::lround(q * 100.0)));
}

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::Line(const std::string& text) { lines_.push_back(text); }

std::vector<std::string> Result::MetricLines() const {
  std::vector<std::string> out;
  for (const Metric& m : metrics_) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-32s %.6g %s", m.name.c_str(), m.value,
                  m.unit.c_str());
    out.push_back(buf);
  }
  return out;
}

std::string Result::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i > 0 ? ", " : "") << "\"" << m.name
        << "\": {\"value\": " << FormatNumber(m.value) << ", \"unit\": \""
        << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string SelfTestStats() {
  // 1..1000: p99 has exactly 10 samples above rank 990, so it is reported.
  std::vector<double> thousand(1000);
  for (size_t i = 0; i < thousand.size(); ++i) {
    thousand[i] = static_cast<double>(thousand.size() - i);  // unsorted input
  }
  Tail t = SupportedTail(thousand);
  if (t.q != 0.99 || t.value != 990.0 || t.fallback) {
    return "percentile: p99 of 1000 samples";
  }
  // 999 samples leave only 9 above rank 990: step down to p95 and say so.
  thousand.pop_back();
  t = SupportedTail(thousand);
  if (t.q != 0.95 || !t.fallback) {
    return "percentile: p99 of 999 samples must fall back to p95";
  }
  // 25 samples support only the median (12 above rank 13).
  std::vector<double> few(25);
  for (size_t i = 0; i < few.size(); ++i) few[i] = static_cast<double>(i + 1);
  t = SupportedTail(few);
  if (t.q != 0.5 || t.value != 13.0 || !t.fallback) {
    return "percentile: 25 samples support only p50";
  }
  // 5 samples support nothing; the median is reported as a fallback.
  few.resize(5);
  t = SupportedTail(few);
  if (t.q != 0.5 || t.value != 3.0 || !t.fallback) {
    return "percentile: 5 samples must report the median as a fallback";
  }
  t = SupportedTail({});
  if (t.value != 0.0 || !t.fallback || NearestRank({}, 0.5) != 0.0 ||
      PercentileName(0.99) != "p99") {
    return "percentile: edge cases";
  }
  return "";
}

}  // namespace perfbench
