#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie above a tail percentile before it is reported.
constexpr size_t kMinBeyond = 10;

/// Nearest-rank q-quantile (0 < q <= 1) of `samples`: the value at 1-based
/// rank ceil(q * n) of the sorted sample. 0 for an empty sample.
double NearestRank(std::vector<double> samples, double q);

/// A tail percentile together with the percentile actually reported.
struct Tail {
  double q = 0.0;      // percentile reported, e.g. 0.99
  double value = 0.0;
  size_t n = 0;        // sample count
  bool fallback = false;  // true when `q` is below the percentile asked for
};

/// The highest percentile not above `want`, from {0.99, 0.95, 0.9, 0.75, 0.5},
/// that has at least kMinBeyond samples above its rank. With fewer than
/// 2 * kMinBeyond samples not even the median qualifies; the median is then
/// reported and `fallback` set, like any other step down the ladder.
Tail SupportedTail(const std::vector<double>& samples, double want = 0.99);

/// "p99" for 0.99, "p50" for 0.5.
std::string PercentileName(double q);

/// Metrics of one run plus the human-readable lines printed before the result.
class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// A line of the report (printed in order before the JSON result).
  void Line(const std::string& text);

  const std::vector<std::string>& lines() const { return lines_; }
  /// One "name = value unit" line per metric, in the order added.
  std::vector<std::string> MetricLines() const;

  /// The one-line JSON result: {"correct", "attempted", "failed", "metrics"}.
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> lines_;
};

/// Checks of the helpers above; returns "" or the name of the failed check.
std::string SelfTestStats();

}  // namespace perfbench
