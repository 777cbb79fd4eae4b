#pragma once

// Shared helpers for the experiment harness: fixed-width league tables and
// multi-seed mean/stddev aggregation. Each bench binary regenerates one table
// or figure of the survey (see DESIGN.md per-experiment index) and prints it
// in this format.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace gnn4tdl::bench {

/// Fixed-width text table writer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers,
                        std::vector<int> widths)
      : headers_(std::move(headers)), widths_(std::move(widths)) {}

  void PrintHeader() const {
    for (size_t i = 0; i < headers_.size(); ++i)
      std::printf("%-*s", widths_[i], headers_[i].c_str());
    std::printf("\n");
    int total = 0;
    for (int w : widths_) total += w;
    for (int i = 0; i < total; ++i) std::printf("-");
    std::printf("\n");
  }

  void PrintRow(const std::vector<std::string>& cells) const {
    for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i)
      std::printf("%-*s", widths_[i], cells[i].c_str());
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  std::vector<int> widths_;
};

/// Mean and sample stddev of a metric across seeds.
struct Aggregate {
  double mean = 0.0;
  double stddev = 0.0;
};

inline Aggregate Aggregated(const std::vector<double>& values) {
  Aggregate a;
  if (values.empty()) return a;
  for (double v : values) a.mean += v;
  a.mean /= static_cast<double>(values.size());
  if (values.size() > 1) {
    double ss = 0.0;
    for (double v : values) ss += (v - a.mean) * (v - a.mean);
    a.stddev = std::sqrt(ss / static_cast<double>(values.size() - 1));
  }
  return a;
}

inline std::string Fmt(double v, int precision = 3) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string FmtAgg(const Aggregate& a, int precision = 3) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f±%.*f", precision, a.mean, precision,
                a.stddev);
  return buf;
}

inline void Banner(const char* title, const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("%s\n", claim);
  std::printf("================================================================\n\n");
}

}  // namespace gnn4tdl::bench
