#ifndef WIREBENCH_REPORT_H_
#define WIREBENCH_REPORT_H_

// Named metrics with units, and the order statistics the benchmark reports.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace wirebench {

class Metrics {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    entries_.push_back(Entry{name, unit, std::isfinite(value) ? value : 0.0});
  }

  // {"name": {"value": v, "unit": "u"}, ...} with every digit kept.
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
      out += (i == 0 ? "\"" : ", \"") + entries_[i].name +
             "\": {\"value\": " + value + ", \"unit\": \"" + entries_[i].unit +
             "\"}";
    }
    return out + "}";
  }

  void Print(std::FILE* f) const {
    for (const Entry& e : entries_) {
      std::fprintf(f, "  %-36s %14.4f %s\n", e.name.c_str(), e.value,
                   e.unit.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Entry> entries_;
};

// Nearest-rank quantile (0 < q <= 1); 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace wirebench

#endif  // WIREBENCH_REPORT_H_
