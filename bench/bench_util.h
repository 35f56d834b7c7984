#ifndef GRTDB_BENCH_BENCH_UTIL_H_
#define GRTDB_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/server.h"

namespace grtdb {
namespace bench {

inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

inline ResultSet Exec(Server& server, ServerSession* session,
                      const std::string& sql) {
  ResultSet result;
  Status status = server.Execute(session, sql, &result);
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL sql '%s': %s\n", sql.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }
  return result;
}

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Minimal fixed-width table printer for the bench reports.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        if (row[i].size() > widths[i]) widths[i] = row[i].size();
      }
    }
    auto line = [&](const std::vector<std::string>& cells) {
      for (size_t i = 0; i < cells.size(); ++i) {
        std::printf("%-*s%s", static_cast<int>(widths[i]), cells[i].c_str(),
                    i + 1 < cells.size() ? "  " : "\n");
      }
    };
    line(headers_);
    std::vector<std::string> rule;
    for (size_t w : widths) rule.push_back(std::string(w, '-'));
    line(rule);
    for (const auto& row : rows_) line(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double value, int decimals = 1) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

// True in sanitizer builds. Instrumentation slows the two sides of an
// overhead comparison unevenly, so percentage gates only mean something on
// plain builds; benches skip them here and still run their accounting
// cross-checks.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitized = true;
#elif defined(__has_feature)
inline constexpr bool kSanitized = __has_feature(address_sanitizer) ||
                                   __has_feature(thread_sanitizer) ||
                                   __has_feature(undefined_behavior_sanitizer);
#else
inline constexpr bool kSanitized = false;
#endif

// The fastest round of each side of an A/B timing, in ms.
struct MinRounds {
  double a_ms = 0;
  double b_ms = 0;
};

// Times two configurations of one workload. `round_a` and `round_b` each
// switch to their configuration, run one round, and return its wall time
// in ms. One warm-up round each, then `rounds` rounds interleaved in ABBA
// order (a/b, b/a, ...) so periodic machine costs land on both sides
// evenly; the minimum per side discards the outliers.
template <typename RoundA, typename RoundB>
MinRounds InterleavedMinMs(int rounds, RoundA&& round_a, RoundB&& round_b) {
  round_a();
  round_b();
  MinRounds out;
  for (int round = 0; round < rounds; ++round) {
    double t_a = 0, t_b = 0;
    if (round % 2 == 0) {
      t_a = round_a();
      t_b = round_b();
    } else {
      t_b = round_b();
      t_a = round_a();
    }
    if (round == 0 || t_a < out.a_ms) out.a_ms = t_a;
    if (round == 0 || t_b < out.b_ms) out.b_ms = t_b;
  }
  return out;
}

}  // namespace bench
}  // namespace grtdb

#endif  // GRTDB_BENCH_BENCH_UTIL_H_
