#ifndef WIREBENCH_SPANS_H_
#define WIREBENCH_SPANS_H_

// Span handling for the traced run: self-time attribution of the server's
// request spans, and the benchmark's own spans around each layer call.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/span_tracer.h"

namespace wirebench {

// One request's server-side breakdown. A span's self time is its duration
// minus the part its direct children cover (children clamped to the
// parent's interval, as grtdb_driver computes it).
struct RequestAttribution {
  double root_us = 0;
  double self_us[grtdb::obs::kSpanNameCount] = {};
  // Share of the root covered by named child phases.
  double coverage = 0;
};

// Attributes every trace in `spans` that has a root request span, keyed by
// trace id.
std::map<uint64_t, RequestAttribution> AttributeTraces(
    const std::vector<grtdb::obs::SpanRecord>& spans);

// The benchmark's own spans: one per timed layer call, nested under the
// call group that issued it. Kept in memory and written out as Chrome
// trace-event JSON when the run ends.
class BenchTrace {
 public:
  class Scope {
   public:
    Scope(BenchTrace* trace, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    BenchTrace* trace_;
    size_t index_;
  };

  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int depth = 0;
  };
  double NowUs() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  int depth_ = 0;
};

}  // namespace wirebench

#endif  // WIREBENCH_SPANS_H_
