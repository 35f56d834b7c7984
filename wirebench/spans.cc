#include "spans.h"

#include <algorithm>
#include <cstdio>

#include "obs/fast_clock.h"

namespace wirebench {

using grtdb::obs::SpanName;
using grtdb::obs::SpanRecord;

std::map<uint64_t, RequestAttribution> AttributeTraces(
    const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, std::vector<const SpanRecord*>> by_trace;
  for (const SpanRecord& s : spans) by_trace[s.trace_id].push_back(&s);

  const double us_per_tick = grtdb::obs::NsPerTick() / 1000.0;
  std::map<uint64_t, RequestAttribution> out;
  for (const auto& [trace_id, members] : by_trace) {
    const SpanRecord* root = nullptr;
    std::map<uint64_t, const SpanRecord*> by_id;
    std::map<uint64_t, double> self_ticks;
    for (const SpanRecord* s : members) {
      if (s->name == SpanName::kRequest && s->parent_id == 0) root = s;
      by_id[s->span_id] = s;
      self_ticks[s->span_id] =
          static_cast<double>(s->end_ticks - s->start_ticks);
    }
    if (root == nullptr) continue;
    for (const SpanRecord* s : members) {
      auto parent = by_id.find(s->parent_id);
      if (parent == by_id.end()) continue;
      // Clamped: the accept-queue wait starts before its request root.
      const uint64_t lo = std::max(s->start_ticks, parent->second->start_ticks);
      const uint64_t hi = std::min(s->end_ticks, parent->second->end_ticks);
      if (hi > lo) self_ticks[s->parent_id] -= static_cast<double>(hi - lo);
    }
    RequestAttribution a;
    a.root_us =
        static_cast<double>(root->end_ticks - root->start_ticks) * us_per_tick;
    for (const SpanRecord* s : members) {
      if (s == root) continue;
      a.self_us[static_cast<size_t>(s->name)] +=
          std::max(0.0, self_ticks[s->span_id]) * us_per_tick;
    }
    const double root_self_us =
        std::max(0.0, self_ticks[root->span_id]) * us_per_tick;
    a.coverage = a.root_us > 0 ? 1.0 - root_self_us / a.root_us : 0.0;
    out[trace_id] = a;
  }
  return out;
}

BenchTrace::Scope::Scope(BenchTrace* trace, std::string name)
    : trace_(trace), index_(trace->spans_.size()) {
  trace_->spans_.push_back(
      Span{std::move(name), trace_->NowUs(), 0, trace_->depth_});
  ++trace_->depth_;
}

BenchTrace::Scope::~Scope() {
  --trace_->depth_;
  trace_->spans_[index_].end_us = trace_->NowUs();
}

double BenchTrace::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

bool BenchTrace::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"depth\": %d}}%s\n",
                 s.name.c_str(), s.start_us, s.end_us - s.start_us, s.depth,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace wirebench
