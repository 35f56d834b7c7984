#include "obs/span_tracer.h"

#include <thread>

namespace grtdb {
namespace obs {

namespace {

const char* const kSpanNames[kSpanNameCount] = {
    "request",     // kRequest
    "queue_wait",  // kQueueWait
    "decode",      // kWireDecode
    "respond",     // kRespond
    "gate_wait",   // kGateWait
    "parse",       // kParse
    "plan",        // kPlan
    "exec",        // kExec
    "lock_wait",   // kLockWait
    "node_io",     // kNodeIo
    "purpose",     // kPurpose
    "wal_wait",    // kWalWait
};

uint64_t HashedThreadId() {
  return static_cast<uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

}  // namespace

const char* SpanNameString(SpanName name) {
  const auto i = static_cast<size_t>(name);
  if (i >= kSpanNameCount) return "span_unknown";
  return kSpanNames[i];
}

TraceHandle SpanTracer::StartTrace(uint64_t wire_trace_id) {
  if (wire_trace_id != 0) {
    // Client asked for this request to be traced; honor it regardless of
    // the sampling rate so wire ids are always joinable against sys_spans.
    return TraceHandle{this, wire_trace_id, 0};
  }
  const uint32_t n = sample_every_.load(std::memory_order_relaxed);
  if (n == 0) return TraceHandle{};
  if (n > 1 &&
      sample_counter_.fetch_add(1, std::memory_order_relaxed) % n != 0) {
    return TraceHandle{};
  }
  return TraceHandle{
      this, next_trace_id_.fetch_add(1, std::memory_order_relaxed), 0};
}

TraceHandle SpanTracer::StartTraceForced() {
  return TraceHandle{
      this, next_trace_id_.fetch_add(1, std::memory_order_relaxed), 0};
}

void SpanTracer::EmitSpan(const TraceHandle& handle, SpanName name,
                          uint64_t start_ticks, uint64_t end_ticks,
                          uint64_t a, uint64_t b) {
  if (!handle.active()) return;
  SpanRecord r;
  r.trace_id = handle.trace_id;
  r.span_id = handle.tracer->NextSpanId();
  r.parent_id = handle.parent_span;
  r.start_ticks = start_ticks;
  r.end_ticks = end_ticks;
  r.a = a;
  r.b = b;
  r.name = name;
  handle.tracer->Record(r);
}

void SpanTracer::Record(const SpanRecord& record) {
  SpanRecord entry = record;
  entry.thread = HashedThreadId();
  admitted_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  entry.seq = next_seq_++;
  if (ring_.Push(entry)) evicted_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SpanRecord> SpanTracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.Snapshot();
}

std::vector<SpanRecord> SpanTracer::SnapshotTrace(uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  ring_.ForEach([&out, trace_id](const SpanRecord& r) {
    if (r.trace_id == trace_id) out.push_back(r);
  });
  return out;
}

void SpanTracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.Clear();
}

size_t SpanTracer::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.capacity();
}

}  // namespace obs
}  // namespace grtdb
