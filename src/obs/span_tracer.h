#ifndef GRTDB_OBS_SPAN_TRACER_H_
#define GRTDB_OBS_SPAN_TRACER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/bounded_ring.h"
#include "obs/fast_clock.h"

namespace grtdb {
namespace obs {

// The tracer's entire span vocabulary: every phase a request crosses on its
// way from the wire to the WAL. Like FlightEvent, emission sites must pass
// an enumerator, never a raw number (grtdb_analyze's span-name rule
// rejects numeric span arguments to SpanScope/TraceScope/EmitSpan).
enum class SpanName : uint8_t {
  kRequest = 0,   // root: one wire request (or embedded Execute)
  kQueueWait,     // accept-queue enqueue -> worker pickup; a = queue depth
  kWireDecode,    // frame payload -> Request struct
  kRespond,       // ResultSet -> response frame -> socket write
  kGateWait,      // statement-gate acquisition; a = 1 when exclusive
  kParse,         // SQL text -> statement list
  kPlan,          // plan-cache consult; a = 1 hit, 0 miss
  kExec,          // statement execution (the std::visit body)
  kLockWait,      // blocked in the lock manager; a = resource, b = txn
  kNodeIo,        // node-cache miss serviced from the inner store; a = node
  kPurpose,       // one VII purpose call; a = PurposeFn index
  kWalWait,       // group-commit: enqueue -> durable; a = records, b = bytes
};
inline constexpr size_t kSpanNameCount = 12;

// Static-table name, e.g. "exec"; out-of-range renders as "span_unknown".
const char* SpanNameString(SpanName name);

// One finished span as retained by the buffer / returned by Snapshot().
struct SpanRecord {
  uint64_t seq = 0;       // monotone admission number
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root of its trace
  uint64_t start_ticks = 0;
  uint64_t end_ticks = 0;
  uint64_t thread = 0;  // hashed id of the emitting thread
  uint64_t a = 0;
  uint64_t b = 0;
  SpanName name = SpanName::kRequest;
};

// A sampled trace's identity, copyable across threads. Handing one to
// another thread and opening a TraceScope there is the cross-thread
// propagation mechanism (net accept thread -> worker thread). An inactive
// handle (tracer == nullptr) makes every downstream scope a no-op.
struct TraceHandle {
  class SpanTracer* tracer = nullptr;
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;  // spans opened under this handle nest here
  bool active() const { return tracer != nullptr; }
};

// Span-based request tracer: a bounded server-wide ring of finished spans,
// fed by RAII scopes that keep a thread-local active-span stack so child
// spans nest under their parent without any context plumbing. Same
// discipline as the flight recorder on the common path: when sampling is
// off (the default), StartTrace is one relaxed atomic load and every
// SpanScope is one thread-local read and branch — no locks, no allocation,
// no clock reads. Only sampled requests touch the mutex-protected ring,
// and sampling is 1-in-N by construction.
class SpanTracer {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit SpanTracer(size_t capacity = kDefaultCapacity)
      : base_ticks_(Ticks()), ring_(capacity) {}

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  // Sampling control (SET TRACE_SAMPLE = N): 0 disables, N samples one in
  // every N StartTrace calls. Relaxed atomics; safe from any thread.
  uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }
  void set_sample_every(uint32_t n) {
    sample_every_.store(n, std::memory_order_relaxed);
  }

  // Entry point at request arrival. A nonzero wire_trace_id (client-set)
  // always samples under that id; otherwise the 1-in-N gate decides and the
  // id is server-generated. The returned handle is inactive when not
  // sampled — the overwhelmingly common case, costing one relaxed load.
  TraceHandle StartTrace(uint64_t wire_trace_id = 0);

  // Always-sampled variant for explicit requests (EXPLAIN TRACE).
  TraceHandle StartTraceForced();

  // Records a completed interval under `handle` without an RAII scope —
  // for waits measured on another thread, like the accept-queue wait whose
  // start tick was taken by the accept thread.
  void EmitSpan(const TraceHandle& handle, SpanName name,
                uint64_t start_ticks, uint64_t end_ticks, uint64_t a = 0,
                uint64_t b = 0);

  // Retained spans, oldest first; optionally only one trace's.
  std::vector<SpanRecord> Snapshot() const;
  std::vector<SpanRecord> SnapshotTrace(uint64_t trace_id) const;

  void Clear();

  size_t capacity() const;

  // Spans admitted ever (ring may have evicted older ones) and spans
  // evicted by ring wrap. Clear() resets neither: they count history.
  uint64_t admitted() const { return admitted_.load(std::memory_order_relaxed); }
  uint64_t evicted() const { return evicted_.load(std::memory_order_relaxed); }

  // Tick of tracer construction: the zero point sys_spans and the JSON
  // dump subtract before converting to wall durations.
  uint64_t base_ticks() const { return base_ticks_; }

  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void Record(const SpanRecord& record);

 private:
  std::atomic<uint32_t> sample_every_{0};
  std::atomic<uint64_t> sample_counter_{0};
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> evicted_{0};

  const uint64_t base_ticks_;
  mutable std::mutex mu_;
  BoundedRing<SpanRecord> ring_;
  uint64_t next_seq_ = 0;
};

namespace internal {
// Thread-local trace state: which tracer/trace/span the current thread is
// inside. Substrate layers (lock manager, node cache, WAL) reach it via
// SpanScope without any plumbing, mirroring obs::CurrentProfile().
struct ThreadTraceState {
  SpanTracer* tracer = nullptr;
  uint64_t trace_id = 0;
  uint64_t active_span = 0;
};
inline thread_local ThreadTraceState tls_trace;
}  // namespace internal

// The handle for the trace currently installed on this thread (inactive
// when none) — what a layer uses to hand work to another thread, or to
// stamp a trace id into the slow-query log.
inline TraceHandle CurrentTraceHandle() {
  const internal::ThreadTraceState& s = internal::tls_trace;
  return TraceHandle{s.tracer, s.trace_id, s.active_span};
}

// RAII root/adoption scope: installs `handle`'s trace on this thread and
// opens one span under it; the destructor emits the span and restores the
// previous thread state. Used where a trace enters a thread (net worker
// adopting the request trace, embedded Execute, a test thread adopting a
// handoff). `start_ticks` may backdate the span start (frame-read time).
class TraceScope {
 public:
  TraceScope(const TraceHandle& handle, SpanName name,
             uint64_t start_ticks = 0, uint64_t a = 0, uint64_t b = 0)
      : a_(a), b_(b), name_(name) {
    if (!handle.active()) return;
    active_ = true;
    prev_ = internal::tls_trace;
    span_id_ = handle.tracer->NextSpanId();
    parent_ = handle.parent_span;
    start_ticks_ = start_ticks != 0 ? start_ticks : Ticks();
    internal::tls_trace = {handle.tracer, handle.trace_id, span_id_};
  }

  ~TraceScope() {
    if (!active_) return;
    SpanRecord r;
    r.trace_id = internal::tls_trace.trace_id;
    r.span_id = span_id_;
    r.parent_id = parent_;
    r.start_ticks = start_ticks_;
    r.end_ticks = Ticks();
    r.a = a_;
    r.b = b_;
    r.name = name_;
    SpanTracer* tracer = internal::tls_trace.tracer;
    internal::tls_trace = prev_;
    tracer->Record(r);
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  bool active() const { return active_; }
  void set_operands(uint64_t a, uint64_t b) {
    a_ = a;
    b_ = b;
  }

 private:
  internal::ThreadTraceState prev_;
  uint64_t span_id_ = 0;
  uint64_t parent_ = 0;
  uint64_t start_ticks_ = 0;
  uint64_t a_;
  uint64_t b_;
  SpanName name_;
  bool active_ = false;
};

// RAII child span under whatever trace is installed on this thread. The
// instrument-everywhere primitive: when no sampled trace is active (the
// normal case) construction is a thread-local read and a branch.
class SpanScope {
 public:
  explicit SpanScope(SpanName name, uint64_t a = 0, uint64_t b = 0)
      : a_(a), b_(b), name_(name) {
    internal::ThreadTraceState& s = internal::tls_trace;
    if (s.tracer == nullptr) return;
    active_ = true;
    parent_ = s.active_span;
    span_id_ = s.tracer->NextSpanId();
    s.active_span = span_id_;
    start_ticks_ = Ticks();
  }

  ~SpanScope() {
    if (!active_) return;
    internal::ThreadTraceState& s = internal::tls_trace;
    SpanRecord r;
    r.trace_id = s.trace_id;
    r.span_id = span_id_;
    r.parent_id = parent_;
    r.start_ticks = start_ticks_;
    r.end_ticks = Ticks();
    r.a = a_;
    r.b = b_;
    r.name = name_;
    s.active_span = parent_;
    s.tracer->Record(r);
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  bool active() const { return active_; }
  void set_operands(uint64_t a, uint64_t b) {
    a_ = a;
    b_ = b;
  }

 private:
  uint64_t span_id_ = 0;
  uint64_t parent_ = 0;
  uint64_t start_ticks_ = 0;
  uint64_t a_;
  uint64_t b_;
  SpanName name_;
  bool active_ = false;
};

}  // namespace obs
}  // namespace grtdb

#endif  // GRTDB_OBS_SPAN_TRACER_H_
