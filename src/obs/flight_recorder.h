#ifndef GRTDB_OBS_FLIGHT_RECORDER_H_
#define GRTDB_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace grtdb {
namespace obs {

// The flight recorder's entire event vocabulary. Every event ID lives in
// this one enum and renders through FlightEventName(); emission sites must
// pass an enumerator, never a raw number (grtdb_analyze's flight-event
// rule rejects numeric first arguments to RecordEvent).
enum class FlightEvent : uint8_t {
  kTxnBegin = 0,     // a = txn id
  kTxnCommit,        // a = txn id
  kTxnAbort,         // a = txn id
  kCheckpoint,       // a = log bytes dropped
  kRecoveryBegin,    // (no operands; emitted before the log scan)
  kRecoveryEnd,      // a = txns replayed, b = txns discarded
  kLockTimeout,      // a = resource id, b = txn id
  kLockDeadlock,     // a = resource id, b = txn id
  kCacheEviction,    // a = node id, b = 1 when the victim was dirty
  kSlowPurposeCall,  // a = PurposeFn index, b = call duration (ns)
};
inline constexpr size_t kFlightEventCount = 10;

// Generic event name, e.g. "txn_begin". Async-signal-safe (static table);
// out-of-range values render as "event_unknown".
const char* FlightEventName(FlightEvent event);

// One stitched event as returned by Dump().
struct FlightEventRecord {
  uint64_t ticks = 0;   // obs::Ticks() at emission
  uint64_t thread = 0;  // hashed id of the emitting thread
  uint64_t index = 0;   // per-thread emission number (ring position)
  FlightEvent event = FlightEvent::kTxnBegin;
  uint64_t a = 0;
  uint64_t b = 0;
};

// Always-on black box: the last kSlotsPerThread structured events of every
// thread, kept in per-thread single-writer rings so the record path is
// lock-free and wait-free (two relaxed atomic ring-cursor ops plus a
// seqlock publish, ~15 ns). Readers (DUMP FLIGHT, the fatal-signal handler)
// stitch the rings without stopping writers: each slot carries a seqlock
// generation, odd while a write is in flight, so a torn slot is skipped
// rather than mis-read. All slot fields are relaxed atomics, which keeps
// concurrent dump-during-write TSan-clean by construction.
//
// Unlike the MetricsRegistry/TraceFacility (per-Server, gated on
// ServerOptions.observability), the recorder is process-global and enabled
// by default: its purpose is the seconds *before* a crash, when nobody had
// observability turned on yet.
class FlightRecorder {
 public:
  static constexpr size_t kSlotsPerThread = 256;
  static constexpr size_t kMaxThreads = 64;
  static constexpr uint64_t kDefaultSlowPurposeNs = 10'000'000;  // 10 ms

  // The process-wide recorder. Intentionally leaked so it outlives every
  // thread and remains valid inside the signal handler during shutdown.
  static FlightRecorder& Global();

  // Appends one event to the calling thread's ring. Lock-free; safe from
  // any thread at any time. If more than kMaxThreads threads are live at
  // once the overflow threads' events are counted in lost() and dropped.
  void RecordEvent(FlightEvent event, uint64_t a = 0, uint64_t b = 0);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Purpose calls slower than this are recorded as kSlowPurposeCall by
  // PurposeCallScope. 0 disables the check.
  uint64_t slow_purpose_ns() const {
    return slow_purpose_ns_.load(std::memory_order_relaxed);
  }
  void set_slow_purpose_ns(uint64_t ns) {
    slow_purpose_ns_.store(ns, std::memory_order_relaxed);
  }

  // Stitches every thread's ring into one list sorted by emission tick.
  // Slots being concurrently written are skipped, not blocked on.
  std::vector<FlightEventRecord> Dump() const;

  // Async-signal-safe dump: writes "FLIGHT ..." lines straight to `fd`
  // via write(2) — no locks, no allocation, no stdio. Used by the fatal
  // signal handler with fd 2; callable from tests against a pipe.
  void DumpToFd(int fd) const;

  // Installs the fatal-signal handler (SIGABRT/SIGSEGV/SIGBUS/SIGFPE/
  // SIGILL) that dumps the recorder to stderr and re-raises with the
  // default disposition (SA_RESETHAND). Idempotent; first caller wins.
  static void InstallSignalHandler();

  // Events dropped because more than kMaxThreads threads were live.
  uint64_t lost() const { return lost_.load(std::memory_order_relaxed); }

 private:
  // One event slot. seq is the seqlock generation: odd while the writer is
  // between its two stores, even when the payload is stable.
  struct Slot {
    std::atomic<uint32_t> seq{0};
    std::atomic<uint64_t> ticks{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    std::atomic<uint8_t> event{0};
  };

  // A single-writer ring. `next` counts emissions forever (position =
  // next % kSlotsPerThread); `thread` is the hashed owner id; `in_use`
  // gates reuse after the owning thread exits — the slots themselves are
  // kept, so a post-mortem dump still shows exited threads' last events.
  struct ThreadBuffer {
    std::atomic<uint64_t> next{0};
    std::atomic<uint64_t> thread{0};
    std::atomic<bool> in_use{false};
    Slot slots[kSlotsPerThread];
  };

  // Releases the thread's buffer for reuse on thread exit.
  struct ThreadHandle {
    ThreadBuffer* buffer = nullptr;
    ~ThreadHandle();
  };

  FlightRecorder() = default;

  // The calling thread's ring, registering (or reusing a released) buffer
  // on first use. nullptr when kMaxThreads rings are all live.
  ThreadBuffer* BufferForThisThread();

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> slow_purpose_ns_{kDefaultSlowPurposeNs};
  std::atomic<uint64_t> lost_{0};

  // Buffers are published append-only with a release store and never
  // freed, so the signal handler can walk [0, buffer_count_) without
  // synchronization.
  std::atomic<ThreadBuffer*> buffers_[kMaxThreads] = {};
  std::atomic<size_t> buffer_count_{0};
  std::mutex register_mu_;  // serializes registration/reuse only
};

}  // namespace obs
}  // namespace grtdb

#endif  // GRTDB_OBS_FLIGHT_RECORDER_H_
