#ifndef GRTDB_BLADE_TRACE_H_
#define GRTDB_BLADE_TRACE_H_

#include <atomic>
#include <cstdarg>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/bounded_ring.h"

namespace grtdb {

// One emitted trace message with its capture context.
struct TraceRecord {
  uint64_t seq = 0;      // monotonically increasing emission number
  int64_t ts_us = 0;     // wall-clock microseconds since the Unix epoch
  uint64_t thread = 0;   // hashed id of the emitting thread
  std::string trace_class;
  int level = 0;
  std::string message;
};

// The DataBlade trace facility (paper §6.4): messages carry a trace class
// and level; a message is emitted only when its class is enabled at >= its
// level. Messages go to a bounded in-memory ring (the "trace file"), which
// tests and the debugging workflow read back; once the ring is full the
// oldest record is overwritten and dropped() counts the loss.
//
// The enabled check is lock-free: class slots live in a fixed array whose
// names are immutable once published (slot_count_ is the release/acquire
// publication point) and whose levels are atomics. When no class is
// enabled at all — the production steady state — Enabled() is a single
// relaxed atomic load, and a disabled-class Tprintf does no locking, no
// formatting, and no allocation.
class TraceFacility {
 public:
  explicit TraceFacility(size_t capacity = kDefaultCapacity);

  TraceFacility(const TraceFacility&) = delete;
  TraceFacility& operator=(const TraceFacility&) = delete;

  // "tset": enables `trace_class` at `level` (0 disables).
  void SetClass(std::string_view trace_class, int level);

  bool Enabled(std::string_view trace_class, int level) const {
    if (enabled_count_.load(std::memory_order_relaxed) == 0) return false;
    return EnabledSlow(trace_class, level);
  }

  // "gl_tprintf"/tprintf: records the message if enabled.
  void Tprintf(std::string_view trace_class, int level, const char* format,
               ...) __attribute__((format(printf, 4, 5)));

  // Legacy view: the ring rendered oldest-first as
  // "<class> <level>: <message>" strings.
  std::vector<std::string> log() const;

  // The ring oldest-first with timestamps and thread ids.
  std::vector<TraceRecord> records() const;

  // Records overwritten because the ring was full.
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  // Resizes the ring, keeping the newest records that fit. A capacity of 0
  // is clamped to 1.
  void SetCapacity(size_t capacity);
  size_t capacity() const;

  // Empties the ring and resets the dropped counter.
  void Clear();

  static constexpr size_t kDefaultCapacity = 4096;

 private:
  // Enabled trace classes are few (the paper's tset workflow names them one
  // at a time), so a fixed array beats a map: registration is append-only,
  // names never move, and readers need no lock. Registrations beyond
  // kMaxClasses are ignored.
  static constexpr size_t kMaxClasses = 64;
  static constexpr size_t kMaxClassName = 23;

  struct ClassSlot {
    char name[kMaxClassName + 1] = {};
    size_t len = 0;
    std::atomic<int> level{0};
  };

  bool EnabledSlow(std::string_view trace_class, int level) const;
  void Append(std::string_view trace_class, int level, const char* message);

  ClassSlot slots_[kMaxClasses];
  std::atomic<size_t> slot_count_{0};
  // Number of slots with level > 0; zero means tracing is globally off.
  std::atomic<int> enabled_count_{0};
  std::atomic<uint64_t> dropped_{0};

  mutable std::mutex mu_;  // guards the ring and slot registration
  BoundedRing<TraceRecord> ring_;
  uint64_t next_seq_ = 0;
};

}  // namespace grtdb

#endif  // GRTDB_BLADE_TRACE_H_
