#ifndef GRTDB_OBS_SLOW_QUERY_LOG_H_
#define GRTDB_OBS_SLOW_QUERY_LOG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/bounded_ring.h"
#include "obs/query_profile.h"

namespace grtdb {
namespace obs {

// One retained slow statement: the SQL text plus a frozen copy of its
// profile counters (full Fig. 6 purpose-call breakdown and the row/IO/lock
// counters), as surfaced by the sys_slow_queries view.
struct SlowQueryEntry {
  uint64_t seq = 0;  // monotone admission number (never reused)
  std::string sql;
  uint64_t session_id = 0;  // which session ran it (0 = unknown)
  uint64_t trace_id = 0;    // cross-link into sys_spans (0 = not sampled)
  uint64_t total_ns = 0;
  ProfileCounters counters;
};

// Bounded ring of finished statements that ran longer than the SQL-settable
// threshold (SET SLOW_QUERY_NS = N; 0, the default, disables retention).
// The threshold check is a single relaxed atomic load, so statements under
// the threshold — the overwhelming majority — pay no lock and no copy; only
// admitted entries take the mutex.
class SlowQueryLog {
 public:
  static constexpr size_t kDefaultCapacity = 64;

  explicit SlowQueryLog(size_t capacity = kDefaultCapacity)
      : ring_(capacity) {}

  uint64_t threshold_ns() const {
    return threshold_ns_.load(std::memory_order_relaxed);
  }
  void set_threshold_ns(uint64_t ns) {
    threshold_ns_.store(ns, std::memory_order_relaxed);
  }

  // Retains (sql, profile) when the threshold is set and total_ns reaches
  // it, evicting the oldest entry once the ring is full. session_id and
  // trace_id attribute the entry to its session and (when the statement
  // was sampled) its span trace.
  void MaybeRecord(const std::string& sql, uint64_t total_ns,
                   const QueryProfile& profile, uint64_t session_id = 0,
                   uint64_t trace_id = 0);

  // Retained entries, oldest first.
  std::vector<SlowQueryEntry> Snapshot() const;

  void Clear();

  size_t capacity() const;

 private:
  std::atomic<uint64_t> threshold_ns_{0};
  mutable std::mutex mu_;
  BoundedRing<SlowQueryEntry> ring_;
  uint64_t next_seq_ = 0;
};

}  // namespace obs
}  // namespace grtdb

#endif  // GRTDB_OBS_SLOW_QUERY_LOG_H_
