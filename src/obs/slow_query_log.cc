#include "obs/slow_query_log.h"

namespace grtdb {
namespace obs {

void SlowQueryLog::MaybeRecord(const std::string& sql, uint64_t total_ns,
                               const QueryProfile& profile,
                               uint64_t session_id, uint64_t trace_id) {
  const uint64_t threshold = threshold_ns_.load(std::memory_order_relaxed);
  if (threshold == 0 || total_ns < threshold) return;

  SlowQueryEntry entry;
  entry.sql = sql;
  entry.session_id = session_id;
  entry.trace_id = trace_id;
  entry.total_ns = total_ns;
  for (size_t i = 0; i < kPurposeFnCount; ++i) {
    const auto fn = static_cast<PurposeFn>(i);
    entry.calls[i] = profile.calls(fn);
    entry.ns[i] = profile.call_ns(fn);
  }
  entry.rows_scanned = profile.rows_scanned;
  entry.rows_returned = profile.rows_returned;
  entry.node_reads = profile.node_reads;
  entry.cache_hits = profile.cache_hits;
  entry.lock_waits = profile.lock_waits;
  entry.lock_wait_ns = profile.lock_wait_ns;

  std::lock_guard<std::mutex> lock(mu_);
  entry.seq = next_seq_++;
  ring_.Push(std::move(entry));
}

std::vector<SlowQueryEntry> SlowQueryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.Snapshot();
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.Clear();
}

size_t SlowQueryLog::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.capacity();
}

}  // namespace obs
}  // namespace grtdb
