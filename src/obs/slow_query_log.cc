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
  entry.counters = profile;

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
