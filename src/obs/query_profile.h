#ifndef GRTDB_OBS_QUERY_PROFILE_H_
#define GRTDB_OBS_QUERY_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace grtdb {
namespace obs {

// The Virtual Index Interface purpose functions (paper Fig. 6), in the
// order the profile report lists them.
enum class PurposeFn {
  kAmCreate,
  kAmDrop,
  kAmOpen,
  kAmClose,
  kAmBeginScan,
  kAmEndScan,
  kAmRescan,
  kAmGetNext,
  kAmInsert,
  kAmDelete,
  kAmUpdate,
  kAmScanCost,
  kAmStats,
  kAmCheck,
};
inline constexpr size_t kPurposeFnCount = 14;

// The generic (pre-resolution) name, e.g. "am_getnext".
const char* PurposeFnName(PurposeFn fn);

// A statement's counters, as the profile accumulates them and as a
// slow-query entry freezes them: every VII purpose function's call count
// and time, plus the row and substrate work attributable to the statement.
struct ProfileCounters {
  uint64_t fn_calls[kPurposeFnCount] = {};
  uint64_t fn_ns[kPurposeFnCount] = {};
  // Incremented directly by the executor and (via CurrentProfile()) by the
  // node cache and lock manager.
  uint64_t rows_scanned = 0;
  uint64_t rows_returned = 0;
  uint64_t node_reads = 0;
  uint64_t cache_hits = 0;
  uint64_t lock_waits = 0;
  uint64_t lock_wait_ns = 0;
};

// `count` consecutive calls of one purpose function under one access
// method's name for it ("grt_getnext").
struct PurposeRun {
  PurposeFn fn;
  std::string name;
  uint64_t count;
};

// Per-statement execution profile (paper Fig. 6 accounting) and the one
// record of the statement's purpose calls: the counters above plus the call
// sequence as runs. Reset at the start of each statement; not thread-safe
// (one statement executes on one thread; substrate layers reach it through
// CurrentProfile()).
class QueryProfile : public ProfileCounters {
 public:
  void Reset();

  // One call of `fn`, which the access method names `name`: extends the
  // last run when it is the same call, else starts a new run.
  void CountCall(PurposeFn fn, const std::string& name);
  void AddCallTime(PurposeFn fn, uint64_t ns) {
    fn_ns[static_cast<size_t>(fn)] += ns;
  }

  uint64_t calls(PurposeFn fn) const {
    return fn_calls[static_cast<size_t>(fn)];
  }
  uint64_t call_ns(PurposeFn fn) const {
    return fn_ns[static_cast<size_t>(fn)];
  }
  // The call sequence in order. Capped at kMaxRuns runs so a huge scan
  // cannot balloon the profile: past the cap, calls are only counted
  // (calls() stays exact; the report says how many fell off the end).
  const std::vector<PurposeRun>& runs() const { return runs_; }
  // The retained sequence with one entry per call.
  std::vector<PurposeFn> sequence() const;

  // Human/machine-readable report lines, each prefixed "PROFILE".
  std::vector<std::string> Report() const;

 private:
  static constexpr size_t kMaxRuns = 4096;

  std::vector<PurposeRun> runs_;
  uint64_t runs_dropped_ = 0;
};

// Thread-local attribution point: the profile of the statement currently
// executing on this thread, or null. Substrate layers (node cache, lock
// manager) use it to charge work to the statement without plumbing a
// context through every NodeStore call.
QueryProfile* CurrentProfile();

// RAII scope installing `profile` as the thread's current profile.
class ScopedProfile {
 public:
  explicit ScopedProfile(QueryProfile* profile);
  ~ScopedProfile();

  ScopedProfile(const ScopedProfile&) = delete;
  ScopedProfile& operator=(const ScopedProfile&) = delete;

 private:
  QueryProfile* prev_;
};

}  // namespace obs
}  // namespace grtdb

#endif  // GRTDB_OBS_QUERY_PROFILE_H_
