#ifndef WIREBENCH_INPUTS_H_
#define WIREBENCH_INPUTS_H_

// Seeded inputs for the wire benchmark: the base relation every workload
// loads, the write stream the writers replay, and the oracle answers the
// reads are checked against. Everything here is computed before the timed
// window from BitemporalWorkload; the server only ever sees the SQL text
// and LOAD rows built from it.

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "temporal/extent.h"
#include "workload/workload.h"

namespace wirebench {

// A relation state: the `id` column of every stored tuple version mapped to
// its extent. Ordered so LOAD files and replays are deterministic.
using Relation = std::map<uint64_t, grtdb::TimeExtent>;

// Bytes of one user row version: the int id and the 32-byte extent.
inline constexpr double kUserRowBytes = 40;

// Sorted ids whose extent overlaps `query` at `ct`.
std::vector<uint64_t> OverlapIds(const Relation& relation,
                                 const grtdb::TimeExtent& query, int64_t ct);

// Equal answers for a relation. Equal regions share their TTbegin, so a
// lookup scans one TTbegin bucket instead of the relation.
class EqualIndex {
 public:
  explicit EqualIndex(const Relation& relation);
  // Registers an id that is new to the relation.
  void Add(uint64_t id, const grtdb::TimeExtent& extent);
  // Sorted ids of `relation` whose extent equals `query` at `ct`.
  std::vector<uint64_t> Ids(const Relation& relation,
                            const grtdb::TimeExtent& query, int64_t ct) const;

 private:
  std::unordered_map<int64_t, std::vector<uint64_t>> by_tt_begin_;
};

// The extent as the SQL literal body the grt_timeextent input function
// parses ("tt1, UC, vt1, NOW" in chronons).
std::string ExtentText(const grtdb::TimeExtent& extent);

// One generator action as the writer sends it: optionally SET CURRENT_TIME,
// then BEGIN WORK, `statements`, COMMIT WORK. Each statement must affect
// exactly one row. `probe` is the newest version the action wrote and
// `probe_ids` the Equal answer for it right after the action commits.
struct WriteAction {
  int64_t ct = 0;
  std::vector<grtdb::IndexOp> ops;
  std::vector<std::string> statements;
  grtdb::TimeExtent probe;
  std::vector<uint64_t> probe_ids;
};

struct Inputs {
  Relation base;        // the relation after the base actions
  int64_t base_ct = 0;  // generator clock after the base actions
  std::string load_rows;  // LOAD file body: "id|extent" per line, id order
  std::vector<WriteAction> stream;
};

// Runs `base_actions` generator actions into the base relation, then
// `stream_actions` further non-empty actions into the write stream.
Inputs MakeInputs(uint64_t seed, uint64_t base_actions,
                  size_t stream_actions);

// `base` with the first `count` stream actions applied.
Relation ApplyStream(const Relation& base,
                     const std::vector<WriteAction>& stream, size_t count);

}  // namespace wirebench

#endif  // WIREBENCH_INPUTS_H_
