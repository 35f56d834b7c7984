#ifndef GRTDB_TOOLS_ANALYZE_RULES_H_
#define GRTDB_TOOLS_ANALYZE_RULES_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/analyze/ast.h"
#include "tools/analyze/finding.h"

namespace grtdb {
namespace analyze {

// ---------------------------------------------------------------------------
// grtdb-resource-balance: every tracked acquire (LockManager::Acquire,
// NodeCache::PinFrame, MiMemory::BeginDuration, mutex lock, witness
// acquire) is matched by its release on every CFG path that reaches the
// function exit. Includes the commit-duration follow check: after a
// txn_manager Commit/Rollback call, every path to exit must pass an
// EndDuration(kPerTransaction).
void CheckResourceBalance(const ParsedFile& file,
                          std::vector<Finding>* findings);

// ---------------------------------------------------------------------------
// grtdb-unchecked-status: a call whose callee unambiguously returns
// Status/StatusOr, in expression-statement position, with the result
// neither assigned, returned, tested, nor cast to void.
//
// The index is built from every function *definition* in the run (two-pass:
// Add every file, then Check every file). Names defined with conflicting
// return types are ambiguous and never flagged.
class StatusIndex {
 public:
  void Add(const ParsedFile& file);
  bool ReturnsStatus(const std::string& simple_name) const;

 private:
  // name -> {status-returning defs, other defs}
  std::map<std::string, std::pair<int, int>> counts_;
};

void CheckUncheckedStatus(const ParsedFile& file, const StatusIndex& index,
                          std::vector<Finding>* findings);

// ---------------------------------------------------------------------------
// grtdb-lock-order: builds the static acquisition graph over witness lock
// classes (direct GRTDB_WITNESS_ACQUIRE/SCOPE sites plus classes reached
// through calls, via a name-merged call-graph fixpoint) and diffs each
// acquired-while-holding edge against the canonical witness order.
class LockOrderChecker {
 public:
  // The file must outlive the checker (the analyzer owns parsed files).
  void Add(const ParsedFile& file);
  // Runs the fixpoint and order diff. `order` is the canonical class list,
  // outermost first.
  void Finish(const std::vector<std::string>& order,
              std::vector<Finding>* findings);

  static const std::vector<std::string>& DefaultOrder();

 private:
  std::vector<const ParsedFile*> files_;
};

// ---------------------------------------------------------------------------
// grtdb-blade-contract: in every file registering a blade (a CREATE
// SECONDARY ACCESS_METHOD script), the script's am_* entries must cover the
// full Fig. 6 required set, each entry's exported symbol must be Export()ed
// with the wrapper type the registry expects, and every am_* Export must be
// referenced by the script (no dead purpose functions).
void CheckBladeContract(const ParsedFile& file,
                        std::vector<Finding>* findings);

// ---------------------------------------------------------------------------
// The token rules, run on the analyzer token stream (so they never fire
// inside comments / disabled regions):
//   grtdb-purpose-fig6, grtdb-tprintf-format, grtdb-naked-alloc,
//   grtdb-lockmgr-acquire, grtdb-flight-event, grtdb-span-name,
//   grtdb-heat-access.
void CheckTokenRules(const ParsedFile& file, std::vector<Finding>* findings);

}  // namespace analyze
}  // namespace grtdb

#endif  // GRTDB_TOOLS_ANALYZE_RULES_H_
