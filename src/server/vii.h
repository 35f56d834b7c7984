#ifndef GRTDB_SERVER_VII_H_
#define GRTDB_SERVER_VII_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/context.h"
#include "server/table.h"
#include "server/udr.h"
#include "server/value.h"

namespace grtdb {

struct IndexDef;

// ---------------------------------------------------------------------------
// The Virtual Index Interface: the descriptors and purpose-function
// signatures through which the server drives a developer-defined secondary
// access method (paper §4, Table 2, Table 5, Fig. 6).
// ---------------------------------------------------------------------------

// One single-column predicate of the qualification: f(column, constant),
// f(constant, column), or f(column) — the only shapes a qualification
// descriptor accommodates (paper §5.1).
struct QualTerm {
  const UdrDef* func = nullptr;  // the registered strategy function
  Value constant;                // absent for unary predicates
  bool unary = false;
  bool column_first = true;  // f(column, constant) vs f(constant, column)
};

// The qualification descriptor passed to am_beginscan: a boolean tree of
// strategy-function terms over the indexed column.
struct MiAmQualDesc {
  enum class Op { kTerm, kAnd, kOr };
  Op op = Op::kTerm;
  QualTerm term;                          // kTerm
  std::vector<MiAmQualDesc> children;     // kAnd / kOr

  // Renders e.g. "Overlaps(<col>, '...') AND Contains(...)". `render`
  // formats constants (the server passes its opaque-aware renderer).
  std::string ToString(
      const std::string& column_name,
      const std::function<std::string(const Value&)>& render = {}) const;
};

// Evaluates the qualification on one key value by invoking the registered
// strategy UDRs — what the server does when no index is used, and what a
// generic (non-hard-coded) access method does inside am_getnext.
Status EvaluateQualOnValue(MiCallContext& ctx, const MiAmQualDesc& qual,
                           const Value& key, bool* matches);

// The index descriptor (MI_AM_TABLE_DESC): everything a purpose function
// needs to know about the index instance it manipulates. The server fills
// everything except `user_data`, which belongs to the access method (the
// paper's purpose functions stash the Tree object pointer there).
//
// `am_state` points at the index's server-owned slot (IndexDef::am_state):
// state the access method keeps from am_create to am_drop, shared by every
// statement. Outside DDL the slot is only read: am_create fills it and
// am_drop empties it, both under the exclusive statement gate.
struct MiAmTableDesc {
  const IndexDef* index = nullptr;
  Table* table = nullptr;
  std::vector<int> key_columns;      // base-table column numbers
  std::vector<TypeDesc> key_types;   // the row descriptor (MI_AM_ROW_DESC)
  bool just_created = false;  // true when am_open follows am_create directly
  std::shared_ptr<void>* am_state = nullptr;
  void* user_data = nullptr;
};

// The scan descriptor (MI_AM_SCAN_DESC) passed to the scan purpose
// functions; carries the qualification and the am's scan state.
struct MiAmScanDesc {
  MiAmTableDesc* table_desc = nullptr;
  const MiAmQualDesc* qual = nullptr;
  void* user_data = nullptr;
};

// Purpose-function signatures (Table 2). All receive the call context; scan
// functions receive the scan descriptor, the rest the index descriptor.
using AmSimpleFn = std::function<Status(MiCallContext&, MiAmTableDesc*)>;
using AmScanFn = std::function<Status(MiCallContext&, MiAmScanDesc*)>;
// am_getnext returns one qualifying row per call: *has = false ends the
// scan; retrowid is the packed RecordId (paper Table 5), all the server
// needs to read the stored row.
using AmGetNextFn = std::function<Status(MiCallContext&, MiAmScanDesc*,
                                         bool* has, uint64_t* retrowid)>;
using AmModifyFn = std::function<Status(MiCallContext&, MiAmTableDesc*,
                                        const Row& keyrow, uint64_t rowid)>;
using AmUpdateFn = std::function<Status(
    MiCallContext&, MiAmTableDesc*, const Row& oldrow, uint64_t oldrowid,
    const Row& newrow, uint64_t newrowid)>;
using AmScanCostFn = std::function<Status(
    MiCallContext&, MiAmTableDesc*, const MiAmQualDesc*, double* cost)>;

// The resolved hook table of a secondary access method. Only am_getnext is
// mandatory (paper §4 Step 2); the server checks the others before calling.
struct PurposeFunctions {
  AmSimpleFn am_create;
  AmSimpleFn am_drop;
  AmSimpleFn am_open;
  AmSimpleFn am_close;
  AmScanFn am_beginscan;
  AmScanFn am_endscan;
  AmScanFn am_rescan;
  AmGetNextFn am_getnext;
  AmModifyFn am_insert;
  AmModifyFn am_delete;
  AmUpdateFn am_update;
  AmScanCostFn am_scancost;
  AmSimpleFn am_stats;
  AmSimpleFn am_check;
};

}  // namespace grtdb

#endif  // GRTDB_SERVER_VII_H_
