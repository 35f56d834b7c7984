#include "blades/rstar_blade.h"

#include <memory>
#include <vector>

#include "blades/access_method.h"
#include "blades/timeextent.h"
#include "rstar/rstar_tree.h"

namespace grtdb {

Rect TransformExtent(const TimeExtent& extent, int64_t max_timestamp) {
  return Rect::Of(
      extent.tt_begin.chronon(),
      extent.tt_end.is_uc() ? max_timestamp : extent.tt_end.chronon(),
      extent.vt_begin.chronon(),
      extent.vt_end.is_now() ? max_timestamp : extent.vt_end.chronon());
}

namespace {

struct RstScanState {
  // The R*-tree interface is callback-based; the scan materializes the
  // candidate rowids at beginscan and verifies exact geometry in getnext.
  std::vector<std::pair<Rect, uint64_t>> candidates;
  size_t next = 0;
  const MiAmQualDesc* qual = nullptr;
  int64_t ct = 0;
};

using RstHandle = TreeHandle<RStarTree>;

RstHandle* StateOf(MiAmTableDesc* desc) { return HandleOf<RstHandle>(desc); }

// Conservative index filter: both the data's and the query's transformed
// rectangles cover their true regions, so rectangle intersection is
// necessary for every predicate; the exact check runs on the base tuples.
Status QueryRectOf(const MiAmQualDesc& qual, Rect* out) {
  switch (qual.op) {
    case MiAmQualDesc::Op::kTerm: {
      TimeExtent query;
      GRTDB_RETURN_IF_ERROR(ExtentFromValue(qual.term.constant, &query));
      // For conjunctions the index filters with the *first* term's
      // rectangle only (intersecting the query rectangles would not be
      // conservative); getnext verifies the full qualification exactly.
      if (out->IsEmpty()) *out = TransformExtent(query, kRStarMaxTimestamp);
      return Status::OK();
    }
    case MiAmQualDesc::Op::kAnd:
      for (const MiAmQualDesc& child : qual.children) {
        GRTDB_RETURN_IF_ERROR(QueryRectOf(child, out));
      }
      return Status::OK();
    case MiAmQualDesc::Op::kOr:
      return Status::NotSupported(
          "rstar_am scans do not accept disjunctive qualifications");
  }
  return Status::Internal("bad qualification");
}

Status KeyRectOf(const Row& keyrow, Rect* out) {
  TimeExtent extent;
  GRTDB_RETURN_IF_ERROR(ExtentFromValue(keyrow.at(0), &extent));
  *out = TransformExtent(extent, kRStarMaxTimestamp);
  return Status::OK();
}

PurposeFunctions MakeBladeFns() {
  PurposeFunctions fns;

  fns.am_create = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    GRTDB_RETURN_IF_ERROR(CheckExtentKey(ctx, desc));
    GRTDB_RETURN_IF_ERROR(BuildIndexStack(ctx, desc));
    GRTDB_RETURN_IF_ERROR(OpenHandle<RstHandle>(ctx, desc, [](RstHandle* h) {
      h->wrote = true;
      return RStarTree::Create(h->store, {}, &h->stack->anchor);
    }));
    return PutLoRecord(ctx, desc);
  };

  fns.am_open = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    return OpenHandle<RstHandle>(ctx, desc, [](RstHandle* h) {
      return RStarTree::Open(h->store, h->stack->anchor, {});
    });
  };

  fns.am_beginscan = [](MiCallContext& ctx, MiAmScanDesc* sd) -> Status {
    RstHandle* state = StateOf(sd->table_desc);
    if (state == nullptr || state->tree == nullptr) {
      return Status::Internal("rst_beginscan on unopened index");
    }
    auto scan = std::make_unique<RstScanState>();
    scan->ct = BladeCurrentTime(ctx);
    scan->qual = sd->qual;
    Rect query;
    GRTDB_RETURN_IF_ERROR(QueryRectOf(*sd->qual, &query));
    GRTDB_RETURN_IF_ERROR(state->tree->Search(
        query, [&scan](const RStarTree::Entry& entry) {
          scan->candidates.emplace_back(entry.rect, entry.payload);
          return true;
        }));
    sd->user_data = scan.release();
    return Status::OK();
  };

  fns.am_getnext = [](MiCallContext& ctx, MiAmScanDesc* sd, bool* has,
                      uint64_t* retrowid) -> Status {
    auto* scan = static_cast<RstScanState*>(sd->user_data);
    if (scan == nullptr) {
      return Status::Internal("rst_getnext without rst_beginscan");
    }
    *has = false;
    Table* table = sd->table_desc->table;
    const int key_column = sd->table_desc->key_columns.at(0);
    while (scan->next < scan->candidates.size()) {
      const auto& [rect, rowid] = scan->candidates[scan->next++];
      // The transformed leaf rectangles over-approximate, so every
      // candidate is verified against the exact geometry of the data
      // tuple (§3's final step).
      const Row* base_row = nullptr;
      GRTDB_RETURN_IF_ERROR(table->Get(RecordId::Unpack(rowid), &base_row));
      const Value& key = base_row->at(static_cast<size_t>(key_column));
      bool matches = false;
      GRTDB_RETURN_IF_ERROR(
          EvaluateQualOnValue(ctx, *scan->qual, key, &matches));
      if (!matches) continue;
      *retrowid = rowid;
      *has = true;
      return Status::OK();
    }
    return Status::OK();
  };

  fns.am_rescan = [](MiCallContext&, MiAmScanDesc* sd) -> Status {
    auto* scan = static_cast<RstScanState*>(sd->user_data);
    if (scan == nullptr) return Status::Internal("rescan without beginscan");
    scan->next = 0;
    return Status::OK();
  };

  fns.am_endscan = [](MiCallContext&, MiAmScanDesc* sd) -> Status {
    delete static_cast<RstScanState*>(sd->user_data);
    sd->user_data = nullptr;
    return Status::OK();
  };

  fns.am_insert = [](MiCallContext&, MiAmTableDesc* desc, const Row& keyrow,
                     uint64_t rowid) -> Status {
    RstHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    state->wrote = true;
    Rect rect;
    GRTDB_RETURN_IF_ERROR(KeyRectOf(keyrow, &rect));
    return state->tree->Insert(rect, rowid);
  };

  fns.am_delete = [](MiCallContext&, MiAmTableDesc* desc, const Row& keyrow,
                     uint64_t rowid) -> Status {
    RstHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    state->wrote = true;
    Rect rect;
    GRTDB_RETURN_IF_ERROR(KeyRectOf(keyrow, &rect));
    bool found = false;
    GRTDB_RETURN_IF_ERROR(state->tree->Delete(rect, rowid, &found));
    if (!found) {
      return Status::NotFound("index entry to delete was not found");
    }
    return Status::OK();
  };

  fns.am_scancost = [](MiCallContext&, MiAmTableDesc* desc,
                       const MiAmQualDesc* qual, double* cost) -> Status {
    RstHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    Rect query;
    GRTDB_RETURN_IF_ERROR(QueryRectOf(*qual, &query));
    auto cost_or = state->tree->EstimateScanCost(query);
    if (!cost_or.ok()) return cost_or.status();
    *cost = cost_or.value();
    return Status::OK();
  };

  fns.am_check = [](MiCallContext&, MiAmTableDesc* desc) -> Status {
    RstHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    return state->tree->CheckConsistency();
  };

  fns.am_stats = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    RstHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    std::vector<RStarLevelStats> levels;
    GRTDB_RETURN_IF_ERROR(state->tree->LevelStats(&levels));
    IndexStatsBuilder stats(desc, state->tree->max_entries());
    stats.report().size = state->tree->size();
    stats.report().height = state->tree->height();
    stats.report().computed_at = BladeCurrentTime(ctx);
    for (const RStarLevelStats& level : levels) {
      IndexLevelStats& out = stats.AddLevel(level.level, level.nodes,
                                            level.entries);
      out.total_area = level.total_area;
      out.overlap_area = level.overlap_area;
    }
    stats.Publish(ctx.server);
    return Status::OK();
  };

  AddSharedHooks<RstHandle>(&fns);
  return fns;
}

}  // namespace

Status RegisterRStarBlade(Server* server) {
  GRTDB_RETURN_IF_ERROR(RegisterTimeExtentType(server));
  return RegisterAccessMethod(server, "rstar_am", "rst", MakeBladeFns(),
                              ExtentProject("rstar_am", "rst"));
}

}  // namespace grtdb
