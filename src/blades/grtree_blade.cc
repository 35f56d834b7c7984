#include "blades/grtree_blade.h"

#include <cstring>
#include <memory>
#include <vector>

#include "blades/timeextent.h"
#include "common/strings.h"
#include "storage/layout.h"

namespace grtdb {

namespace {

// ------------------------------------------------------------ scan state --

struct GrtScanState {
  std::unique_ptr<GRTree::Cursor> cursor;
  // Hard-coded residual checks for AND terms beyond the first (§5.2), each
  // compiled once per scan at its current time.
  std::vector<GRTree::EntryTest> residual;
  // Dynamic-dispatch mode re-evaluates the registered strategy UDRs on
  // every candidate instead.
  const MiAmQualDesc* qual = nullptr;
  bool dynamic = false;
  int64_t ct = 0;
};

// One statement's open index: the shared lifecycle's handle plus the open
// scan that a deletion may have to restart (§5.5).
struct GrtHandle : TreeHandle<GRTree> {
  GrtScanState* active_scan = nullptr;
};

GrtHandle* StateOf(MiAmTableDesc* desc) { return HandleOf<GrtHandle>(desc); }

// Brackets one index mutation (which makes the statement a writer) in a
// WAL transaction when the index lives in an external file: the
// statement's node writes hit the log first, so a mid-statement crash can
// no longer tear the tree.
Status WithWalTxn(GrtHandle* state, const std::function<Status()>& body) {
  state->wrote = true;
  WalNodeStore* wal = state->stack->wal.get();
  if (wal == nullptr) return body();
  GRTDB_RETURN_IF_ERROR(wal->Begin());
  Status status = body();
  if (!status.ok()) {
    (void)wal->Rollback();
    return status;
  }
  return wal->Commit();
}

// The record grt_create() inserts "in the table associated with the
// grtree_am access method": the storage layout, the anchor node, the
// single LO (kSingleLo) and the file (kExternalFile). Written once; the
// live store stack tracks the layout's growth from then on.
std::vector<uint8_t> EncodeRecord(GRTreeBladeOptions::Storage layout,
                                  const IndexStack& stack) {
  uint64_t lo = 0;
  if (layout == GRTreeBladeOptions::Storage::kSingleLo) {
    lo = static_cast<SingleLoNodeStore*>(stack.base.get())->handle().id;
  }
  std::vector<uint8_t> out(1 + 8 + 8 + 4 + stack.path.size());
  uint8_t* p = out.data();
  *p++ = static_cast<uint8_t>(layout);
  StoreU64(p, stack.anchor);
  p += 8;
  StoreU64(p, lo);
  p += 8;
  StoreU32(p, static_cast<uint32_t>(stack.path.size()));
  p += 4;
  std::memcpy(p, stack.path.data(), stack.path.size());
  return out;
}

StatusOr<PredicateOp> OpFromStrategyName(const std::string& name,
                                         bool column_first) {
  PredicateOp op;
  if (EqualsIgnoreCase(name, "Overlaps")) {
    op = PredicateOp::kOverlaps;
  } else if (EqualsIgnoreCase(name, "Contains")) {
    op = PredicateOp::kContains;
  } else if (EqualsIgnoreCase(name, "ContainedIn")) {
    op = PredicateOp::kContainedIn;
  } else if (EqualsIgnoreCase(name, "Equal")) {
    op = PredicateOp::kEqual;
  } else {
    return Status::NotSupported("strategy function '" + name +
                                "' is not known to the GR-tree");
  }
  if (!column_first) {
    // f(const, column): the data extent is the *second* argument, so the
    // containment predicates flip.
    if (op == PredicateOp::kContains) {
      op = PredicateOp::kContainedIn;
    } else if (op == PredicateOp::kContainedIn) {
      op = PredicateOp::kContains;
    }
  }
  return op;
}

// Breaks the qualification into simple (op, query) predicates (§6.3: "how
// to break a complex qualification into simple ones"). Supported shapes:
// one term, or a conjunction of terms; disjunctions never reach a virtual
// index in this server's optimizer.
Status TranslateQual(const MiAmQualDesc& qual,
                     std::vector<std::pair<PredicateOp, TimeExtent>>* terms) {
  if (qual.op == MiAmQualDesc::Op::kTerm) {
    if (qual.term.unary) {
      return Status::NotSupported("GR-tree has no unary strategy functions");
    }
    auto op_or = OpFromStrategyName(qual.term.func->name,
                                    qual.term.column_first);
    if (!op_or.ok()) return op_or.status();
    TimeExtent query;
    GRTDB_RETURN_IF_ERROR(ExtentFromValue(qual.term.constant, &query));
    terms->emplace_back(op_or.value(), query);
    return Status::OK();
  }
  if (qual.op == MiAmQualDesc::Op::kAnd) {
    for (const MiAmQualDesc& child : qual.children) {
      GRTDB_RETURN_IF_ERROR(TranslateQual(child, terms));
    }
    return Status::OK();
  }
  return Status::NotSupported(
      "GR-tree scans do not accept disjunctive qualifications");
}

int64_t ScanTime(MiCallContext& ctx) { return BladeCurrentTime(ctx); }

// Opens (or reopens) the scan's cursor on the qualification's first term
// and compiles the others as residual tests, all at the scan's time.
Status StartScan(GRTree* tree, GrtScanState* scan) {
  std::vector<std::pair<PredicateOp, TimeExtent>> terms;
  GRTDB_RETURN_IF_ERROR(TranslateQual(*scan->qual, &terms));
  if (terms.empty()) {
    return Status::InvalidArgument("empty qualification");
  }
  scan->residual.clear();
  for (size_t i = 1; i < terms.size(); ++i) {
    scan->residual.emplace_back(terms[i].first, terms[i].second, scan->ct);
  }
  auto cursor_or = tree->Search(terms[0].first, terms[0].second, scan->ct);
  if (!cursor_or.ok()) return cursor_or.status();
  scan->cursor = std::move(cursor_or).value();
  return Status::OK();
}

// -------------------------------------------------------- purpose bodies --
// Each purpose function is a closure over the blade options; the factory
// below exports them under the registration prefix.

PurposeFunctions MakeBladeFns(const GRTreeBladeOptions& options) {
  PurposeFunctions fns;

  fns.am_create = [options](MiCallContext& ctx,
                            MiAmTableDesc* desc) -> Status {
    const IndexDef* index = desc->index;
    // Table 5, grt_create steps 2-4: column type, operator class, and
    // duplicate-index checks.
    GRTDB_RETURN_IF_ERROR(CheckExtentKey(ctx, desc));
    const OpClassDef* opclass =
        ctx.server->catalog().FindOpClass(index->opclasses[0]);
    if (opclass == nullptr ||
        !EqualsIgnoreCase(opclass->access_method, index->access_method)) {
      return Status::InvalidArgument("operator class '" +
                                     index->opclasses[0] +
                                     "' cannot be used with " +
                                     index->access_method);
    }
    for (IndexDef* other :
         ctx.server->catalog().IndexesOnTable(index->table)) {
      if (!EqualsIgnoreCase(other->name, index->name) &&
          EqualsIgnoreCase(other->access_method, index->access_method) &&
          other->key_columns == index->key_columns) {
        return Status::AlreadyExists(
            "an index using " + index->access_method +
            " already exists on the same column(s): " + other->name);
      }
    }
    // Steps 5-7: create the BLOB(s) and the store stack over them, open,
    // record them in the AM's table. The stack then lives in the server's
    // slot for the index until grt_drop.
    GRTDB_RETURN_IF_ERROR(BuildIndexStack(
        ctx, desc, options.storage, options.nodes_per_lo,
        options.external_dir + "/grtree_" + ToLower(index->name) + ".dat"));
    GRTDB_RETURN_IF_ERROR(
        OpenHandle<GrtHandle>(ctx, desc, [&options](GrtHandle* h) {
          h->wrote = true;
          return GRTree::Create(h->store, options.tree, &h->stack->anchor);
        }));
    GRTDB_RETURN_IF_ERROR(ctx.server->AmCatalogPut(
        index->access_method, index->name,
        EncodeRecord(options.storage, *StateOf(desc)->stack)));
    ctx.server->trace().Tprintf("grtree", 1, "created index %s",
                                index->name.c_str());
    return Status::OK();
  };

  fns.am_open = [tree = options.tree](MiCallContext& ctx,
                                      MiAmTableDesc* desc) -> Status {
    return OpenHandle<GrtHandle>(ctx, desc, [&tree](GrtHandle* h) {
      return GRTree::Open(h->store, h->stack->anchor, tree);
    });
  };

  fns.am_close = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    GrtHandle* state = StateOf(desc);
    Status status = Status::OK();
    if (state != nullptr && state->tree->has_pending_condense()) {
      status = WithWalTxn(
          state, [&] { return state->tree->FlushPending(ScanTime(ctx)); });
    }
    Status closed = CloseHandle<GrtHandle>(desc);
    if (status.ok()) status = closed;
    return status;
  };

  fns.am_beginscan = [dynamic = options.dynamic_dispatch](
                         MiCallContext& ctx, MiAmScanDesc* sd) -> Status {
    GrtHandle* state = StateOf(sd->table_desc);
    if (state == nullptr) {
      return Status::Internal("grt_beginscan on unopened index");
    }
    auto scan = std::make_unique<GrtScanState>();
    scan->ct = ScanTime(ctx);
    scan->qual = sd->qual;
    scan->dynamic = dynamic;
    GRTDB_RETURN_IF_ERROR(StartScan(state->tree.get(), scan.get()));
    state->active_scan = scan.get();
    sd->user_data = scan.release();
    return Status::OK();
  };

  fns.am_getnext = [](MiCallContext& ctx, MiAmScanDesc* sd, bool* has,
                      uint64_t* retrowid) -> Status {
    auto* scan = static_cast<GrtScanState*>(sd->user_data);
    if (scan == nullptr) {
      return Status::Internal("grt_getnext without grt_beginscan");
    }
    *has = false;
    while (true) {
      bool cursor_has = false;
      GRTree::Entry entry;
      GRTDB_RETURN_IF_ERROR(scan->cursor->Next(&cursor_has, &entry));
      if (!cursor_has) return Status::OK();
      bool matches = true;
      if (scan->dynamic) {
        // §5.2 extensible variant: resolve and invoke the registered
        // strategy UDRs on the candidate (costing dynamic dispatch).
        Value key = ValueFromExtent(ctx.server, entry.extent);
        GRTDB_RETURN_IF_ERROR(
            EvaluateQualOnValue(ctx, *scan->qual, key, &matches));
      } else {
        // Hard-coded residual checks (the paper's choice).
        for (const GRTree::EntryTest& test : scan->residual) {
          if (!test.Matches(entry.extent)) {
            matches = false;
            break;
          }
        }
      }
      if (!matches) continue;
      *retrowid = entry.payload;
      *has = true;
      return Status::OK();
    }
  };

  fns.am_rescan = [](MiCallContext&, MiAmScanDesc* sd) -> Status {
    GrtHandle* state = StateOf(sd->table_desc);
    auto* scan = static_cast<GrtScanState*>(sd->user_data);
    if (scan == nullptr || state == nullptr) {
      return Status::Internal("grt_rescan without grt_beginscan");
    }
    // A rescan restarts the scan from scratch (fresh cursor, fresh
    // duplicate filter).
    return StartScan(state->tree.get(), scan);
  };

  const DeletionPolicy policy = options.tree.deletion_policy;
  fns.am_endscan = [policy](MiCallContext& ctx, MiAmScanDesc* sd) -> Status {
    GrtHandle* state = StateOf(sd->table_desc);
    auto* scan = static_cast<GrtScanState*>(sd->user_data);
    Status status = Status::OK();
    if (state != nullptr && policy == DeletionPolicy::kPostponeReinsert &&
        state->tree->has_pending_condense()) {
      // Deferred re-insertions happen once the scan no longer needs a
      // stable tree (§5.5), logged like any other index mutation.
      status = WithWalTxn(
          state, [&] { return state->tree->FlushPending(ScanTime(ctx)); });
    }
    if (state != nullptr) state->active_scan = nullptr;
    delete scan;
    sd->user_data = nullptr;
    return status;
  };

  fns.am_insert = [](MiCallContext& ctx, MiAmTableDesc* desc,
                     const Row& keyrow, uint64_t rowid) -> Status {
    GrtHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    TimeExtent extent;
    GRTDB_RETURN_IF_ERROR(ExtentFromValue(keyrow.at(0), &extent));
    return WithWalTxn(state, [&] {
      return state->tree->Insert(extent, rowid, BladeCurrentTime(ctx));
    });
  };

  fns.am_delete = [policy](MiCallContext& ctx, MiAmTableDesc* desc,
                           const Row& keyrow, uint64_t rowid) -> Status {
    GrtHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    TimeExtent extent;
    GRTDB_RETURN_IF_ERROR(ExtentFromValue(keyrow.at(0), &extent));
    bool found = false;
    const uint64_t epoch_before = state->tree->condense_epoch();
    GRTDB_RETURN_IF_ERROR(WithWalTxn(state, [&] {
      return state->tree->Delete(extent, rowid, BladeCurrentTime(ctx), &found);
    }));
    if (!found) {
      return Status::NotFound("index entry to delete was not found");
    }
    // §5.5 deletion policies: restart the open scan always, or only when
    // the tree actually condensed (the cursor detects epoch changes itself,
    // so only kRestartAlways needs a push here).
    if (state->active_scan != nullptr &&
        policy == DeletionPolicy::kRestartAlways &&
        epoch_before == state->tree->condense_epoch()) {
      state->active_scan->cursor->Reset();
    }
    return Status::OK();
  };

  fns.am_scancost = [](MiCallContext& ctx, MiAmTableDesc* desc,
                       const MiAmQualDesc* qual, double* cost) -> Status {
    GrtHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    std::vector<std::pair<PredicateOp, TimeExtent>> terms;
    GRTDB_RETURN_IF_ERROR(TranslateQual(*qual, &terms));
    if (terms.empty()) {
      return Status::InvalidArgument("empty qualification");
    }
    auto cost_or = state->tree->EstimateScanCost(terms[0].first,
                                                 terms[0].second,
                                                 BladeCurrentTime(ctx));
    if (!cost_or.ok()) return cost_or.status();
    *cost = cost_or.value();
    return Status::OK();
  };

  fns.am_check = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    GrtHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    return state->tree->CheckConsistency(BladeCurrentTime(ctx));
  };

  fns.am_stats = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    GrtHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    const int64_t ct = BladeCurrentTime(ctx);
    GRTreeStats stats;
    GRTDB_RETURN_IF_ERROR(
        state->tree->ComputeStats(ct, /*dead_space_samples=*/0, &stats));
    IndexStatsBuilder builder(desc, state->tree->max_entries());
    IndexStatsReport& report = builder.report();
    report.size = stats.size;
    report.height = stats.height;
    report.computed_at = ct;
    for (const GRTreeLevelStats& level : stats.levels) {
      IndexLevelStats& out =
          builder.AddLevel(level.level, level.nodes, level.entries);
      out.total_area = level.total_area;
      out.overlap_area = level.overlap_area;
      if (level.level == 0) {
        report.dead_entries = level.dead_entries;
        report.growing_regions = level.growing_entries;
        report.growing_area = level.growing_area;
      }
    }
    ctx.server->trace().Tprintf(
        "grtree", 1, "stats %s: size=%llu height=%u nodes=%llu growing=%llu",
        desc->index->name.c_str(),
        static_cast<unsigned long long>(stats.size), stats.height,
        static_cast<unsigned long long>(stats.nodes),
        static_cast<unsigned long long>(report.growing_regions));
    builder.Publish(ctx.server);
    return Status::OK();
  };

  AddSharedHooks<GrtHandle>(&fns);
  return fns;
}

}  // namespace

Status RegisterGRTreeBlade(Server* server,
                           const GRTreeBladeOptions& options) {
  GRTDB_RETURN_IF_ERROR(RegisterTimeExtentType(server));
  return RegisterAccessMethod(server, options.am_name, options.prefix,
                              MakeBladeFns(options),
                              ExtentProject(options.am_name, options.prefix));
}

}  // namespace grtdb
