#include "blades/grtree_blade.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "blades/index_cache.h"
#include "blades/locking_store.h"
#include "blades/timeextent.h"
#include "common/strings.h"
#include "storage/layout.h"
#include "storage/wal_store.h"
#include "temporal/predicates.h"

namespace grtdb {

namespace {

// ------------------------------------------------------------ scan state --

struct GrtScanState {
  std::unique_ptr<GRTree::Cursor> cursor;
  PredicateOp first_op = PredicateOp::kOverlaps;
  TimeExtent first_query;
  // Hard-coded residual checks for AND terms beyond the first (§5.2).
  std::vector<std::pair<PredicateOp, TimeExtent>> residual;
  // Dynamic-dispatch mode re-evaluates the registered strategy UDRs on
  // every candidate instead.
  const MiAmQualDesc* qual = nullptr;
  bool dynamic = false;
  int64_t ct = 0;
};

// The index's store stack, built once by grt_create and owned by the
// server (IndexDef::am_state) until grt_drop: the base layout, the node
// cache directly above it and, for kExternalFile, the WAL above the cache.
// Every statement's tree runs on this one stack, so the cache stays warm
// from statement to statement. Members are destroyed in reverse, WAL →
// cache → base, so the cache's write-back lands in a live base store.
struct GrtIndexState {
  GRTreeBladeOptions options;
  std::unique_ptr<NodeStore> base_store;
  // Below the WAL: safe because the WAL flushes its inner store (here the
  // cache, which writes back) before every log truncation.
  std::unique_ptr<NodeCache> node_cache;
  // kExternalFile only: the developer-built recovery layer of §5.3 — the
  // server's own logging covers sbspace LOs, an OS file gets nothing.
  std::unique_ptr<WalNodeStore> wal_store;
  NodeId anchor = kInvalidNodeId;
};

// One statement's open index — the Tree object of Table 5, stashed in the
// index descriptor's user data.
struct GrtTreeState {
  GrtIndexState* index = nullptr;
  // §5.3 LO two-phase locking for this statement's transaction, above the
  // shared cache (sbspace layouts only).
  std::unique_ptr<LockingNodeStore> locking_store;
  NodeStore* store = nullptr;
  std::unique_ptr<GRTree> tree;
  GrtScanState* active_scan = nullptr;
  // Set by every call that writes nodes; am_close writes back only then.
  bool wrote = false;
};

// Brackets one index mutation (which makes the statement a writer) in a
// WAL transaction when the index lives in an external file: the
// statement's node writes hit the log first, so a mid-statement crash can
// no longer tear the tree.
Status WithWalTxn(GrtTreeState* state, const std::function<Status()>& body) {
  state->wrote = true;
  WalNodeStore* wal = state->index->wal_store.get();
  if (wal == nullptr) return body();
  GRTDB_RETURN_IF_ERROR(wal->Begin());
  Status status = body();
  if (!status.ok()) {
    (void)wal->Rollback();
    return status;
  }
  return wal->Commit();
}

// ---------------------------------------------------- AM catalog records --
// The record grt_create() inserts "in the table associated with the
// grtree_am access method": which storage layout, the anchor node, and
// where the layout keeps the tree. Written once; the live store stack
// tracks the layout's growth from then on.

struct StorageRecord {
  GRTreeBladeOptions::Storage kind = GRTreeBladeOptions::Storage::kSingleLo;
  NodeId anchor = kInvalidNodeId;
  uint64_t lo = 0;                     // kSingleLo
  std::string path;                    // kExternalFile
};

std::vector<uint8_t> EncodeRecord(const StorageRecord& record) {
  std::vector<uint8_t> out(1 + 8 + 8 + 4 + record.path.size());
  uint8_t* p = out.data();
  *p++ = static_cast<uint8_t>(record.kind);
  StoreU64(p, record.anchor);
  p += 8;
  StoreU64(p, record.lo);
  p += 8;
  StoreU32(p, static_cast<uint32_t>(record.path.size()));
  p += 4;
  std::memcpy(p, record.path.data(), record.path.size());
  return out;
}

// ------------------------------------------------------------- utilities --

std::string ExternalPath(const GRTreeBladeOptions& options,
                         const IndexDef* index) {
  return options.external_dir + "/grtree_" + ToLower(index->name) + ".dat";
}

// Builds the store stack of a new index according to the blade's storage
// option (§5.3): fresh storage, the node cache above it and, for an OS
// file, the WAL over a new, empty log. Fills in `record`.
Status MakeStack(MiCallContext& ctx, GrtIndexState* state,
                 const IndexDef* index, StorageRecord* record) {
  const GRTreeBladeOptions& options = state->options;
  record->kind = options.storage;
  switch (options.storage) {
    case GRTreeBladeOptions::Storage::kExternalFile: {
      record->path = ExternalPath(options, index);
      std::remove(record->path.c_str());
      std::remove((record->path + ".wal").c_str());
      auto store_or = ExternalFileNodeStore::Open(record->path);
      if (!store_or.ok()) return store_or.status();
      state->base_store = std::move(store_or).value();
      break;
    }
    case GRTreeBladeOptions::Storage::kSingleLo:
    case GRTreeBladeOptions::Storage::kLoPerNode:
    case GRTreeBladeOptions::Storage::kLoPerSubtree: {
      Sbspace* sbspace = ctx.server->FindSbspace(index->space);
      if (sbspace == nullptr) {
        return Status::NotFound("sbspace '" + index->space + "'");
      }
      if (options.storage == GRTreeBladeOptions::Storage::kSingleLo) {
        auto store_or = SingleLoNodeStore::Open(sbspace, LoHandle{});
        if (!store_or.ok()) return store_or.status();
        record->lo = store_or.value()->handle().id;
        state->base_store = std::move(store_or).value();
      } else {
        state->base_store = std::make_unique<ClusteredLoNodeStore>(
            sbspace, options.storage == GRTreeBladeOptions::Storage::kLoPerNode
                         ? 1
                         : options.nodes_per_lo);
      }
      break;
    }
  }
  state->node_cache =
      MakeIndexCache(ctx.server, state->base_store.get(), index);
  if (options.storage != GRTreeBladeOptions::Storage::kExternalFile) {
    return Status::OK();
  }
  // §5.3: with an OS file the DataBlade must provide all recovery itself.
  auto wal_or = WalNodeStore::Open(state->node_cache.get(),
                                   record->path + ".wal");
  if (!wal_or.ok()) return wal_or.status();
  state->wal_store = std::move(wal_or).value();
  state->wal_store->set_trace(&ctx.server->trace());
  if (ctx.server->observability_enabled()) {
    state->wal_store->set_metrics(&ctx.server->metrics());
  }
  return Status::OK();
}

GrtIndexState* IndexStateOf(MiAmTableDesc* desc) {
  return static_cast<GrtIndexState*>(desc->am_state->get());
}

// The statement's view of the index's shared stack: the WAL or the cache,
// under this transaction's LO locks where the layout has LOs. No mutex and
// no I/O: the stack was built by grt_create.
std::unique_ptr<GrtTreeState> AttachStatement(MiCallContext& ctx,
                                              GrtIndexState* index) {
  auto state = std::make_unique<GrtTreeState>();
  state->index = index;
  if (index->wal_store != nullptr) {
    state->store = index->wal_store.get();
  } else if (index->options.lock_large_objects) {
    state->locking_store = std::make_unique<LockingNodeStore>(
        index->node_cache.get(), &ctx.server->lock_manager(), ctx.session);
    state->store = state->locking_store.get();
  } else {
    state->store = index->node_cache.get();
  }
  return state;
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

GrtTreeState* StateOf(MiAmTableDesc* desc) {
  return static_cast<GrtTreeState*>(desc->user_data);
}

int64_t ScanTime(MiCallContext& ctx) { return BladeCurrentTime(ctx); }

// -------------------------------------------------------- purpose bodies --
// Each purpose function is a closure over the blade options; the factory
// below exports them under the registration prefix.

struct BladeFns {
  AmSimpleFn create, drop, open, close, stats, check;
  AmScanFn beginscan, endscan, rescan;
  AmGetNextFn getnext;
  AmModifyFn insert, remove;
  AmUpdateFn update;
  AmScanCostFn scancost;
};

BladeFns MakeBladeFns(const GRTreeBladeOptions& options) {
  BladeFns fns;
  const std::string am_name = options.am_name;

  auto open_tree = [am_name](MiCallContext& ctx,
                             MiAmTableDesc* desc) -> Status {
    GrtIndexState* index = IndexStateOf(desc);
    if (index == nullptr) {
      return Status::Internal(am_name + " index '" + desc->index->name +
                              "' has no store stack");
    }
    std::unique_ptr<GrtTreeState> state = AttachStatement(ctx, index);
    auto tree_or = GRTree::Open(state->store, index->anchor,
                                index->options.tree);
    if (!tree_or.ok()) return tree_or.status();
    state->tree = std::move(tree_or).value();
    desc->user_data = state.release();
    return Status::OK();
  };

  fns.create = [options, am_name](MiCallContext& ctx,
                                  MiAmTableDesc* desc) -> Status {
    const IndexDef* index = desc->index;
    // Table 5, grt_create steps 2-4: column type, operator class, and
    // duplicate-index checks.
    if (desc->key_types.size() != 1 ||
        desc->key_types[0].base != TypeDesc::Base::kOpaque ||
        desc->key_types[0].opaque_id != TimeExtentTypeId(ctx.server)) {
      return Status::InvalidArgument(
          am_name + " indexes exactly one grt_timeextent column");
    }
    const OpClassDef* opclass =
        ctx.server->catalog().FindOpClass(index->opclasses[0]);
    if (opclass == nullptr ||
        !EqualsIgnoreCase(opclass->access_method, index->access_method)) {
      return Status::InvalidArgument("operator class '" +
                                     index->opclasses[0] +
                                     "' cannot be used with " + am_name);
    }
    for (IndexDef* other :
         ctx.server->catalog().IndexesOnTable(index->table)) {
      if (!EqualsIgnoreCase(other->name, index->name) &&
          EqualsIgnoreCase(other->access_method, index->access_method) &&
          other->key_columns == index->key_columns) {
        return Status::AlreadyExists(
            "an index using " + am_name +
            " already exists on the same column(s): " + other->name);
      }
    }
    // Steps 5-7: create the BLOB(s) and the store stack over them, record
    // them in the AM's table, open. The stack then lives in the server's
    // slot for the index until grt_drop.
    auto index_state = std::make_shared<GrtIndexState>();
    index_state->options = options;
    StorageRecord record;
    GRTDB_RETURN_IF_ERROR(MakeStack(ctx, index_state.get(), index, &record));
    std::unique_ptr<GrtTreeState> state =
        AttachStatement(ctx, index_state.get());
    state->wrote = true;
    auto tree_or =
        GRTree::Create(state->store, options.tree, &index_state->anchor);
    if (!tree_or.ok()) return tree_or.status();
    state->tree = std::move(tree_or).value();
    record.anchor = index_state->anchor;
    GRTDB_RETURN_IF_ERROR(
        ctx.server->AmCatalogPut(am_name, index->name, EncodeRecord(record)));
    *desc->am_state = std::move(index_state);
    desc->user_data = state.release();
    ctx.server->trace().Tprintf("grtree", 1, "created index %s",
                                index->name.c_str());
    return Status::OK();
  };

  fns.open = [open_tree](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    // Table 5, grt_open step 1: invoked right after grt_create -> exit
    // (the descriptor already carries the Tree object).
    if (desc->just_created) return Status::OK();
    if (desc->user_data != nullptr) return Status::OK();
    return open_tree(ctx, desc);
  };

  fns.close = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    GrtTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::OK();
    Status status = Status::OK();
    if (state->tree != nullptr && state->tree->has_pending_condense()) {
      state->wrote = true;
      status = state->tree->FlushPending(ScanTime(ctx));
    }
    if (state->wrote) {
      // Make the statement's writes durable in the base storage while its
      // exclusive LO locks are still held. A read-only statement leaves
      // the cache as it is: it has nothing to write back.
      Status flushed = state->index->node_cache->Flush();
      if (status.ok()) status = flushed;
    }
    if (state->locking_store != nullptr) {
      state->locking_store->ReleaseSharedOnClose();
    }
    delete state;
    desc->user_data = nullptr;
    return status;
  };

  fns.drop = [am_name, open_tree](MiCallContext& ctx,
                                  MiAmTableDesc* desc) -> Status {
    if (desc->user_data == nullptr) {
      GRTDB_RETURN_IF_ERROR(open_tree(ctx, desc));
    }
    GrtTreeState* state = StateOf(desc);
    Status status = state->tree->Drop();
    delete state;
    desc->user_data = nullptr;
    // Note where the index lives — the single LO, the cluster LOs, or the
    // file — and release the store stack before that storage goes.
    GrtIndexState* index = IndexStateOf(desc);
    std::vector<LoHandle> los;
    if (auto* single =
            dynamic_cast<SingleLoNodeStore*>(index->base_store.get())) {
      los.push_back(single->handle());
    } else if (auto* clustered = dynamic_cast<ClusteredLoNodeStore*>(
                   index->base_store.get())) {
      los = clustered->cluster_handles();
    }
    const std::string path =
        index->wal_store != nullptr ? ExternalPath(index->options, desc->index)
                                    : std::string();
    desc->am_state->reset();
    if (status.ok()) {
      Sbspace* sbspace = ctx.server->FindSbspace(desc->index->space);
      for (const LoHandle& handle : los) {
        if (sbspace != nullptr && handle.valid()) {
          Status drop = sbspace->DropLo(handle);
          if (status.ok()) status = drop;
        }
      }
      if (!path.empty()) {
        std::remove(path.c_str());
        std::remove((path + ".wal").c_str());
      }
    }
    Status forget = ctx.server->AmCatalogDelete(am_name, desc->index->name);
    if (status.ok()) status = forget;
    return status;
  };

  fns.beginscan = [](MiCallContext& ctx, MiAmScanDesc* sd) -> Status {
    GrtTreeState* state = StateOf(sd->table_desc);
    if (state == nullptr || state->tree == nullptr) {
      return Status::Internal("grt_beginscan on unopened index");
    }
    auto scan = std::make_unique<GrtScanState>();
    scan->ct = ScanTime(ctx);
    scan->qual = sd->qual;
    scan->dynamic = state->index->options.dynamic_dispatch;
    std::vector<std::pair<PredicateOp, TimeExtent>> terms;
    GRTDB_RETURN_IF_ERROR(TranslateQual(*sd->qual, &terms));
    if (terms.empty()) {
      return Status::InvalidArgument("empty qualification");
    }
    scan->first_op = terms[0].first;
    scan->first_query = terms[0].second;
    scan->residual.assign(terms.begin() + 1, terms.end());
    auto cursor_or =
        state->tree->Search(scan->first_op, scan->first_query, scan->ct);
    if (!cursor_or.ok()) return cursor_or.status();
    scan->cursor = std::move(cursor_or).value();
    state->active_scan = scan.get();
    sd->user_data = scan.release();
    return Status::OK();
  };

  fns.getnext = [](MiCallContext& ctx, MiAmScanDesc* sd, bool* has,
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
        const Region data = ResolveExtent(entry.extent, scan->ct);
        for (const auto& [op, query] : scan->residual) {
          if (!GRTree::LeafTest(op, data,
                                ResolveExtent(query, scan->ct))) {
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

  fns.rescan = [](MiCallContext& ctx, MiAmScanDesc* sd) -> Status {
    GrtTreeState* state = StateOf(sd->table_desc);
    auto* scan = static_cast<GrtScanState*>(sd->user_data);
    if (scan == nullptr || state == nullptr) {
      return Status::Internal("grt_rescan without grt_beginscan");
    }
    // A rescan restarts the scan from scratch (fresh cursor, fresh
    // duplicate filter).
    auto cursor_or =
        state->tree->Search(scan->first_op, scan->first_query, scan->ct);
    if (!cursor_or.ok()) return cursor_or.status();
    scan->cursor = std::move(cursor_or).value();
    (void)ctx;
    return Status::OK();
  };

  fns.endscan = [](MiCallContext& ctx, MiAmScanDesc* sd) -> Status {
    GrtTreeState* state = StateOf(sd->table_desc);
    auto* scan = static_cast<GrtScanState*>(sd->user_data);
    Status status = Status::OK();
    if (state != nullptr && state->tree != nullptr &&
        state->index->options.tree.deletion_policy ==
            DeletionPolicy::kPostponeReinsert &&
        state->tree->has_pending_condense()) {
      // Deferred re-insertions happen once the scan no longer needs a
      // stable tree (§5.5).
      state->wrote = true;
      status = state->tree->FlushPending(ScanTime(ctx));
    }
    if (state != nullptr) state->active_scan = nullptr;
    delete scan;
    sd->user_data = nullptr;
    return status;
  };

  fns.insert = [](MiCallContext& ctx, MiAmTableDesc* desc, const Row& keyrow,
                  uint64_t rowid) -> Status {
    GrtTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    TimeExtent extent;
    GRTDB_RETURN_IF_ERROR(ExtentFromValue(keyrow.at(0), &extent));
    return WithWalTxn(state, [&] {
      return state->tree->Insert(extent, rowid, BladeCurrentTime(ctx));
    });
  };

  fns.remove = [](MiCallContext& ctx, MiAmTableDesc* desc, const Row& keyrow,
                  uint64_t rowid) -> Status {
    GrtTreeState* state = StateOf(desc);
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
    if (state->active_scan != nullptr) {
      // §5.5 deletion policies: restart the open scan always, or only when
      // the tree actually condensed (the cursor detects epoch changes
      // itself, so only kRestartAlways needs a push here).
      if (state->index->options.tree.deletion_policy ==
              DeletionPolicy::kRestartAlways &&
          epoch_before == state->tree->condense_epoch()) {
        state->active_scan->cursor->Reset();
      }
    }
    return Status::OK();
  };

  fns.update = [fns](MiCallContext& ctx, MiAmTableDesc* desc,
                     const Row& oldrow, uint64_t oldrowid, const Row& newrow,
                     uint64_t newrowid) -> Status {
    // Table 5: grt_update = grt_delete + grt_insert.
    GRTDB_RETURN_IF_ERROR(fns.remove(ctx, desc, oldrow, oldrowid));
    return fns.insert(ctx, desc, newrow, newrowid);
  };

  fns.scancost = [](MiCallContext& ctx, MiAmTableDesc* desc,
                    const MiAmQualDesc* qual, double* cost) -> Status {
    GrtTreeState* state = StateOf(desc);
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
    // A scan never reads more nodes than the tree holds; the measured count
    // from the last UPDATE STATISTICS caps the estimate.
    IndexStatsReport measured;
    if (ctx.server->GetIndexStats(desc->index->name, &measured)) {
      *cost = std::min(*cost, static_cast<double>(measured.nodes));
    }
    return Status::OK();
  };

  fns.check = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    GrtTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    return state->tree->CheckConsistency(BladeCurrentTime(ctx));
  };

  fns.stats = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    GrtTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    const int64_t ct = BladeCurrentTime(ctx);
    GRTreeStats stats;
    GRTDB_RETURN_IF_ERROR(
        state->tree->ComputeStats(ct, /*dead_space_samples=*/0, &stats));
    IndexStatsReport report;
    report.index = desc->index->name;
    report.access_method = desc->index->access_method;
    report.size = stats.size;
    report.height = stats.height;
    report.nodes = stats.nodes;
    report.free_list = state->store->FreeListLength();
    report.computed_at = ct;
    const size_t max_entries = state->tree->max_entries();
    uint64_t total_entries = 0;
    for (const GRTreeLevelStats& level : stats.levels) {
      total_entries += level.entries;
      IndexLevelStats out;
      out.level = level.level;
      out.nodes = level.nodes;
      out.entries = level.entries;
      if (level.nodes > 0 && max_entries > 0) {
        out.occupancy = static_cast<double>(level.entries) /
                        static_cast<double>(level.nodes * max_entries);
      }
      out.total_area = level.total_area;
      out.overlap_area = level.overlap_area;
      report.levels.push_back(out);
      if (level.level == 0) {
        report.entries = level.entries;
        report.dead_entries = level.dead_entries;
        report.growing_regions = level.growing_entries;
        report.growing_area = level.growing_area;
      }
    }
    if (stats.nodes > 0 && max_entries > 0) {
      report.occupancy = static_cast<double>(total_entries) /
                         static_cast<double>(stats.nodes * max_entries);
    }
    ctx.server->ReportIndexStats(report);
    ctx.server->trace().Tprintf(
        "grtree", 1, "stats %s: size=%llu height=%u nodes=%llu growing=%llu",
        desc->index->name.c_str(),
        static_cast<unsigned long long>(stats.size), stats.height,
        static_cast<unsigned long long>(stats.nodes),
        static_cast<unsigned long long>(report.growing_regions));
    return Status::OK();
  };

  return fns;
}

}  // namespace

Status RegisterGRTreeBlade(Server* server,
                           const GRTreeBladeOptions& options) {
  GRTDB_RETURN_IF_ERROR(RegisterTimeExtentType(server));
  if (server->catalog().FindAccessMethod(options.am_name) != nullptr) {
    return Status::AlreadyExists("access method '" + options.am_name + "'");
  }

  BladeFns fns = MakeBladeFns(options);
  BladeLibrary* library = server->blade_libraries().Load(kGrtBladeLibrary);
  const std::string& p = options.prefix;
  library->Export(p + "_create", std::any(AmSimpleFn(fns.create)));
  library->Export(p + "_drop", std::any(AmSimpleFn(fns.drop)));
  library->Export(p + "_open", std::any(AmSimpleFn(fns.open)));
  library->Export(p + "_close", std::any(AmSimpleFn(fns.close)));
  library->Export(p + "_beginscan", std::any(AmScanFn(fns.beginscan)));
  library->Export(p + "_endscan", std::any(AmScanFn(fns.endscan)));
  library->Export(p + "_rescan", std::any(AmScanFn(fns.rescan)));
  library->Export(p + "_getnext", std::any(AmGetNextFn(fns.getnext)));
  library->Export(p + "_insert", std::any(AmModifyFn(fns.insert)));
  library->Export(p + "_delete", std::any(AmModifyFn(fns.remove)));
  library->Export(p + "_update", std::any(AmUpdateFn(fns.update)));
  library->Export(p + "_scancost", std::any(AmScanCostFn(fns.scancost)));
  library->Export(p + "_stats", std::any(AmSimpleFn(fns.stats)));
  library->Export(p + "_check", std::any(AmSimpleFn(fns.check)));

  // Registration SQL — the script BladeManager runs (paper §4 Steps 2-4).
  // The support functions grt_union/grt_size/grt_intersection are shared
  // routines registered with the opaque type: the tree hard-codes their
  // logic internally (§5.2 decision), but they are declared in the
  // operator class exactly as the paper's CREATE OPCLASS example shows.
  auto fn = [&](const std::string& name, const std::string& args,
                const std::string& ret, const std::string& symbol) {
    return "CREATE FUNCTION " + name + "(" + args + ") RETURNING " + ret +
           " EXTERNAL NAME '" + std::string(kGrtBladeLibrary) + "(" + symbol +
           ")' LANGUAGE c;\n";
  };
  std::string script;
  script += fn(p + "_create", "pointer", "int", p + "_create");
  script += fn(p + "_drop", "pointer", "int", p + "_drop");
  script += fn(p + "_open", "pointer", "int", p + "_open");
  script += fn(p + "_close", "pointer", "int", p + "_close");
  script += fn(p + "_beginscan", "pointer", "int", p + "_beginscan");
  script += fn(p + "_endscan", "pointer", "int", p + "_endscan");
  script += fn(p + "_rescan", "pointer", "int", p + "_rescan");
  script += fn(p + "_getnext", "pointer", "int", p + "_getnext");
  script += fn(p + "_insert", "pointer", "int", p + "_insert");
  script += fn(p + "_delete", "pointer", "int", p + "_delete");
  script += fn(p + "_update", "pointer", "int", p + "_update");
  script += fn(p + "_scancost", "pointer", "float", p + "_scancost");
  script += fn(p + "_stats", "pointer", "int", p + "_stats");
  script += fn(p + "_check", "pointer", "int", p + "_check");
  script += "CREATE SECONDARY ACCESS_METHOD " + options.am_name + " (\n";
  script += "  am_create = " + p + "_create,\n";
  script += "  am_drop = " + p + "_drop,\n";
  script += "  am_open = " + p + "_open,\n";
  script += "  am_close = " + p + "_close,\n";
  script += "  am_beginscan = " + p + "_beginscan,\n";
  script += "  am_endscan = " + p + "_endscan,\n";
  script += "  am_rescan = " + p + "_rescan,\n";
  script += "  am_getnext = " + p + "_getnext,\n";
  script += "  am_insert = " + p + "_insert,\n";
  script += "  am_delete = " + p + "_delete,\n";
  script += "  am_update = " + p + "_update,\n";
  script += "  am_scancost = " + p + "_scancost,\n";
  script += "  am_stats = " + p + "_stats,\n";
  script += "  am_check = " + p + "_check,\n";
  script += "  am_sptype = 'S'\n);\n";
  script += "CREATE DEFAULT OPCLASS " + p + "_opclass FOR " +
            options.am_name +
            " STRATEGIES(Overlaps, Contains, ContainedIn, Equal)"
            " SUPPORT(grt_union, grt_size, grt_intersection);\n";

  ServerSession* session = server->CreateSession();
  ResultSet result;
  Status status = server->ExecuteScript(session, script, &result);
  Status close = server->CloseSession(session);
  if (status.ok()) status = close;
  return status;
}

}  // namespace grtdb
