#include "blades/rstar_blade.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "blades/index_cache.h"
#include "blades/locking_store.h"
#include "blades/timeextent.h"
#include "storage/layout.h"
#include "temporal/predicates.h"

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

// The index's store stack, built once by rst_create and owned by the
// server (IndexDef::am_state) until rst_drop: the single-LO store and the
// node cache above it, which every statement's tree shares. Destroyed
// cache first, so its write-back lands in a live base store.
struct RstIndexState {
  std::unique_ptr<SingleLoNodeStore> base_store;
  std::unique_ptr<NodeCache> node_cache;
  NodeId anchor = kInvalidNodeId;
};

// One statement's open index: its LO locks above the shared cache, and
// the tree.
struct RstTreeState {
  RstIndexState* index = nullptr;
  std::unique_ptr<LockingNodeStore> locking_store;
  std::unique_ptr<RStarTree> tree;
  // Set by every call that writes nodes; am_close writes back only then.
  bool wrote = false;
};

RstTreeState* StateOf(MiAmTableDesc* desc) {
  return static_cast<RstTreeState*>(desc->user_data);
}

RstIndexState* IndexStateOf(MiAmTableDesc* desc) {
  return static_cast<RstIndexState*>(desc->am_state->get());
}

std::unique_ptr<RstTreeState> AttachStatement(MiCallContext& ctx,
                                              RstIndexState* index) {
  auto state = std::make_unique<RstTreeState>();
  state->index = index;
  state->locking_store = std::make_unique<LockingNodeStore>(
      index->node_cache.get(), &ctx.server->lock_manager(), ctx.session);
  return state;
}

std::vector<uint8_t> EncodeRecord(uint64_t lo, NodeId anchor) {
  std::vector<uint8_t> out(16);
  StoreU64(out.data(), lo);
  StoreU64(out.data() + 8, anchor);
  return out;
}

// Conservative index filter: both the data's and the query's transformed
// rectangles cover their true regions, so rectangle intersection is
// necessary for every predicate; the exact check runs on the base tuples.
Status QueryRectOf(const MiAmQualDesc& qual, int64_t max_timestamp,
                   Rect* out, std::vector<const QualTerm*>* terms) {
  switch (qual.op) {
    case MiAmQualDesc::Op::kTerm: {
      TimeExtent query;
      GRTDB_RETURN_IF_ERROR(ExtentFromValue(qual.term.constant, &query));
      const Rect rect = TransformExtent(query, max_timestamp);
      // For conjunctions the index filters with the *first* term's
      // rectangle only (intersecting the query rectangles would not be
      // conservative); getnext verifies the full qualification exactly.
      if (out->IsEmpty()) *out = rect;
      terms->push_back(&qual.term);
      return Status::OK();
    }
    case MiAmQualDesc::Op::kAnd:
      for (const MiAmQualDesc& child : qual.children) {
        GRTDB_RETURN_IF_ERROR(
            QueryRectOf(child, max_timestamp, out, terms));
      }
      return Status::OK();
    case MiAmQualDesc::Op::kOr:
      return Status::NotSupported(
          "rstar_am scans do not accept disjunctive qualifications");
  }
  return Status::Internal("bad qualification");
}

struct BladeFns {
  AmSimpleFn create, drop, open, close, check, stats;
  AmScanFn beginscan, endscan, rescan;
  AmGetNextFn getnext;
  AmModifyFn insert, remove;
  AmUpdateFn update;
  AmScanCostFn scancost;
};

BladeFns MakeBladeFns(const RStarBladeOptions& options) {
  BladeFns fns;
  const std::string am_name = options.am_name;

  auto open_tree = [options, am_name](MiCallContext& ctx,
                                      MiAmTableDesc* desc) -> Status {
    RstIndexState* index = IndexStateOf(desc);
    if (index == nullptr) {
      return Status::Internal(am_name + " index '" + desc->index->name +
                              "' has no store stack");
    }
    std::unique_ptr<RstTreeState> state = AttachStatement(ctx, index);
    auto tree_or = RStarTree::Open(state->locking_store.get(), index->anchor,
                                   options.tree);
    if (!tree_or.ok()) return tree_or.status();
    state->tree = std::move(tree_or).value();
    desc->user_data = state.release();
    return Status::OK();
  };

  fns.create = [options, am_name](MiCallContext& ctx,
                                  MiAmTableDesc* desc) -> Status {
    if (desc->key_types.size() != 1 ||
        desc->key_types[0].base != TypeDesc::Base::kOpaque ||
        desc->key_types[0].opaque_id != TimeExtentTypeId(ctx.server)) {
      return Status::InvalidArgument(
          am_name + " indexes exactly one grt_timeextent column");
    }
    Sbspace* sbspace = ctx.server->FindSbspace(desc->index->space);
    if (sbspace == nullptr) {
      return Status::NotFound("sbspace '" + desc->index->space + "'");
    }
    auto index_state = std::make_shared<RstIndexState>();
    auto store_or = SingleLoNodeStore::Open(sbspace, LoHandle{});
    if (!store_or.ok()) return store_or.status();
    index_state->base_store = std::move(store_or).value();
    index_state->node_cache = MakeIndexCache(
        ctx.server, index_state->base_store.get(), desc->index);
    std::unique_ptr<RstTreeState> state =
        AttachStatement(ctx, index_state.get());
    state->wrote = true;
    auto tree_or = RStarTree::Create(state->locking_store.get(), options.tree,
                                     &index_state->anchor);
    if (!tree_or.ok()) return tree_or.status();
    state->tree = std::move(tree_or).value();
    GRTDB_RETURN_IF_ERROR(ctx.server->AmCatalogPut(
        am_name, desc->index->name,
        EncodeRecord(index_state->base_store->handle().id,
                     index_state->anchor)));
    *desc->am_state = std::move(index_state);
    desc->user_data = state.release();
    return Status::OK();
  };

  fns.open = [open_tree](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    if (desc->just_created || desc->user_data != nullptr) return Status::OK();
    return open_tree(ctx, desc);
  };

  fns.close = [](MiCallContext&, MiAmTableDesc* desc) -> Status {
    RstTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::OK();
    Status status = Status::OK();
    // Write the statement's dirty nodes back while its exclusive LO locks
    // are still held; a read-only statement has nothing to write back.
    if (state->wrote) status = state->index->node_cache->Flush();
    state->locking_store->ReleaseSharedOnClose();
    delete state;
    desc->user_data = nullptr;
    return status;
  };

  fns.drop = [am_name, open_tree](MiCallContext& ctx,
                                  MiAmTableDesc* desc) -> Status {
    if (desc->user_data == nullptr) {
      GRTDB_RETURN_IF_ERROR(open_tree(ctx, desc));
    }
    RstTreeState* state = StateOf(desc);
    Status status = state->tree->Drop();
    delete state;
    desc->user_data = nullptr;
    // Release the store stack before its large object goes.
    const LoHandle lo = IndexStateOf(desc)->base_store->handle();
    desc->am_state->reset();
    Sbspace* sbspace = ctx.server->FindSbspace(desc->index->space);
    if (status.ok() && sbspace != nullptr) status = sbspace->DropLo(lo);
    Status forget = ctx.server->AmCatalogDelete(am_name, desc->index->name);
    if (status.ok()) status = forget;
    return status;
  };

  fns.beginscan = [options](MiCallContext& ctx, MiAmScanDesc* sd) -> Status {
    RstTreeState* state = StateOf(sd->table_desc);
    if (state == nullptr || state->tree == nullptr) {
      return Status::Internal("rst_beginscan on unopened index");
    }
    auto scan = std::make_unique<RstScanState>();
    scan->ct = BladeCurrentTime(ctx);
    scan->qual = sd->qual;
    Rect query;
    std::vector<const QualTerm*> terms;
    GRTDB_RETURN_IF_ERROR(
        QueryRectOf(*sd->qual, options.max_timestamp, &query, &terms));
    GRTDB_RETURN_IF_ERROR(state->tree->Search(
        query, [&scan](const RStarTree::Entry& entry) {
          scan->candidates.emplace_back(entry.rect, entry.payload);
          return true;
        }));
    sd->user_data = scan.release();
    return Status::OK();
  };

  fns.getnext = [](MiCallContext& ctx, MiAmScanDesc* sd, bool* has,
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

  fns.rescan = [](MiCallContext&, MiAmScanDesc* sd) -> Status {
    auto* scan = static_cast<RstScanState*>(sd->user_data);
    if (scan == nullptr) return Status::Internal("rescan without beginscan");
    scan->next = 0;
    return Status::OK();
  };

  fns.endscan = [](MiCallContext&, MiAmScanDesc* sd) -> Status {
    delete static_cast<RstScanState*>(sd->user_data);
    sd->user_data = nullptr;
    return Status::OK();
  };

  fns.insert = [options](MiCallContext&, MiAmTableDesc* desc,
                         const Row& keyrow, uint64_t rowid) -> Status {
    RstTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    state->wrote = true;
    TimeExtent extent;
    GRTDB_RETURN_IF_ERROR(ExtentFromValue(keyrow.at(0), &extent));
    return state->tree->Insert(
        TransformExtent(extent, options.max_timestamp), rowid);
  };

  fns.remove = [options](MiCallContext&, MiAmTableDesc* desc,
                         const Row& keyrow, uint64_t rowid) -> Status {
    RstTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    state->wrote = true;
    TimeExtent extent;
    GRTDB_RETURN_IF_ERROR(ExtentFromValue(keyrow.at(0), &extent));
    bool found = false;
    GRTDB_RETURN_IF_ERROR(state->tree->Delete(
        TransformExtent(extent, options.max_timestamp), rowid, &found));
    if (!found) {
      return Status::NotFound("index entry to delete was not found");
    }
    return Status::OK();
  };

  fns.update = [fns](MiCallContext& ctx, MiAmTableDesc* desc,
                     const Row& oldrow, uint64_t oldrowid, const Row& newrow,
                     uint64_t newrowid) -> Status {
    GRTDB_RETURN_IF_ERROR(fns.remove(ctx, desc, oldrow, oldrowid));
    return fns.insert(ctx, desc, newrow, newrowid);
  };

  fns.scancost = [options](MiCallContext& ctx, MiAmTableDesc* desc,
                           const MiAmQualDesc* qual, double* cost) -> Status {
    RstTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    Rect query;
    std::vector<const QualTerm*> terms;
    GRTDB_RETURN_IF_ERROR(
        QueryRectOf(*qual, options.max_timestamp, &query, &terms));
    auto cost_or = state->tree->EstimateScanCost(query);
    if (!cost_or.ok()) return cost_or.status();
    *cost = cost_or.value();
    // Cap the estimate at the node count measured by UPDATE STATISTICS.
    IndexStatsReport measured;
    if (ctx.server->GetIndexStats(desc->index->name, &measured)) {
      *cost = std::min(*cost, static_cast<double>(measured.nodes));
    }
    return Status::OK();
  };

  fns.check = [](MiCallContext&, MiAmTableDesc* desc) -> Status {
    RstTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    return state->tree->CheckConsistency();
  };

  fns.stats = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    RstTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    std::vector<RStarLevelStats> levels;
    GRTDB_RETURN_IF_ERROR(state->tree->LevelStats(&levels));
    IndexStatsReport report;
    report.index = desc->index->name;
    report.access_method = desc->index->access_method;
    report.size = state->tree->size();
    report.height = state->tree->height();
    report.free_list = state->locking_store->FreeListLength();
    report.computed_at = BladeCurrentTime(ctx);
    const size_t max_entries = state->tree->max_entries();
    uint64_t total_entries = 0;
    for (const RStarLevelStats& level : levels) {
      report.nodes += level.nodes;
      total_entries += level.entries;
      if (level.level == 0) report.entries = level.entries;
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
    }
    if (report.nodes > 0 && max_entries > 0) {
      report.occupancy = static_cast<double>(total_entries) /
                         static_cast<double>(report.nodes * max_entries);
    }
    ctx.server->ReportIndexStats(report);
    return Status::OK();
  };

  return fns;
}

}  // namespace

Status RegisterRStarBlade(Server* server, const RStarBladeOptions& options) {
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

  auto fn = [&](const std::string& name, const std::string& symbol) {
    return "CREATE FUNCTION " + name +
           "(pointer) RETURNING int EXTERNAL NAME '" +
           std::string(kGrtBladeLibrary) + "(" + symbol +
           ")' LANGUAGE c;\n";
  };
  std::string script;
  for (const char* suffix :
       {"_create", "_drop", "_open", "_close", "_beginscan", "_endscan",
        "_rescan", "_getnext", "_insert", "_delete", "_update", "_scancost",
        "_stats", "_check"}) {
    script += fn(p + suffix, p + suffix);
  }
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
            " STRATEGIES(Overlaps, Contains, ContainedIn, Equal) SUPPORT(" +
            "grt_union, grt_size, grt_intersection);\n";

  ServerSession* session = server->CreateSession();
  ResultSet result;
  Status status = server->ExecuteScript(session, script, &result);
  Status close = server->CloseSession(session);
  if (status.ok()) status = close;
  return status;
}

}  // namespace grtdb
