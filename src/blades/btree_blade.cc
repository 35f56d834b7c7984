#include "blades/btree_blade.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <vector>

#include "blades/locking_store.h"
#include "common/strings.h"
#include "storage/layout.h"

namespace grtdb {

namespace {

// B-tree strategy slots (Informix numbering; position in the opclass's
// STRATEGIES list is what matters, not the function name).
enum class Slot {
  kLessThan = 1,
  kLessThanOrEqual = 2,
  kEqual = 3,
  kGreaterThanOrEqual = 4,
  kGreaterThan = 5,
};

struct BtScanState {
  BtreeIndex::Range range;
  std::vector<BtreeIndex::Entry> results;
  size_t next = 0;
};

struct BtTreeState {
  std::unique_ptr<NodeStore> base_store;
  std::unique_ptr<LockingNodeStore> locking_store;
  NodeStore* store = nullptr;
  std::unique_ptr<BtreeIndex> tree;
  // The dynamically resolved compare() of the index's operator class.
  BtreeCompare cmp;
  TypeDesc key_type;
};

BtTreeState* StateOf(MiAmTableDesc* desc) {
  return static_cast<BtTreeState*>(desc->user_data);
}

Status KeyFromValue(const Value& value, int64_t* out) {
  if (value.is_null()) {
    return Status::InvalidArgument("NULL keys are not indexable");
  }
  switch (value.base()) {
    case TypeDesc::Base::kInteger:
      *out = value.integer();
      return Status::OK();
    case TypeDesc::Base::kDate:
      *out = value.date();
      return Status::OK();
    default:
      return Status::InvalidArgument(
          "btree_am indexes integer or date columns");
  }
}

Value ValueFromKey(const TypeDesc& type, int64_t key) {
  return type.base == TypeDesc::Base::kDate ? Value::Date(key)
                                            : Value::Integer(key);
}

// Resolves the operator class's compare() support function and wraps it
// as a BtreeCompare. Every key comparison goes through the registered UDR
// — the dynamic resolution the paper describes for Informix's B-tree.
Status ResolveCompare(MiCallContext& ctx, const IndexDef* index,
                      const TypeDesc& key_type, BtreeCompare* out) {
  const OpClassDef* opclass =
      ctx.server->catalog().FindOpClass(index->opclasses[0]);
  if (opclass == nullptr || opclass->supports.empty()) {
    return Status::InvalidArgument(
        "btree_am requires an operator class with a compare() support "
        "function");
  }
  const TypeDesc arg_types[2] = {key_type, key_type};
  const UdrDef* compare =
      ctx.server->udrs().Find(opclass->supports[0], arg_types);
  if (compare == nullptr || !compare->fn) {
    return Status::NotFound("support function '" + opclass->supports[0] +
                            "(" + ctx.server->types().NameOf(key_type) +
                            ", ...)' is not registered");
  }
  Server* server = ctx.server;
  ServerSession* session = ctx.session;
  const int64_t statement_time = ctx.statement_time;
  UdrFunction fn = compare->fn;
  *out = [server, session, statement_time, fn,
          key_type](int64_t a, int64_t b) -> int {
    MiCallContext call_ctx{server, session, statement_time};
    const Value args[2] = {ValueFromKey(key_type, a),
                           ValueFromKey(key_type, b)};
    StatusOr<Value> result = fn(call_ctx, args);
    if (!result.ok() || result.value().is_null()) {
      // compare() must be total; treat failures as equality so scans
      // degrade to over-delivery rather than corruption.
      return 0;
    }
    return static_cast<int>(result.value().integer());
  };
  return Status::OK();
}

// Translates a qualification into a key range using the strategy's
// *position* in the index's operator class.
Status TranslateQual(MiCallContext& ctx, const IndexDef* index,
                     const MiAmQualDesc& qual, const BtreeCompare& cmp,
                     BtreeIndex::Range* range) {
  switch (qual.op) {
    case MiAmQualDesc::Op::kTerm: {
      const OpClassDef* opclass =
          ctx.server->catalog().FindOpClass(index->opclasses[0]);
      if (opclass == nullptr) {
        return Status::Internal("index lost its operator class");
      }
      int position = 0;
      for (size_t i = 0; i < opclass->strategies.size(); ++i) {
        if (EqualsIgnoreCase(opclass->strategies[i],
                             qual.term.func->name)) {
          position = static_cast<int>(i) + 1;
          break;
        }
      }
      if (position < 1 || position > 5) {
        return Status::NotSupported("strategy function '" +
                                    qual.term.func->name +
                                    "' has no B-tree slot");
      }
      Slot slot = static_cast<Slot>(position);
      if (!qual.term.column_first) {
        // f(const, column) mirrors the comparison.
        switch (slot) {
          case Slot::kLessThan:
            slot = Slot::kGreaterThan;
            break;
          case Slot::kLessThanOrEqual:
            slot = Slot::kGreaterThanOrEqual;
            break;
          case Slot::kGreaterThanOrEqual:
            slot = Slot::kLessThanOrEqual;
            break;
          case Slot::kGreaterThan:
            slot = Slot::kLessThan;
            break;
          case Slot::kEqual:
            break;
        }
      }
      int64_t key = 0;
      GRTDB_RETURN_IF_ERROR(KeyFromValue(qual.term.constant, &key));
      auto tighten_lo = [&](int64_t value, bool strict) {
        if (!range->lo.has_value() || cmp(value, *range->lo) > 0 ||
            (cmp(value, *range->lo) == 0 && strict)) {
          range->lo = value;
          range->lo_strict = strict;
        }
      };
      auto tighten_hi = [&](int64_t value, bool strict) {
        if (!range->hi.has_value() || cmp(value, *range->hi) < 0 ||
            (cmp(value, *range->hi) == 0 && strict)) {
          range->hi = value;
          range->hi_strict = strict;
        }
      };
      switch (slot) {
        case Slot::kLessThan:
          tighten_hi(key, true);
          break;
        case Slot::kLessThanOrEqual:
          tighten_hi(key, false);
          break;
        case Slot::kEqual:
          tighten_lo(key, false);
          tighten_hi(key, false);
          break;
        case Slot::kGreaterThanOrEqual:
          tighten_lo(key, false);
          break;
        case Slot::kGreaterThan:
          tighten_lo(key, true);
          break;
      }
      return Status::OK();
    }
    case MiAmQualDesc::Op::kAnd:
      for (const MiAmQualDesc& child : qual.children) {
        GRTDB_RETURN_IF_ERROR(TranslateQual(ctx, index, child, cmp, range));
      }
      return Status::OK();
    case MiAmQualDesc::Op::kOr:
      return Status::NotSupported(
          "btree_am scans do not accept disjunctive qualifications");
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

BladeFns MakeBladeFns(const BtreeBladeOptions& options) {
  BladeFns fns;
  const std::string am_name = options.am_name;

  auto make_state = [options, am_name](MiCallContext& ctx,
                                       MiAmTableDesc* desc, bool creating,
                                       LoHandle handle,
                                       NodeId anchor) -> Status {
    auto state = std::make_unique<BtTreeState>();
    state->key_type = desc->key_types.at(0);
    GRTDB_RETURN_IF_ERROR(
        ResolveCompare(ctx, desc->index, state->key_type, &state->cmp));
    Sbspace* sbspace = ctx.server->FindSbspace(desc->index->space);
    if (sbspace == nullptr) {
      return Status::NotFound("sbspace '" + desc->index->space + "'");
    }
    auto store_or = SingleLoNodeStore::Open(sbspace, handle);
    if (!store_or.ok()) return store_or.status();
    const LoHandle opened = store_or.value()->handle();
    state->base_store = std::move(store_or).value();
    state->locking_store = std::make_unique<LockingNodeStore>(
        state->base_store.get(), &ctx.server->lock_manager(), ctx.session);
    state->store = state->locking_store.get();
    if (creating) {
      NodeId new_anchor;
      auto tree_or =
          BtreeIndex::Create(state->store, options.tree, &new_anchor);
      if (!tree_or.ok()) return tree_or.status();
      state->tree = std::move(tree_or).value();
      std::vector<uint8_t> record(16);
      StoreU64(record.data(), opened.id);
      StoreU64(record.data() + 8, new_anchor);
      GRTDB_RETURN_IF_ERROR(
          ctx.server->AmCatalogPut(am_name, desc->index->name, record));
    } else {
      auto tree_or = BtreeIndex::Open(state->store, anchor, options.tree);
      if (!tree_or.ok()) return tree_or.status();
      state->tree = std::move(tree_or).value();
    }
    desc->user_data = state.release();
    return Status::OK();
  };

  fns.create = [make_state, am_name](MiCallContext& ctx,
                                     MiAmTableDesc* desc) -> Status {
    if (desc->key_types.size() != 1 ||
        (desc->key_types[0].base != TypeDesc::Base::kInteger &&
         desc->key_types[0].base != TypeDesc::Base::kDate)) {
      return Status::InvalidArgument(
          am_name + " indexes exactly one integer or date column");
    }
    return make_state(ctx, desc, /*creating=*/true, LoHandle{},
                      kInvalidNodeId);
  };

  auto open_existing = [make_state, am_name](MiCallContext& ctx,
                                             MiAmTableDesc* desc) -> Status {
    std::vector<uint8_t> record;
    GRTDB_RETURN_IF_ERROR(
        ctx.server->AmCatalogGet(am_name, desc->index->name, &record));
    if (record.size() != 16) {
      return Status::Corruption("bad btree_am catalog record");
    }
    return make_state(ctx, desc, /*creating=*/false,
                      LoHandle{LoadU64(record.data())},
                      LoadU64(record.data() + 8));
  };

  fns.open = [open_existing](MiCallContext& ctx,
                             MiAmTableDesc* desc) -> Status {
    if (desc->just_created || desc->user_data != nullptr) return Status::OK();
    return open_existing(ctx, desc);
  };

  fns.close = [](MiCallContext&, MiAmTableDesc* desc) -> Status {
    BtTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::OK();
    if (state->locking_store != nullptr) {
      state->locking_store->ReleaseSharedOnClose();
    }
    delete state;
    desc->user_data = nullptr;
    return Status::OK();
  };

  fns.drop = [open_existing, am_name](MiCallContext& ctx,
                                      MiAmTableDesc* desc) -> Status {
    if (desc->user_data == nullptr) {
      GRTDB_RETURN_IF_ERROR(open_existing(ctx, desc));
    }
    BtTreeState* state = StateOf(desc);
    Status status = state->tree->Drop();
    std::vector<uint8_t> record;
    if (status.ok() &&
        ctx.server->AmCatalogGet(am_name, desc->index->name, &record).ok() &&
        record.size() == 16) {
      Sbspace* sbspace = ctx.server->FindSbspace(desc->index->space);
      if (sbspace != nullptr) {
        status = sbspace->DropLo(LoHandle{LoadU64(record.data())});
      }
    }
    Status forget = ctx.server->AmCatalogDelete(am_name, desc->index->name);
    if (status.ok()) status = forget;
    delete state;
    desc->user_data = nullptr;
    return status;
  };

  fns.beginscan = [](MiCallContext& ctx, MiAmScanDesc* sd) -> Status {
    BtTreeState* state = StateOf(sd->table_desc);
    if (state == nullptr) return Status::Internal("index not open");
    auto scan = std::make_unique<BtScanState>();
    GRTDB_RETURN_IF_ERROR(TranslateQual(ctx, sd->table_desc->index,
                                        *sd->qual, state->cmp,
                                        &scan->range));
    GRTDB_RETURN_IF_ERROR(
        state->tree->ScanAll(scan->range, state->cmp, &scan->results));
    sd->user_data = scan.release();
    return Status::OK();
  };

  fns.getnext = [](MiCallContext&, MiAmScanDesc* sd, bool* has,
                   uint64_t* retrowid) -> Status {
    auto* scan = static_cast<BtScanState*>(sd->user_data);
    if (scan == nullptr) {
      return Status::Internal("bt_getnext without bt_beginscan");
    }
    *has = false;
    if (scan->next >= scan->results.size()) return Status::OK();
    const BtreeIndex::Entry& entry = scan->results[scan->next++];
    *retrowid = entry.payload;
    *has = true;
    return Status::OK();
  };

  fns.rescan = [](MiCallContext&, MiAmScanDesc* sd) -> Status {
    auto* scan = static_cast<BtScanState*>(sd->user_data);
    if (scan == nullptr) return Status::Internal("rescan without beginscan");
    scan->next = 0;
    return Status::OK();
  };

  fns.endscan = [](MiCallContext&, MiAmScanDesc* sd) -> Status {
    delete static_cast<BtScanState*>(sd->user_data);
    sd->user_data = nullptr;
    return Status::OK();
  };

  fns.insert = [](MiCallContext&, MiAmTableDesc* desc, const Row& keyrow,
                  uint64_t rowid) -> Status {
    BtTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    int64_t key = 0;
    GRTDB_RETURN_IF_ERROR(KeyFromValue(keyrow.at(0), &key));
    return state->tree->Insert(key, rowid, state->cmp);
  };

  fns.remove = [](MiCallContext&, MiAmTableDesc* desc, const Row& keyrow,
                  uint64_t rowid) -> Status {
    BtTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    int64_t key = 0;
    GRTDB_RETURN_IF_ERROR(KeyFromValue(keyrow.at(0), &key));
    bool found = false;
    GRTDB_RETURN_IF_ERROR(state->tree->Delete(key, rowid, state->cmp,
                                              &found));
    if (!found) return Status::NotFound("B+-tree entry to delete not found");
    return Status::OK();
  };

  fns.update = [fns](MiCallContext& ctx, MiAmTableDesc* desc,
                     const Row& oldrow, uint64_t oldrowid, const Row& newrow,
                     uint64_t newrowid) -> Status {
    GRTDB_RETURN_IF_ERROR(fns.remove(ctx, desc, oldrow, oldrowid));
    return fns.insert(ctx, desc, newrow, newrowid);
  };

  fns.scancost = [](MiCallContext& ctx, MiAmTableDesc* desc,
                    const MiAmQualDesc* qual, double* cost) -> Status {
    BtTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    BtreeIndex::Range range;
    GRTDB_RETURN_IF_ERROR(
        TranslateQual(ctx, desc->index, *qual, state->cmp, &range));
    auto cost_or = state->tree->EstimateScanCost(range, state->cmp);
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
    BtTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    return state->tree->CheckConsistency(state->cmp);
  };

  fns.stats = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    BtTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    std::vector<BtreeLevelStats> levels;
    GRTDB_RETURN_IF_ERROR(state->tree->LevelStats(&levels));
    IndexStatsReport report;
    report.index = desc->index->name;
    report.access_method = desc->index->access_method;
    report.size = state->tree->size();
    report.height = state->tree->height();
    report.free_list = state->store->FreeListLength();
    report.computed_at = ctx.statement_time;
    const size_t max_entries = state->tree->max_entries();
    uint64_t total_entries = 0;
    for (const BtreeLevelStats& level : levels) {
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

// A comparison UDR over two same-typed arguments (integer or date).
UdrFunction MakeComparisonUdr(int want_sign, bool or_equal,
                              int (*order)(int64_t, int64_t)) {
  return [want_sign, or_equal, order](
             MiCallContext&, std::span<const Value> args) -> StatusOr<Value> {
    if (args.size() != 2 || args[0].is_null() || args[1].is_null()) {
      return Status::InvalidArgument("comparison takes two non-null keys");
    }
    const int64_t a = args[0].base() == TypeDesc::Base::kDate
                          ? args[0].date()
                          : args[0].integer();
    const int64_t b = args[1].base() == TypeDesc::Base::kDate
                          ? args[1].date()
                          : args[1].integer();
    const int sign = order(a, b);
    return Value::Boolean(sign == want_sign || (or_equal && sign == 0));
  };
}

UdrFunction MakeCompareUdr(int (*order)(int64_t, int64_t)) {
  return [order](MiCallContext&,
                 std::span<const Value> args) -> StatusOr<Value> {
    if (args.size() != 2 || args[0].is_null() || args[1].is_null()) {
      return Status::InvalidArgument("compare takes two non-null keys");
    }
    const int64_t a = args[0].base() == TypeDesc::Base::kDate
                          ? args[0].date()
                          : args[0].integer();
    const int64_t b = args[1].base() == TypeDesc::Base::kDate
                          ? args[1].date()
                          : args[1].integer();
    return Value::Integer(order(a, b));
  };
}

// The paper's alternative ordering "0, -1, 1, -2, 2": by absolute value,
// negatives before positives on ties.
int AbsOrder(int64_t a, int64_t b) {
  const int64_t abs_a = a < 0 ? -a : a;
  const int64_t abs_b = b < 0 ? -b : b;
  if (abs_a != abs_b) return abs_a < abs_b ? -1 : 1;
  return NaturalCompare(a, b);
}

Status RegisterComparisonFamily(Server* server, const std::string& library,
                                const std::string& symbol_prefix,
                                const std::string& sql_prefix,
                                int (*order)(int64_t, int64_t),
                                std::string* script) {
  BladeLibrary* blade_library = server->blade_libraries().Load(library);
  struct Spec {
    const char* name;
    int sign;
    bool or_equal;
  };
  const Spec specs[] = {
      {"LessThan", -1, false},          {"LessThanOrEqual", -1, true},
      {"Equal", 0, true},               {"GreaterThanOrEqual", 1, true},
      {"GreaterThan", 1, false},
  };
  for (const Spec& spec : specs) {
    blade_library->Export(symbol_prefix + "_" + ToLower(spec.name),
                          std::any(MakeComparisonUdr(spec.sign, spec.or_equal,
                                                     order)));
    for (const char* type : {"integer", "date"}) {
      *script += "CREATE FUNCTION " + sql_prefix + spec.name + "(" + type +
                 ", " + type + ") RETURNING boolean EXTERNAL NAME '" +
                 library + "(" + symbol_prefix + "_" + ToLower(spec.name) +
                 ")' LANGUAGE c;\n";
    }
  }
  blade_library->Export(symbol_prefix + "_compare",
                        std::any(MakeCompareUdr(order)));
  for (const char* type : {"integer", "date"}) {
    *script += "CREATE FUNCTION " + sql_prefix + "compare(" +
               std::string(type) + ", " + type +
               ") RETURNING int EXTERNAL NAME '" + library + "(" +
               symbol_prefix + "_compare)' LANGUAGE c;\n";
  }
  return Status::OK();
}

constexpr char kBtreeLibrary[] = "usr/functions/btree.bld";

}  // namespace

Status RegisterBtreeBlade(Server* server, const BtreeBladeOptions& options) {
  if (server->catalog().FindAccessMethod(options.am_name) != nullptr) {
    return Status::AlreadyExists("access method '" + options.am_name + "'");
  }
  BladeFns fns = MakeBladeFns(options);
  BladeLibrary* library = server->blade_libraries().Load(kBtreeLibrary);
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

  std::string script;
  GRTDB_RETURN_IF_ERROR(RegisterComparisonFamily(
      server, kBtreeLibrary, "bt_natural", "", NaturalCompare, &script));
  auto fn = [&](const std::string& name, const std::string& symbol,
                const std::string& ret) {
    return "CREATE FUNCTION " + name + "(pointer) RETURNING " + ret +
           " EXTERNAL NAME '" + std::string(kBtreeLibrary) + "(" + symbol +
           ")' LANGUAGE c;\n";
  };
  for (const char* suffix :
       {"_create", "_drop", "_open", "_close", "_beginscan", "_endscan",
        "_rescan", "_getnext", "_insert", "_delete", "_update", "_stats",
        "_check"}) {
    script += fn(p + suffix, p + suffix, "int");
  }
  script += fn(p + "_scancost", p + "_scancost", "float");
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
  // Strategy positions 1..5 carry the slot semantics; compare is the
  // first (and only) support function.
  script += "CREATE DEFAULT OPCLASS " + p + "_opclass FOR " +
            options.am_name +
            " STRATEGIES(LessThan, LessThanOrEqual, Equal, "
            "GreaterThanOrEqual, GreaterThan) SUPPORT(compare);\n";

  ServerSession* session = server->CreateSession();
  ResultSet result;
  Status status = server->ExecuteScript(session, script, &result);
  Status close = server->CloseSession(session);
  if (status.ok()) status = close;
  return status;
}

Status RegisterAbsOpclass(Server* server, const std::string& am_name) {
  if (server->catalog().FindAccessMethod(am_name) == nullptr) {
    return Status::NotFound("access method '" + am_name + "'");
  }
  std::string script;
  GRTDB_RETURN_IF_ERROR(RegisterComparisonFamily(
      server, kBtreeLibrary, "bt_abs", "Abs", AbsOrder, &script));
  script += "CREATE OPCLASS bt_abs_opclass FOR " + am_name +
            " STRATEGIES(AbsLessThan, AbsLessThanOrEqual, AbsEqual, "
            "AbsGreaterThanOrEqual, AbsGreaterThan) SUPPORT(Abscompare);\n";
  ServerSession* session = server->CreateSession();
  ResultSet result;
  Status status = server->ExecuteScript(session, script, &result);
  Status close = server->CloseSession(session);
  if (status.ok()) status = close;
  return status;
}

}  // namespace grtdb
