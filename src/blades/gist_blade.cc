#include "blades/gist_blade.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "blades/locking_store.h"
#include "common/strings.h"
#include "storage/layout.h"

namespace grtdb {

namespace {

constexpr char kGistLibrary[] = "usr/functions/gist.bld";

struct GsScanState {
  GistKey query;
  int strategy = 0;
  std::vector<GistTree::Entry> results;
  size_t next = 0;
};

struct GsTreeState {
  std::unique_ptr<NodeStore> base_store;
  std::unique_ptr<LockingNodeStore> locking_store;
  NodeStore* store = nullptr;
  std::unique_ptr<GistTree> tree;
  GistExtension ext;
  GistCompressFn compress;
  const OpClassDef* opclass = nullptr;
};

GsTreeState* StateOf(MiAmTableDesc* desc) {
  return static_cast<GsTreeState*>(desc->user_data);
}

// Resolves the five extension primitives from the operator class's SUPPORT
// list — the dynamic dispatch §7 envisions ("specially designed operator
// classes").
Status ResolveExtension(MiCallContext& ctx, const IndexDef* index,
                        GsTreeState* state) {
  const OpClassDef* opclass =
      ctx.server->catalog().FindOpClass(index->opclasses[0]);
  if (opclass == nullptr || opclass->supports.size() < 5) {
    return Status::InvalidArgument(
        "gist_am operator classes declare five support functions: "
        "consistent, union, penalty, picksplit, compress");
  }
  state->opclass = opclass;
  auto symbol_of = [&](size_t position) -> const std::any* {
    const UdrDef* udr = ctx.server->udrs().FindAny(opclass->supports[position]);
    return udr == nullptr ? nullptr : &udr->symbol;
  };
  const std::any* consistent = symbol_of(0);
  const std::any* unite = symbol_of(1);
  const std::any* penalty = symbol_of(2);
  const std::any* pick_split = symbol_of(3);
  const std::any* compress = symbol_of(4);
  auto cast_error = [&](size_t position, const char* kind) {
    return Status::InvalidArgument("support function '" +
                                   opclass->supports[position] +
                                   "' is not a Gist" + kind + "Fn");
  };
  if (consistent == nullptr ||
      std::any_cast<GistConsistentFn>(consistent) == nullptr) {
    return cast_error(0, "Consistent");
  }
  if (unite == nullptr || std::any_cast<GistUnionFn>(unite) == nullptr) {
    return cast_error(1, "Union");
  }
  if (penalty == nullptr ||
      std::any_cast<GistPenaltyFn>(penalty) == nullptr) {
    return cast_error(2, "Penalty");
  }
  if (pick_split == nullptr ||
      std::any_cast<GistPickSplitFn>(pick_split) == nullptr) {
    return cast_error(3, "PickSplit");
  }
  if (compress == nullptr ||
      std::any_cast<GistCompressFn>(compress) == nullptr) {
    return cast_error(4, "Compress");
  }
  state->ext.consistent = *std::any_cast<GistConsistentFn>(consistent);
  state->ext.unite = *std::any_cast<GistUnionFn>(unite);
  state->ext.penalty = *std::any_cast<GistPenaltyFn>(penalty);
  state->ext.pick_split = *std::any_cast<GistPickSplitFn>(pick_split);
  state->compress = *std::any_cast<GistCompressFn>(compress);
  return Status::OK();
}

// Strategy number = 1-based position of the qualification's function in
// the operator class's STRATEGIES list.
Status StrategyOf(const OpClassDef* opclass, const MiAmQualDesc& qual,
                  int* strategy, const QualTerm** term) {
  if (qual.op == MiAmQualDesc::Op::kAnd) {
    // Scan with the first term; the executor re-checks residuals.
    if (qual.children.empty()) {
      return Status::InvalidArgument("empty qualification");
    }
    return StrategyOf(opclass, qual.children[0], strategy, term);
  }
  if (qual.op != MiAmQualDesc::Op::kTerm) {
    return Status::NotSupported(
        "gist_am scans do not accept disjunctive qualifications");
  }
  for (size_t i = 0; i < opclass->strategies.size(); ++i) {
    if (EqualsIgnoreCase(opclass->strategies[i], qual.term.func->name)) {
      *strategy = static_cast<int>(i) + 1;
      *term = &qual.term;
      return Status::OK();
    }
  }
  return Status::NotSupported("strategy function '" + qual.term.func->name +
                              "' is not in the operator class");
}

struct BladeFns {
  AmSimpleFn create, drop, open, close, check, stats;
  AmScanFn beginscan, endscan, rescan;
  AmGetNextFn getnext;
  AmModifyFn insert, remove;
  AmUpdateFn update;
  AmScanCostFn scancost;
};

BladeFns MakeBladeFns(const GistBladeOptions& options) {
  BladeFns fns;
  const std::string am_name = options.am_name;

  auto make_state = [am_name](MiCallContext& ctx, MiAmTableDesc* desc,
                              bool creating) -> Status {
    auto state = std::make_unique<GsTreeState>();
    GRTDB_RETURN_IF_ERROR(ResolveExtension(ctx, desc->index, state.get()));
    Sbspace* sbspace = ctx.server->FindSbspace(desc->index->space);
    if (sbspace == nullptr) {
      return Status::NotFound("sbspace '" + desc->index->space + "'");
    }
    LoHandle handle;
    NodeId anchor = kInvalidNodeId;
    if (!creating) {
      std::vector<uint8_t> record;
      GRTDB_RETURN_IF_ERROR(
          ctx.server->AmCatalogGet(am_name, desc->index->name, &record));
      if (record.size() != 16) {
        return Status::Corruption("bad gist_am catalog record");
      }
      handle.id = LoadU64(record.data());
      anchor = LoadU64(record.data() + 8);
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
      auto tree_or = GistTree::Create(state->store, &new_anchor);
      if (!tree_or.ok()) return tree_or.status();
      state->tree = std::move(tree_or).value();
      std::vector<uint8_t> record(16);
      StoreU64(record.data(), opened.id);
      StoreU64(record.data() + 8, new_anchor);
      GRTDB_RETURN_IF_ERROR(
          ctx.server->AmCatalogPut(am_name, desc->index->name, record));
    } else {
      auto tree_or = GistTree::Open(state->store, anchor);
      if (!tree_or.ok()) return tree_or.status();
      state->tree = std::move(tree_or).value();
    }
    desc->user_data = state.release();
    return Status::OK();
  };

  fns.create = [make_state](MiCallContext& ctx,
                            MiAmTableDesc* desc) -> Status {
    return make_state(ctx, desc, /*creating=*/true);
  };

  fns.open = [make_state](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    if (desc->just_created || desc->user_data != nullptr) return Status::OK();
    return make_state(ctx, desc, /*creating=*/false);
  };

  fns.close = [](MiCallContext&, MiAmTableDesc* desc) -> Status {
    GsTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::OK();
    if (state->locking_store != nullptr) {
      state->locking_store->ReleaseSharedOnClose();
    }
    delete state;
    desc->user_data = nullptr;
    return Status::OK();
  };

  fns.drop = [make_state, am_name](MiCallContext& ctx,
                                   MiAmTableDesc* desc) -> Status {
    if (desc->user_data == nullptr) {
      GRTDB_RETURN_IF_ERROR(make_state(ctx, desc, /*creating=*/false));
    }
    GsTreeState* state = StateOf(desc);
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

  fns.beginscan = [](MiCallContext&, MiAmScanDesc* sd) -> Status {
    GsTreeState* state = StateOf(sd->table_desc);
    if (state == nullptr) return Status::Internal("index not open");
    auto scan = std::make_unique<GsScanState>();
    const QualTerm* term = nullptr;
    GRTDB_RETURN_IF_ERROR(
        StrategyOf(state->opclass, *sd->qual, &scan->strategy, &term));
    auto key_or = state->compress(term->constant);
    if (!key_or.ok()) return key_or.status();
    scan->query = std::move(key_or).value();
    GRTDB_RETURN_IF_ERROR(state->tree->SearchAll(
        scan->query, scan->strategy, state->ext, &scan->results));
    sd->user_data = scan.release();
    return Status::OK();
  };

  fns.getnext = [](MiCallContext& ctx, MiAmScanDesc* sd, bool* has,
                   uint64_t* retrowid) -> Status {
    auto* scan = static_cast<GsScanState*>(sd->user_data);
    if (scan == nullptr) {
      return Status::Internal("gs_getnext without gs_beginscan");
    }
    *has = false;
    Table* table = sd->table_desc->table;
    const int key_column = sd->table_desc->key_columns.at(0);
    while (scan->next < scan->results.size()) {
      const auto& entry = scan->results[scan->next++];
      // Verify the full qualification on the base tuple (compressed keys
      // may over-approximate, and conjunctions carry residual terms).
      const Row* base_row = nullptr;
      GRTDB_RETURN_IF_ERROR(
          table->Get(RecordId::Unpack(entry.payload), &base_row));
      const Value& key = base_row->at(static_cast<size_t>(key_column));
      bool matches = false;
      GRTDB_RETURN_IF_ERROR(
          EvaluateQualOnValue(ctx, *sd->qual, key, &matches));
      if (!matches) continue;
      *retrowid = entry.payload;
      *has = true;
      return Status::OK();
    }
    return Status::OK();
  };

  fns.rescan = [](MiCallContext&, MiAmScanDesc* sd) -> Status {
    auto* scan = static_cast<GsScanState*>(sd->user_data);
    if (scan == nullptr) return Status::Internal("rescan without beginscan");
    scan->next = 0;
    return Status::OK();
  };

  fns.endscan = [](MiCallContext&, MiAmScanDesc* sd) -> Status {
    delete static_cast<GsScanState*>(sd->user_data);
    sd->user_data = nullptr;
    return Status::OK();
  };

  fns.insert = [](MiCallContext&, MiAmTableDesc* desc, const Row& keyrow,
                  uint64_t rowid) -> Status {
    GsTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    auto key_or = state->compress(keyrow.at(0));
    if (!key_or.ok()) return key_or.status();
    return state->tree->Insert(key_or.value(), rowid, state->ext);
  };

  fns.remove = [](MiCallContext&, MiAmTableDesc* desc, const Row& keyrow,
                  uint64_t rowid) -> Status {
    GsTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    auto key_or = state->compress(keyrow.at(0));
    if (!key_or.ok()) return key_or.status();
    bool found = false;
    GRTDB_RETURN_IF_ERROR(
        state->tree->Delete(key_or.value(), rowid, state->ext, &found));
    if (!found) return Status::NotFound("GiST entry to delete not found");
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
    GsTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    int strategy = 0;
    const QualTerm* term = nullptr;
    GRTDB_RETURN_IF_ERROR(StrategyOf(state->opclass, *qual, &strategy, &term));
    auto key_or = state->compress(term->constant);
    if (!key_or.ok()) return key_or.status();
    auto cost_or =
        state->tree->EstimateScanCost(key_or.value(), strategy, state->ext);
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
    GsTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    return state->tree->CheckConsistency(state->ext);
  };

  fns.stats = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    GsTreeState* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    std::vector<GistLevelStats> levels;
    GRTDB_RETURN_IF_ERROR(state->tree->LevelStats(&levels));
    IndexStatsReport report;
    report.index = desc->index->name;
    report.access_method = desc->index->access_method;
    report.size = state->tree->size();
    report.height = state->tree->height();
    report.free_list = state->store->FreeListLength();
    report.computed_at = ctx.statement_time;
    for (const GistLevelStats& level : levels) {
      report.nodes += level.nodes;
      if (level.level == 0) report.entries = level.entries;
      IndexLevelStats out;
      out.level = level.level;
      out.nodes = level.nodes;
      out.entries = level.entries;
      // Keys are variable-length, so a per-entry capacity (and thus an
      // occupancy ratio) is undefined for this blade.
      report.levels.push_back(out);
    }
    ctx.server->ReportIndexStats(report);
    return Status::OK();
  };

  return fns;
}

// --------------------------------------------------------- registration ---

std::string PurposeSql(const std::string& prefix) {
  std::string script;
  for (const char* suffix :
       {"_create", "_drop", "_open", "_close", "_beginscan", "_endscan",
        "_rescan", "_getnext", "_insert", "_delete", "_update", "_stats",
        "_check"}) {
    script += "CREATE FUNCTION " + prefix + suffix +
              "(pointer) RETURNING int EXTERNAL NAME '" +
              std::string(kGistLibrary) + "(" + prefix + suffix +
              ")' LANGUAGE c;\n";
  }
  script += "CREATE FUNCTION " + prefix +
            "_scancost(pointer) RETURNING float EXTERNAL NAME '" +
            std::string(kGistLibrary) + "(" + prefix +
            "_scancost)' LANGUAGE c;\n";
  return script;
}

}  // namespace

Status RegisterGistBlade(Server* server, const GistBladeOptions& options) {
  if (server->catalog().FindAccessMethod(options.am_name) != nullptr) {
    return Status::AlreadyExists("access method '" + options.am_name + "'");
  }
  BladeFns fns = MakeBladeFns(options);
  BladeLibrary* library = server->blade_libraries().Load(kGistLibrary);
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

  std::string script = PurposeSql(p);
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
  ServerSession* session = server->CreateSession();
  ResultSet result;
  Status status = server->ExecuteScript(session, script, &result);
  Status close = server->CloseSession(session);
  if (status.ok()) status = close;
  return status;
}

// ----------------------------------------------- extension 1: intrange ---

namespace {

struct IntRange {
  int64_t lo = 0;
  int64_t hi = 0;
};

IntRange DecodeRange(const GistKey& key) {
  IntRange range;
  range.lo = LoadI64(key.data());
  range.hi = LoadI64(key.data() + 8);
  return range;
}

GistKey EncodeRange(IntRange range) {
  GistKey key(16);
  StoreI64(key.data(), range.lo);
  StoreI64(key.data() + 8, range.hi);
  return key;
}

Status ParseRangeText(const std::string& text, IntRange* out) {
  // "[lo,hi]"
  const std::string stripped(StripWhitespace(text));
  if (stripped.size() < 5 || stripped.front() != '[' ||
      stripped.back() != ']') {
    return Status::InvalidArgument("intrange expects '[lo,hi]', got '" +
                                   text + "'");
  }
  const std::vector<std::string> pieces =
      SplitAndTrim(stripped.substr(1, stripped.size() - 2), ',');
  if (pieces.size() != 2) {
    return Status::InvalidArgument("intrange expects two bounds");
  }
  out->lo = std::strtoll(pieces[0].c_str(), nullptr, 10);
  out->hi = std::strtoll(pieces[1].c_str(), nullptr, 10);
  if (out->lo > out->hi) {
    return Status::InvalidArgument("intrange bounds inverted");
  }
  return Status::OK();
}

// intrange strategy numbers: 1 = RangeOverlaps, 2 = RangeContains.
bool IntRangeConsistent(const GistKey& key, const GistKey& query,
                        int strategy, bool leaf) {
  const IntRange k = DecodeRange(key);
  const IntRange q = DecodeRange(query);
  switch (strategy) {
    case 0:  // maintenance: could the exact key `query` live under `key`?
      return k.lo <= q.lo && q.hi <= k.hi;
    case 1:  // overlaps
      return k.lo <= q.hi && q.lo <= k.hi;
    case 2:  // key contains query (internal: containment still required of
             // the union key, so the same test prunes correctly)
      return k.lo <= q.lo && q.hi <= k.hi;
    default:
      return leaf ? false : true;  // unknown strategy: never match leaves
  }
}

}  // namespace

Status RegisterIntRangeOpclass(Server* server, const std::string& am_name) {
  if (server->catalog().FindAccessMethod(am_name) == nullptr) {
    return Status::NotFound("access method '" + am_name + "'");
  }
  // The opaque type.
  if (server->types().FindOpaqueByName("intrange") == nullptr) {
    OpaqueType type;
    type.name = "intrange";
    type.input = [](const std::string& text, std::vector<uint8_t>* out) {
      IntRange range;
      GRTDB_RETURN_IF_ERROR(ParseRangeText(text, &range));
      *out = EncodeRange(range);
      return Status::OK();
    };
    type.output = [](const std::vector<uint8_t>& bytes, std::string* out) {
      if (bytes.size() != 16) return Status::Corruption("bad intrange");
      const IntRange range = DecodeRange(bytes);
      *out = "[" + std::to_string(range.lo) + "," +
             std::to_string(range.hi) + "]";
      return Status::OK();
    };
    uint32_t id = 0;
    GRTDB_RETURN_IF_ERROR(server->types().RegisterOpaque(std::move(type),
                                                         &id));
  }
  const uint32_t type_id = server->types().FindOpaqueByName("intrange")->id;

  BladeLibrary* library = server->blade_libraries().Load(kGistLibrary);
  library->Export("ir_consistent",
                  std::any(GistConsistentFn(IntRangeConsistent)));
  library->Export(
      "ir_union", std::any(GistUnionFn([](std::span<const GistKey> keys) {
        IntRange acc = DecodeRange(keys[0]);
        for (const GistKey& key : keys.subspan(1)) {
          const IntRange range = DecodeRange(key);
          acc.lo = std::min(acc.lo, range.lo);
          acc.hi = std::max(acc.hi, range.hi);
        }
        return EncodeRange(acc);
      })));
  library->Export(
      "ir_penalty",
      std::any(GistPenaltyFn([](const GistKey& existing, const GistKey& key) {
        const IntRange a = DecodeRange(existing);
        const IntRange b = DecodeRange(key);
        const int64_t lo = std::min(a.lo, b.lo);
        const int64_t hi = std::max(a.hi, b.hi);
        return static_cast<double>((hi - lo) - (a.hi - a.lo));
      })));
  library->Export(
      "ir_picksplit",
      std::any(GistPickSplitFn([](std::span<const GistKey> keys) {
        std::vector<size_t> order(keys.size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
          return DecodeRange(keys[a]).lo < DecodeRange(keys[b]).lo;
        });
        std::vector<size_t> right(order.begin() + order.size() / 2,
                                  order.end());
        return right;
      })));
  library->Export(
      "ir_compress",
      std::any(GistCompressFn([type_id](const Value& value)
                                  -> StatusOr<GistKey> {
        if (value.is_null()) {
          return Status::InvalidArgument("NULL is not indexable");
        }
        if (value.base() == TypeDesc::Base::kInteger) {
          return EncodeRange(IntRange{value.integer(), value.integer()});
        }
        if (value.base() == TypeDesc::Base::kOpaque &&
            value.type().opaque_id == type_id &&
            value.opaque().size() == 16) {
          return GistKey(value.opaque());
        }
        return Status::InvalidArgument("expected intrange or integer");
      })));
  // SQL-callable strategy functions (sequential-scan evaluation).
  auto strategy_udr = [type_id](bool contains) {
    return UdrFunction([contains, type_id](MiCallContext&,
                                           std::span<const Value> args)
                           -> StatusOr<Value> {
      auto to_range = [type_id](const Value& value,
                                IntRange* out) -> Status {
        if (value.base() == TypeDesc::Base::kInteger) {
          *out = IntRange{value.integer(), value.integer()};
          return Status::OK();
        }
        if (value.base() == TypeDesc::Base::kOpaque &&
            value.type().opaque_id == type_id && value.opaque().size() == 16) {
          *out = DecodeRange(value.opaque());
          return Status::OK();
        }
        return Status::InvalidArgument("expected intrange");
      };
      IntRange a;
      IntRange b;
      GRTDB_RETURN_IF_ERROR(to_range(args[0], &a));
      GRTDB_RETURN_IF_ERROR(to_range(args[1], &b));
      if (contains) return Value::Boolean(a.lo <= b.lo && b.hi <= a.hi);
      return Value::Boolean(a.lo <= b.hi && b.lo <= a.hi);
    });
  };
  library->Export("ir_overlaps_fn", std::any(strategy_udr(false)));
  library->Export("ir_contains_fn", std::any(strategy_udr(true)));

  ServerSession* session = server->CreateSession();
  ResultSet result;
  Status status = server->ExecuteScript(session, R"SQL(
    CREATE FUNCTION RangeOverlaps(intrange, intrange) RETURNING boolean
      EXTERNAL NAME 'usr/functions/gist.bld(ir_overlaps_fn)' LANGUAGE c;
    CREATE FUNCTION RangeContains(intrange, intrange) RETURNING boolean
      EXTERNAL NAME 'usr/functions/gist.bld(ir_contains_fn)' LANGUAGE c;
    CREATE FUNCTION ir_consistent(pointer) RETURNING int
      EXTERNAL NAME 'usr/functions/gist.bld(ir_consistent)' LANGUAGE c;
    CREATE FUNCTION ir_union(pointer) RETURNING int
      EXTERNAL NAME 'usr/functions/gist.bld(ir_union)' LANGUAGE c;
    CREATE FUNCTION ir_penalty(pointer) RETURNING int
      EXTERNAL NAME 'usr/functions/gist.bld(ir_penalty)' LANGUAGE c;
    CREATE FUNCTION ir_picksplit(pointer) RETURNING int
      EXTERNAL NAME 'usr/functions/gist.bld(ir_picksplit)' LANGUAGE c;
    CREATE FUNCTION ir_compress(pointer) RETURNING int
      EXTERNAL NAME 'usr/functions/gist.bld(ir_compress)' LANGUAGE c;
  )SQL",
                                        &result);
  if (status.ok()) {
    status = server->ExecuteScript(
        session,
        "CREATE OPCLASS ir_opclass FOR " + am_name +
            " STRATEGIES(RangeOverlaps, RangeContains)"
            " SUPPORT(ir_consistent, ir_union, ir_penalty, ir_picksplit, "
            "ir_compress);",
        &result);
  }
  Status close = server->CloseSession(session);
  if (status.ok()) status = close;
  return status;
}

// ------------------------------------------------ extension 2: prefixes ---

namespace {

size_t CommonPrefixLength(const GistKey& a, const GistKey& b) {
  const size_t limit = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < limit && a[i] == b[i]) ++i;
  return i;
}

bool StartsWith(const GistKey& value, const GistKey& prefix) {
  return value.size() >= prefix.size() &&
         std::equal(prefix.begin(), prefix.end(), value.begin());
}

// Prefix-GiST keys: leaves hold the full string; internal keys hold the
// longest common prefix of their subtree. Strategies: 1 = PrefixMatch,
// 2 = TextEquals.
bool PrefixConsistent(const GistKey& key, const GistKey& query, int strategy,
                      bool leaf) {
  switch (strategy) {
    case 0:  // maintenance: the internal prefix must prefix the target
      return leaf ? key == query : StartsWith(query, key);
    case 1:  // PrefixMatch(col, q): col starts with q
      if (leaf) return StartsWith(key, query);
      // Internal: the subtree can hold matches iff its common prefix and
      // the query prefix agree on their overlap.
      return CommonPrefixLength(key, query) >=
             std::min(key.size(), query.size());
    case 2:  // TextEquals
      if (leaf) return key == query;
      return StartsWith(query, key);
    default:
      return !leaf;
  }
}

}  // namespace

Status RegisterPrefixOpclass(Server* server, const std::string& am_name) {
  if (server->catalog().FindAccessMethod(am_name) == nullptr) {
    return Status::NotFound("access method '" + am_name + "'");
  }
  BladeLibrary* library = server->blade_libraries().Load(kGistLibrary);
  library->Export("px_consistent",
                  std::any(GistConsistentFn(PrefixConsistent)));
  library->Export(
      "px_union", std::any(GistUnionFn([](std::span<const GistKey> keys) {
        GistKey prefix = keys[0];
        for (const GistKey& key : keys.subspan(1)) {
          prefix.resize(CommonPrefixLength(prefix, key));
        }
        return prefix;
      })));
  library->Export(
      "px_penalty",
      std::any(GistPenaltyFn([](const GistKey& existing, const GistKey& key) {
        // Cost = how much of the existing prefix would be lost.
        return static_cast<double>(existing.size() -
                                   CommonPrefixLength(existing, key));
      })));
  library->Export(
      "px_picksplit",
      std::any(GistPickSplitFn([](std::span<const GistKey> keys) {
        std::vector<size_t> order(keys.size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](size_t a, size_t b) { return keys[a] < keys[b]; });
        return std::vector<size_t>(order.begin() + order.size() / 2,
                                   order.end());
      })));
  library->Export(
      "px_compress",
      std::any(GistCompressFn([](const Value& value) -> StatusOr<GistKey> {
        if (value.is_null() || value.base() != TypeDesc::Base::kText) {
          return Status::InvalidArgument("expected text");
        }
        if (value.text().size() > GistTree::kMaxKeySize) {
          return Status::InvalidArgument("text too long for the index");
        }
        return GistKey(value.text().begin(), value.text().end());
      })));
  library->Export(
      "px_prefix_fn",
      std::any(UdrFunction([](MiCallContext&, std::span<const Value> args)
                               -> StatusOr<Value> {
        const std::string& value = args[0].text();
        const std::string& prefix = args[1].text();
        return Value::Boolean(value.size() >= prefix.size() &&
                              value.compare(0, prefix.size(), prefix) == 0);
      })));
  library->Export(
      "px_equals_fn",
      std::any(UdrFunction([](MiCallContext&, std::span<const Value> args)
                               -> StatusOr<Value> {
        return Value::Boolean(args[0].text() == args[1].text());
      })));

  ServerSession* session = server->CreateSession();
  ResultSet result;
  Status status = server->ExecuteScript(session, R"SQL(
    CREATE FUNCTION PrefixMatch(text, text) RETURNING boolean
      EXTERNAL NAME 'usr/functions/gist.bld(px_prefix_fn)' LANGUAGE c;
    CREATE FUNCTION TextEquals(text, text) RETURNING boolean
      EXTERNAL NAME 'usr/functions/gist.bld(px_equals_fn)' LANGUAGE c;
    CREATE FUNCTION px_consistent(pointer) RETURNING int
      EXTERNAL NAME 'usr/functions/gist.bld(px_consistent)' LANGUAGE c;
    CREATE FUNCTION px_union(pointer) RETURNING int
      EXTERNAL NAME 'usr/functions/gist.bld(px_union)' LANGUAGE c;
    CREATE FUNCTION px_penalty(pointer) RETURNING int
      EXTERNAL NAME 'usr/functions/gist.bld(px_penalty)' LANGUAGE c;
    CREATE FUNCTION px_picksplit(pointer) RETURNING int
      EXTERNAL NAME 'usr/functions/gist.bld(px_picksplit)' LANGUAGE c;
    CREATE FUNCTION px_compress(pointer) RETURNING int
      EXTERNAL NAME 'usr/functions/gist.bld(px_compress)' LANGUAGE c;
  )SQL",
                                        &result);
  if (status.ok()) {
    status = server->ExecuteScript(
        session,
        "CREATE OPCLASS px_opclass FOR " + am_name +
            " STRATEGIES(PrefixMatch, TextEquals)"
            " SUPPORT(px_consistent, px_union, px_penalty, px_picksplit, "
            "px_compress);",
        &result);
  }
  Status close = server->CloseSession(session);
  if (status.ok()) status = close;
  return status;
}

}  // namespace grtdb
