#include "blades/gist_blade.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "blades/access_method.h"
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

// What a statement resolves from the index's operator class.
struct GistOpclass {
  const OpClassDef* def = nullptr;
  GistExtension ext;
  GistCompressFn compress;
};

struct GsHandle : TreeHandle<GistTree> {
  GistOpclass opclass;
};

GsHandle* StateOf(MiAmTableDesc* desc) { return HandleOf<GsHandle>(desc); }
using TreeOr = StatusOr<std::unique_ptr<GistTree>>;

// Resolves the five extension primitives from the operator class's SUPPORT
// list — the dynamic dispatch §7 envisions ("specially designed operator
// classes").
Status ResolveExtension(MiCallContext& ctx, const IndexDef* index,
                        GistOpclass* out) {
  const OpClassDef* opclass =
      ctx.server->catalog().FindOpClass(index->opclasses[0]);
  if (opclass == nullptr || opclass->supports.size() < 5) {
    return Status::InvalidArgument(
        "gist_am operator classes declare five support functions: "
        "consistent, union, penalty, picksplit, compress");
  }
  out->def = opclass;
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
  out->ext.consistent = *std::any_cast<GistConsistentFn>(consistent);
  out->ext.unite = *std::any_cast<GistUnionFn>(unite);
  out->ext.penalty = *std::any_cast<GistPenaltyFn>(penalty);
  out->ext.pick_split = *std::any_cast<GistPickSplitFn>(pick_split);
  out->compress = *std::any_cast<GistCompressFn>(compress);
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

PurposeFunctions MakeBladeFns() {
  PurposeFunctions fns;

  fns.am_create = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    GistOpclass opclass;
    GRTDB_RETURN_IF_ERROR(ResolveExtension(ctx, desc->index, &opclass));
    GRTDB_RETURN_IF_ERROR(BuildIndexStack(ctx, desc));
    GRTDB_RETURN_IF_ERROR(OpenHandle<GsHandle>(ctx, desc, [&](GsHandle* h) {
      h->wrote = true;
      h->opclass = std::move(opclass);
      return GistTree::Create(h->store, &h->stack->anchor);
    }));
    return PutLoRecord(ctx, desc);
  };

  fns.am_open = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    return OpenHandle<GsHandle>(ctx, desc, [&](GsHandle* h) -> TreeOr {
      GRTDB_RETURN_IF_ERROR(ResolveExtension(ctx, desc->index, &h->opclass));
      return GistTree::Open(h->store, h->stack->anchor);
    });
  };

  fns.am_beginscan = [](MiCallContext&, MiAmScanDesc* sd) -> Status {
    GsHandle* state = StateOf(sd->table_desc);
    if (state == nullptr) return Status::Internal("index not open");
    const GistOpclass& opclass = state->opclass;
    auto scan = std::make_unique<GsScanState>();
    const QualTerm* term = nullptr;
    GRTDB_RETURN_IF_ERROR(
        StrategyOf(opclass.def, *sd->qual, &scan->strategy, &term));
    auto key_or = opclass.compress(term->constant);
    if (!key_or.ok()) return key_or.status();
    scan->query = std::move(key_or).value();
    GRTDB_RETURN_IF_ERROR(state->tree->SearchAll(
        scan->query, scan->strategy, opclass.ext, &scan->results));
    sd->user_data = scan.release();
    return Status::OK();
  };

  fns.am_getnext = [](MiCallContext& ctx, MiAmScanDesc* sd, bool* has,
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

  fns.am_rescan = [](MiCallContext&, MiAmScanDesc* sd) -> Status {
    auto* scan = static_cast<GsScanState*>(sd->user_data);
    if (scan == nullptr) return Status::Internal("rescan without beginscan");
    scan->next = 0;
    return Status::OK();
  };

  fns.am_endscan = [](MiCallContext&, MiAmScanDesc* sd) -> Status {
    delete static_cast<GsScanState*>(sd->user_data);
    sd->user_data = nullptr;
    return Status::OK();
  };

  fns.am_insert = [](MiCallContext&, MiAmTableDesc* desc, const Row& keyrow,
                     uint64_t rowid) -> Status {
    GsHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    state->wrote = true;
    auto key_or = state->opclass.compress(keyrow.at(0));
    if (!key_or.ok()) return key_or.status();
    return state->tree->Insert(key_or.value(), rowid, state->opclass.ext);
  };

  fns.am_delete = [](MiCallContext&, MiAmTableDesc* desc, const Row& keyrow,
                     uint64_t rowid) -> Status {
    GsHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    state->wrote = true;
    auto key_or = state->opclass.compress(keyrow.at(0));
    if (!key_or.ok()) return key_or.status();
    bool found = false;
    GRTDB_RETURN_IF_ERROR(state->tree->Delete(key_or.value(), rowid,
                                              state->opclass.ext, &found));
    if (!found) return Status::NotFound("GiST entry to delete not found");
    return Status::OK();
  };

  fns.am_scancost = [](MiCallContext&, MiAmTableDesc* desc,
                       const MiAmQualDesc* qual, double* cost) -> Status {
    GsHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    int strategy = 0;
    const QualTerm* term = nullptr;
    GRTDB_RETURN_IF_ERROR(
        StrategyOf(state->opclass.def, *qual, &strategy, &term));
    auto key_or = state->opclass.compress(term->constant);
    if (!key_or.ok()) return key_or.status();
    auto cost_or = state->tree->EstimateScanCost(key_or.value(), strategy,
                                                 state->opclass.ext);
    if (!cost_or.ok()) return cost_or.status();
    *cost = cost_or.value();
    return Status::OK();
  };

  fns.am_check = [](MiCallContext&, MiAmTableDesc* desc) -> Status {
    GsHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    return state->tree->CheckConsistency(state->opclass.ext);
  };

  fns.am_stats = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    GsHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    std::vector<GistLevelStats> levels;
    GRTDB_RETURN_IF_ERROR(state->tree->LevelStats(&levels));
    // Keys are variable-length, so a per-entry capacity (and thus an
    // occupancy ratio) is undefined for this blade.
    IndexStatsBuilder stats(desc, /*max_entries=*/0);
    stats.report().size = state->tree->size();
    stats.report().height = state->tree->height();
    stats.report().computed_at = ctx.statement_time;
    for (const GistLevelStats& level : levels) {
      stats.AddLevel(level.level, level.nodes, level.entries);
    }
    stats.Publish(ctx.server);
    return Status::OK();
  };

  AddSharedHooks<GsHandle>(&fns);
  return fns;
}

}  // namespace

Status RegisterGistBlade(Server* server) {
  BladeProject project;
  project.library = kGistLibrary;
  return RegisterAccessMethod(server, "gist_am", "gs", MakeBladeFns(),
                              std::move(project));
}

namespace {

// Registers the GiST operator class <prefix>_opclass: `strategies`, then
// the five support functions <prefix>_consistent, _union, _penalty,
// _picksplit and _compress, each exported under its own name.
Status RegisterGistOpclass(Server* server, const std::string& prefix,
                           std::vector<BladeRoutine> strategies) {
  BladeProject project;
  project.name = prefix + "_opclass";
  project.library = kGistLibrary;
  BladeOpclass opclass{project.name, "gist_am", false, {}, {}};
  for (const BladeRoutine& strategy : strategies) {
    opclass.strategies.push_back(strategy.name);
  }
  project.routines = std::move(strategies);
  for (const char* support :
       {"consistent", "union", "penalty", "picksplit", "compress"}) {
    const std::string name = prefix + "_" + support;
    project.routines.push_back(
        BladeRoutine{name, {"pointer"}, "int", name, false});
    opclass.supports.push_back(name);
  }
  project.opclasses.push_back(std::move(opclass));
  return server->RunRegistrationScript(
      BladeSmith::GenerateRegistrationSql(project));
}

}  // namespace

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
  int64_t* bounds[2] = {&out->lo, &out->hi};
  for (size_t i = 0; i < 2; ++i) {
    if (!ParseInt64(pieces[i], bounds[i])) {
      return Status::InvalidArgument("intrange bound '" + pieces[i] +
                                     "' is not a 64-bit integer");
    }
  }
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

Status RegisterIntRangeOpclass(Server* server) {
  if (server->catalog().FindAccessMethod("gist_am") == nullptr) {
    return Status::NotFound("access method 'gist_am'");
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

  return RegisterGistOpclass(
      server, "ir",
      {{"RangeOverlaps", {"intrange", "intrange"}, "boolean", "ir_overlaps_fn"},
       {"RangeContains", {"intrange", "intrange"}, "boolean",
        "ir_contains_fn"}});
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

Status RegisterPrefixOpclass(Server* server) {
  if (server->catalog().FindAccessMethod("gist_am") == nullptr) {
    return Status::NotFound("access method 'gist_am'");
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

  return RegisterGistOpclass(
      server, "px",
      {{"PrefixMatch", {"text", "text"}, "boolean", "px_prefix_fn"},
       {"TextEquals", {"text", "text"}, "boolean", "px_equals_fn"}});
}

}  // namespace grtdb
