#include "blades/btree_blade.h"

#include <memory>
#include <vector>

#include "blades/access_method.h"
#include "btree/btree.h"
#include "common/strings.h"

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

constexpr char kBtreeLibrary[] = "usr/functions/btree.bld";

// One statement's open index, with the compare() it resolved in the
// statement's session.
struct BtHandle : TreeHandle<BtreeIndex> {
  // The dynamically resolved compare() of the index's operator class.
  BtreeCompare cmp;
};

BtHandle* StateOf(MiAmTableDesc* desc) { return HandleOf<BtHandle>(desc); }
using TreeOr = StatusOr<std::unique_ptr<BtreeIndex>>;

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
Status ResolveCompare(MiCallContext& ctx, const MiAmTableDesc* desc,
                      BtreeCompare* out) {
  const TypeDesc key_type = desc->key_types.at(0);
  const OpClassDef* opclass =
      ctx.server->catalog().FindOpClass(desc->index->opclasses[0]);
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

PurposeFunctions MakeBladeFns() {
  PurposeFunctions fns;

  fns.am_create = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    if (desc->key_types.size() != 1 ||
        (desc->key_types[0].base != TypeDesc::Base::kInteger &&
         desc->key_types[0].base != TypeDesc::Base::kDate)) {
      return Status::InvalidArgument(
          "btree_am indexes exactly one integer or date column");
    }
    BtreeCompare cmp;
    GRTDB_RETURN_IF_ERROR(ResolveCompare(ctx, desc, &cmp));
    GRTDB_RETURN_IF_ERROR(BuildIndexStack(ctx, desc));
    GRTDB_RETURN_IF_ERROR(OpenHandle<BtHandle>(ctx, desc, [&](BtHandle* h) {
      h->wrote = true;
      h->cmp = std::move(cmp);
      return BtreeIndex::Create(h->store, {}, &h->stack->anchor);
    }));
    return PutLoRecord(ctx, desc);
  };

  fns.am_open = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    return OpenHandle<BtHandle>(ctx, desc, [&](BtHandle* h) -> TreeOr {
      GRTDB_RETURN_IF_ERROR(ResolveCompare(ctx, desc, &h->cmp));
      return BtreeIndex::Open(h->store, h->stack->anchor, {});
    });
  };

  fns.am_beginscan = [](MiCallContext& ctx, MiAmScanDesc* sd) -> Status {
    BtHandle* state = StateOf(sd->table_desc);
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

  fns.am_getnext = [](MiCallContext&, MiAmScanDesc* sd, bool* has,
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

  fns.am_rescan = [](MiCallContext&, MiAmScanDesc* sd) -> Status {
    auto* scan = static_cast<BtScanState*>(sd->user_data);
    if (scan == nullptr) return Status::Internal("rescan without beginscan");
    scan->next = 0;
    return Status::OK();
  };

  fns.am_endscan = [](MiCallContext&, MiAmScanDesc* sd) -> Status {
    delete static_cast<BtScanState*>(sd->user_data);
    sd->user_data = nullptr;
    return Status::OK();
  };

  fns.am_insert = [](MiCallContext&, MiAmTableDesc* desc, const Row& keyrow,
                     uint64_t rowid) -> Status {
    BtHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    state->wrote = true;
    int64_t key = 0;
    GRTDB_RETURN_IF_ERROR(KeyFromValue(keyrow.at(0), &key));
    return state->tree->Insert(key, rowid, state->cmp);
  };

  fns.am_delete = [](MiCallContext&, MiAmTableDesc* desc, const Row& keyrow,
                     uint64_t rowid) -> Status {
    BtHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    state->wrote = true;
    int64_t key = 0;
    GRTDB_RETURN_IF_ERROR(KeyFromValue(keyrow.at(0), &key));
    bool found = false;
    GRTDB_RETURN_IF_ERROR(state->tree->Delete(key, rowid, state->cmp,
                                              &found));
    if (!found) return Status::NotFound("B+-tree entry to delete not found");
    return Status::OK();
  };

  fns.am_scancost = [](MiCallContext& ctx, MiAmTableDesc* desc,
                       const MiAmQualDesc* qual, double* cost) -> Status {
    BtHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    BtreeIndex::Range range;
    GRTDB_RETURN_IF_ERROR(
        TranslateQual(ctx, desc->index, *qual, state->cmp, &range));
    auto cost_or = state->tree->EstimateScanCost(range, state->cmp);
    if (!cost_or.ok()) return cost_or.status();
    *cost = cost_or.value();
    return Status::OK();
  };

  fns.am_check = [](MiCallContext&, MiAmTableDesc* desc) -> Status {
    BtHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    return state->tree->CheckConsistency(state->cmp);
  };

  fns.am_stats = [](MiCallContext& ctx, MiAmTableDesc* desc) -> Status {
    BtHandle* state = StateOf(desc);
    if (state == nullptr) return Status::Internal("index not open");
    std::vector<BtreeLevelStats> levels;
    GRTDB_RETURN_IF_ERROR(state->tree->LevelStats(&levels));
    IndexStatsBuilder stats(desc, state->tree->max_entries());
    stats.report().size = state->tree->size();
    stats.report().height = state->tree->height();
    stats.report().computed_at = ctx.statement_time;
    for (const BtreeLevelStats& level : levels) {
      stats.AddLevel(level.level, level.nodes, level.entries);
    }
    stats.Publish(ctx.server);
    return Status::OK();
  };

  AddSharedHooks<BtHandle>(&fns);
  return fns;
}

// The key of one comparison argument (integer or date).
int64_t KeyOf(const Value& value) {
  return value.base() == TypeDesc::Base::kDate ? value.date()
                                               : value.integer();
}

// A comparison UDR over two same-typed arguments (integer or date).
UdrFunction MakeComparisonUdr(int want_sign, bool or_equal,
                              int (*order)(int64_t, int64_t)) {
  return [want_sign, or_equal, order](
             MiCallContext&, std::span<const Value> args) -> StatusOr<Value> {
    if (args.size() != 2 || args[0].is_null() || args[1].is_null()) {
      return Status::InvalidArgument("comparison takes two non-null keys");
    }
    const int sign = order(KeyOf(args[0]), KeyOf(args[1]));
    return Value::Boolean(sign == want_sign || (or_equal && sign == 0));
  };
}

UdrFunction MakeCompareUdr(int (*order)(int64_t, int64_t)) {
  return [order](MiCallContext&,
                 std::span<const Value> args) -> StatusOr<Value> {
    if (args.size() != 2 || args[0].is_null() || args[1].is_null()) {
      return Status::InvalidArgument("compare takes two non-null keys");
    }
    return Value::Integer(order(KeyOf(args[0]), KeyOf(args[1])));
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

// Exports the five comparison strategies and compare() over `order` as
// <symbol_prefix>_lessthan, ..., <symbol_prefix>_compare, and returns
// the project registering their routines — <sql_prefix>LessThan, ...,
// <sql_prefix>compare, over integer and over date arguments — and the
// operator class `opclass` of btree_am over them: strategy positions 1..5
// carry the slot semantics, compare is the one support function.
BladeProject ComparisonFamily(Server* server, const std::string& symbol_prefix,
                              const std::string& sql_prefix,
                              int (*order)(int64_t, int64_t),
                              const std::string& opclass, bool is_default) {
  BladeLibrary* library = server->blade_libraries().Load(kBtreeLibrary);
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
  BladeProject project;
  project.name = symbol_prefix;
  project.library = kBtreeLibrary;
  BladeOpclass family{opclass, "btree_am", is_default, {}, {}};
  auto add = [&](const std::string& name, const std::string& ret,
                 const std::string& symbol) {
    for (const char* type : {"integer", "date"}) {
      project.routines.push_back(
          BladeRoutine{name, {type, type}, ret, symbol, false});
    }
  };
  for (const Spec& spec : specs) {
    const std::string symbol = symbol_prefix + "_" + ToLower(spec.name);
    library->Export(symbol, std::any(MakeComparisonUdr(spec.sign,
                                                       spec.or_equal, order)));
    add(sql_prefix + spec.name, "boolean", symbol);
    family.strategies.push_back(sql_prefix + spec.name);
  }
  library->Export(symbol_prefix + "_compare", std::any(MakeCompareUdr(order)));
  add(sql_prefix + "compare", "int", symbol_prefix + "_compare");
  family.supports.push_back(sql_prefix + "compare");
  project.opclasses.push_back(std::move(family));
  return project;
}

}  // namespace

Status RegisterBtreeBlade(Server* server) {
  return RegisterAccessMethod(
      server, "btree_am", "bt", MakeBladeFns(),
      ComparisonFamily(server, "bt_natural", "", NaturalCompare, "bt_opclass",
                       /*is_default=*/true));
}

Status RegisterAbsOpclass(Server* server) {
  if (server->catalog().FindAccessMethod("btree_am") == nullptr) {
    return Status::NotFound("access method 'btree_am'");
  }
  return server->RunRegistrationScript(
      BladeSmith::GenerateRegistrationSql(ComparisonFamily(
          server, "bt_abs", "Abs", AbsOrder, "bt_abs_opclass",
          /*is_default=*/false)));
}

}  // namespace grtdb
