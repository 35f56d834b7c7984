#include "blades/timeextent.h"

#include <cstring>

#include "temporal/predicates.h"

namespace grtdb {

namespace {

Status InputFn(const std::string& text, std::vector<uint8_t>* out) {
  TimeExtent extent;
  GRTDB_RETURN_IF_ERROR(TimeExtent::Parse(text, &extent));
  out->resize(TimeExtent::kBinarySize);
  extent.EncodeTo(out->data());
  return Status::OK();
}

Status OutputFn(const std::vector<uint8_t>& bytes, std::string* out) {
  if (bytes.size() != TimeExtent::kBinarySize) {
    return Status::Corruption("grt_timeextent value has wrong size");
  }
  *out = TimeExtent::DecodeFrom(bytes.data()).ToString();
  return Status::OK();
}

// Binds one of the four bitemporal predicates as a strategy UDR. Both
// arguments are grt_timeextent; UC/NOW resolve at the blade current time.
UdrFunction MakeStrategy(bool (*predicate)(const TimeExtent&,
                                           const TimeExtent&, int64_t)) {
  return [predicate](MiCallContext& ctx,
                     std::span<const Value> args) -> StatusOr<Value> {
    if (args.size() != 2) {
      return Status::InvalidArgument("strategy functions take two extents");
    }
    TimeExtent a;
    TimeExtent b;
    GRTDB_RETURN_IF_ERROR(ExtentFromValue(args[0], &a));
    GRTDB_RETURN_IF_ERROR(ExtentFromValue(args[1], &b));
    return Value::Boolean(predicate(a, b, BladeCurrentTime(ctx)));
  };
}

bool OverlapsPred(const TimeExtent& a, const TimeExtent& b, int64_t ct) {
  return ExtentsOverlap(a, b, ct);
}
bool ContainsPred(const TimeExtent& a, const TimeExtent& b, int64_t ct) {
  return ExtentContains(a, b, ct);
}
bool ContainedInPred(const TimeExtent& a, const TimeExtent& b, int64_t ct) {
  return ExtentContainedIn(a, b, ct);
}
bool EqualPred(const TimeExtent& a, const TimeExtent& b, int64_t ct) {
  return ExtentsEqual(a, b, ct);
}

}  // namespace

uint32_t TimeExtentTypeId(Server* server) {
  const OpaqueType* type =
      server->types().FindOpaqueByName(kTimeExtentTypeName);
  return type != nullptr ? type->id : 0;
}

Status CheckExtentKey(MiCallContext& ctx, const MiAmTableDesc* desc) {
  if (desc->key_types.size() != 1 ||
      desc->key_types[0].base != TypeDesc::Base::kOpaque ||
      desc->key_types[0].opaque_id != TimeExtentTypeId(ctx.server)) {
    return Status::InvalidArgument(desc->index->access_method +
                                   " indexes exactly one grt_timeextent "
                                   "column");
  }
  return Status::OK();
}

BladeProject ExtentProject(const std::string& am_name,
                           const std::string& prefix) {
  BladeProject project;
  project.library = kGrtBladeLibrary;
  // The trees hard-code the support functions' logic internally (§5.2),
  // but the operator class declares them, as the paper's CREATE OPCLASS
  // example shows.
  project.opclasses.push_back(BladeOpclass{
      prefix + "_opclass", am_name, true,
      {"Overlaps", "Contains", "ContainedIn", "Equal"},
      {"grt_union", "grt_size", "grt_intersection"}});
  return project;
}

Status ExtentFromValue(const Value& value, TimeExtent* out) {
  if (value.is_null() || value.base() != TypeDesc::Base::kOpaque ||
      value.opaque().size() != TimeExtent::kBinarySize) {
    return Status::InvalidArgument("value is not a grt_timeextent");
  }
  *out = TimeExtent::DecodeFrom(value.opaque().data());
  return Status::OK();
}

Value ValueFromExtent(Server* server, const TimeExtent& extent) {
  std::vector<uint8_t> bytes(TimeExtent::kBinarySize);
  extent.EncodeTo(bytes.data());
  return Value::Opaque(TimeExtentTypeId(server), std::move(bytes));
}

int64_t BladeCurrentTime(MiCallContext& ctx) {
  if (ctx.session == nullptr ||
      ctx.session->time_mode() == CurrentTimeMode::kPerStatement) {
    return ctx.statement_time;
  }
  // Per-transaction mode (§5.4): capture the current time the first time
  // the blade runs inside this transaction, in named memory keyed by the
  // session id, and free it from a transaction-end callback.
  Server* server = ctx.server;
  const std::string name =
      "grt_ct_session_" + std::to_string(ctx.session->id());
  void* ptr = nullptr;
  if (server->named_memory().NamedGet(name, &ptr).ok()) {
    int64_t value;
    std::memcpy(&value, ptr, sizeof(value));
    return value;
  }
  const int64_t now = ctx.statement_time;
  if (!server->named_memory().NamedAlloc(name, sizeof(now), &ptr).ok()) {
    return now;  // lost the race; fall back to statement time
  }
  std::memcpy(ptr, &now, sizeof(now));
  Transaction* txn = ctx.session->txn_session().current_txn();
  if (txn != nullptr) {
    txn->AddEndCallback([server, name](bool) {
      Status st = server->named_memory().NamedFree(name);
      (void)st;
    });
  }
  return now;
}

Status RegisterTimeExtentType(Server* server) {
  if (TimeExtentTypeId(server) != 0) return Status::OK();

  OpaqueType type;
  type.name = kTimeExtentTypeName;
  type.input = InputFn;
  type.output = OutputFn;
  // send/receive and import/export default to the internal structure and
  // the text format respectively (BladeSmith's generated pairs performed
  // "very similar tasks", §6.3).
  uint32_t id = 0;
  GRTDB_RETURN_IF_ERROR(server->types().RegisterOpaque(std::move(type), &id));

  BladeLibrary* library = server->blade_libraries().Load(kGrtBladeLibrary);
  library->Export("grt_overlaps", std::any(MakeStrategy(OverlapsPred)));
  library->Export("grt_contains", std::any(MakeStrategy(ContainsPred)));
  library->Export("grt_containedin",
                  std::any(MakeStrategy(ContainedInPred)));
  library->Export("grt_equal", std::any(MakeStrategy(EqualPred)));

  // Support functions (Union/Size/Inter of §5.2): the trees hard-code
  // their logic internally, but registered UDR counterparts exist and are
  // declared in the operator classes, as in the paper's CREATE OPCLASS
  // example.
  library->Export(
      "grt_union_fn",
      std::any(UdrFunction([](MiCallContext& ctx, std::span<const Value> args)
                               -> StatusOr<Value> {
        if (args.size() != 2) {
          return Status::InvalidArgument("Union takes two extents");
        }
        TimeExtent a;
        TimeExtent b;
        GRTDB_RETURN_IF_ERROR(ExtentFromValue(args[0], &a));
        GRTDB_RETURN_IF_ERROR(ExtentFromValue(args[1], &b));
        const BoundSpec pair[2] = {BoundSpec::FromExtent(a),
                                   BoundSpec::FromExtent(b)};
        const BoundSpec bound =
            BoundSpec::Enclose(pair, BladeCurrentTime(ctx));
        // Rendered back as a 4TS extent: the SQL-visible union is the
        // timestamp envelope (the flags are an index internal).
        const TimeExtent envelope(bound.tt_begin, bound.tt_end,
                                  bound.vt_begin, bound.vt_end);
        return ValueFromExtent(ctx.server, envelope);
      })));
  library->Export(
      "grt_size_fn",
      std::any(UdrFunction([](MiCallContext& ctx, std::span<const Value> args)
                               -> StatusOr<Value> {
        if (args.size() != 1) {
          return Status::InvalidArgument("Size takes one extent");
        }
        TimeExtent a;
        GRTDB_RETURN_IF_ERROR(ExtentFromValue(args[0], &a));
        return Value::Float(ResolveExtent(a, BladeCurrentTime(ctx)).Area());
      })));
  library->Export(
      "grt_inter_fn",
      std::any(UdrFunction([](MiCallContext& ctx, std::span<const Value> args)
                               -> StatusOr<Value> {
        if (args.size() != 2) {
          return Status::InvalidArgument("Intersection takes two extents");
        }
        TimeExtent a;
        TimeExtent b;
        GRTDB_RETURN_IF_ERROR(ExtentFromValue(args[0], &a));
        GRTDB_RETURN_IF_ERROR(ExtentFromValue(args[1], &b));
        const int64_t ct = BladeCurrentTime(ctx);
        return Value::Float(
            ResolveExtent(a, ct).IntersectionArea(ResolveExtent(b, ct)));
      })));

  // Register the strategy functions as SQL-callable UDRs (paper §4 Step 2:
  // CREATE FUNCTION ... EXTERNAL NAME "usr/functions/grtree.bld(...)").
  return server->RunRegistrationScript(R"SQL(
    CREATE FUNCTION Overlaps(grt_timeextent, grt_timeextent) RETURNING boolean
      EXTERNAL NAME 'usr/functions/grtree.bld(grt_overlaps)' LANGUAGE c NOT VARIANT;
    CREATE FUNCTION Contains(grt_timeextent, grt_timeextent) RETURNING boolean
      EXTERNAL NAME 'usr/functions/grtree.bld(grt_contains)' LANGUAGE c NOT VARIANT;
    CREATE FUNCTION ContainedIn(grt_timeextent, grt_timeextent) RETURNING boolean
      EXTERNAL NAME 'usr/functions/grtree.bld(grt_containedin)' LANGUAGE c NOT VARIANT;
    CREATE FUNCTION Equal(grt_timeextent, grt_timeextent) RETURNING boolean
      EXTERNAL NAME 'usr/functions/grtree.bld(grt_equal)' LANGUAGE c NOT VARIANT;
    CREATE FUNCTION grt_union(grt_timeextent, grt_timeextent) RETURNING grt_timeextent
      EXTERNAL NAME 'usr/functions/grtree.bld(grt_union_fn)' LANGUAGE c;
    CREATE FUNCTION grt_size(grt_timeextent) RETURNING float
      EXTERNAL NAME 'usr/functions/grtree.bld(grt_size_fn)' LANGUAGE c;
    CREATE FUNCTION grt_intersection(grt_timeextent, grt_timeextent) RETURNING float
      EXTERNAL NAME 'usr/functions/grtree.bld(grt_inter_fn)' LANGUAGE c;
  )SQL");
}

}  // namespace grtdb
