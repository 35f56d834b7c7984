// The system views: the Informix-style catalogs the CREATE statements
// populate (paper §4 Step 6 names SYSAMS and SYSINDICES) and the sys_*
// observability views. Every view is one entry of the table below; SELECT,
// UNLOAD, the DUMP statements, the read-only and reserved-name checks, and
// the unknown-view listing all resolve names through it.

#include <map>

#include "common/strings.h"
#include "obs/flight_recorder.h"
#include "server/server.h"

namespace grtdb {

namespace {

Value Uint(uint64_t value) {
  return Value::Integer(static_cast<int64_t>(value));
}

const char* ResourceKindName(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kLargeObject: return "large_object";
    case ResourceKind::kTable: return "table";
    case ResourceKind::kRow: return "row";
  }
  return "?";
}

const char* LockModeName(LockMode mode) {
  return mode == LockMode::kExclusive ? "X" : "S";
}

}  // namespace

const std::vector<Server::SystemView>& Server::SystemViews() {
  const TypeDesc text = TypeDesc::Text();
  const TypeDesc integer = TypeDesc::Integer();
  const TypeDesc real = TypeDesc::Float();
  // Column order is part of each view's contract: clients (wirebench's
  // sys_index_stats reader among them) address columns by position.
  static const std::vector<SystemView> kViews = {
      {"systables",
       {{"tabname", text}, {"ncols", integer}, {"nrows", integer}},
       [](Server& server, std::vector<Row>* rows) {
         for (const Table* t : server.catalog_.AllTables()) {
           rows->push_back({Value::Text(t->name()), Uint(t->columns().size()),
                            Uint(t->row_count())});
         }
       }},
      {"sysams",
       {{"amname", text}, {"am_sptype", text}, {"am_getnext", text},
        {"defaultopclass", text}},
       [](Server& server, std::vector<Row>* rows) {
         for (const AccessMethodDef* am : server.catalog_.AllAccessMethods()) {
           rows->push_back(
               {Value::Text(am->name), Value::Text(std::string(1, am->sptype)),
                Value::Text(am->purpose_names[static_cast<size_t>(
                    obs::PurposeFn::kAmGetNext)]),
                Value::Text(am->default_opclass)});
         }
       }},
      {"sysopclasses",
       {{"opclassname", text}, {"amname", text}, {"strategies", text},
        {"support", text}},
       [](Server& server, std::vector<Row>* rows) {
         for (const OpClassDef* opclass : server.catalog_.AllOpClasses()) {
           rows->push_back({Value::Text(opclass->name),
                            Value::Text(opclass->access_method),
                            Value::Text(Join(opclass->strategies, ", ")),
                            Value::Text(Join(opclass->supports, ", "))});
         }
       }},
      {"sysindices",
       {{"idxname", text}, {"tabname", text}, {"amname", text},
        {"colname", text}, {"opclassname", text}, {"spacename", text}},
       [](Server& server, std::vector<Row>* rows) {
         for (const IndexDef* index : server.catalog_.AllIndexes()) {
           rows->push_back({Value::Text(index->name), Value::Text(index->table),
                            Value::Text(index->access_method),
                            Value::Text(Join(index->columns, ", ")),
                            Value::Text(Join(index->opclasses, ", ")),
                            Value::Text(index->space)});
         }
       }},
      {"sysprocedures",
       {{"procname", text}, {"numargs", integer}, {"argtypes", text},
        {"rettype", text}, {"externalname", text}},
       [](Server& server, std::vector<Row>* rows) {
         for (const UdrDef* def : server.udrs_.AllDefs()) {
           std::vector<std::string> arg_names;
           for (const TypeDesc& type : def->arg_types) {
             arg_names.push_back(server.types_.NameOf(type));
           }
           rows->push_back({Value::Text(def->name), Uint(def->arg_types.size()),
                            Value::Text(Join(arg_names, ", ")),
                            Value::Text(server.types_.NameOf(def->return_type)),
                            Value::Text(def->external_name)});
         }
       }},
      {"sys_metrics",
       {{"name", text}, {"kind", text}, {"value", integer}, {"count", integer},
        {"sum", integer}, {"buckets", text}},
       [](Server& server, std::vector<Row>* rows) {
         std::vector<obs::MetricSample> samples = server.metrics_.Snapshot();
         // The trace facility keeps its own counter (the blade layer cannot
         // depend on the registry); surface it as a synthetic row.
         obs::MetricSample& dropped = samples.emplace_back();
         dropped.name = "trace.dropped";
         dropped.kind = obs::MetricSample::Kind::kCounter;
         dropped.value = static_cast<int64_t>(server.trace_.dropped());
         for (const obs::MetricSample& sample : samples) {
           rows->push_back({Value::Text(sample.name),
                            Value::Text(sample.KindName()),
                            Value::Integer(sample.value), Uint(sample.count),
                            Uint(sample.sum), Value::Text(sample.buckets)});
         }
       }},
      {"sys_trace",
       {{"seq", integer}, {"ts_us", integer}, {"thread", integer},
        {"class", text}, {"level", integer}, {"message", text}},
       [](Server& server, std::vector<Row>* rows) {
         for (const TraceRecord& record : server.trace_.records()) {
           rows->push_back(
               {Uint(record.seq), Value::Integer(record.ts_us),
                Uint(record.thread), Value::Text(record.trace_class),
                Value::Integer(record.level), Value::Text(record.message)});
         }
       }},
      {"sys_locks",
       {{"kind", text}, {"resource", integer}, {"txn", integer}, {"mode", text},
        {"depth", integer}, {"upgrader_waiting", integer},
        {"waiting_exclusive", integer}},
       [](Server& server, std::vector<Row>* rows) {
         for (const LockDumpRow& row : server.lock_manager_.Dump()) {
           rows->push_back(
               {Value::Text(ResourceKindName(row.kind)), Uint(row.resource),
                Uint(row.txn),
                Value::Text(row.count == 0 ? "" : LockModeName(row.mode)),
                Value::Integer(row.count),
                Value::Integer(row.upgrader_waiting ? 1 : 0),
                Value::Integer(row.waiting_exclusive)});
         }
       }},
      {"sys_index_stats",
       {{"idxname", text}, {"amname", text}, {"level", text},
        {"height", integer}, {"nodes", integer}, {"entries", integer},
        {"occupancy", real}, {"free_list", integer}, {"dead_entries", integer},
        {"growing_regions", integer}, {"growing_area", real},
        {"computed_at", integer}},
       [](Server& server, std::vector<Row>* rows) {
         for (const IndexStatsReport& report : server.AllIndexStats()) {
           // One summary row (level "all") followed by the walker's
           // per-level breakdown, root level first.
           rows->push_back(
               {Value::Text(report.index), Value::Text(report.access_method),
                Value::Text("all"), Value::Integer(report.height),
                Uint(report.nodes), Uint(report.entries),
                Value::Float(report.occupancy), Uint(report.free_list),
                Uint(report.dead_entries), Uint(report.growing_regions),
                Value::Float(report.growing_area),
                Value::Integer(report.computed_at)});
           for (const IndexLevelStats& level : report.levels) {
             rows->push_back(
                 {Value::Text(report.index), Value::Text(report.access_method),
                  Value::Text(std::to_string(level.level)),
                  Value::Integer(report.height), Uint(level.nodes),
                  Uint(level.entries), Value::Float(level.occupancy),
                  Value::Integer(0), Value::Integer(0), Value::Integer(0),
                  Value::Float(level.total_area),
                  Value::Integer(report.computed_at)});
           }
         }
       }},
      {"sys_slow_queries",
       {{"seq", integer}, {"session", integer}, {"trace_id", integer},
        {"total_ns", integer}, {"rows_scanned", integer},
        {"rows_returned", integer}, {"node_reads", integer},
        {"cache_hits", integer}, {"lock_waits", integer},
        {"lock_wait_ns", integer}, {"purpose_calls", text}, {"sql", text}},
       [](Server& server, std::vector<Row>* rows) {
         for (const obs::SlowQueryEntry& entry :
              server.slow_query_log_.Snapshot()) {
           const obs::ProfileCounters& c = entry.counters;
           // The retained profile's Fig. 6 breakdown, one clause per purpose
           // function that was actually called: "am_getnext calls=41 ns=103".
           std::string breakdown;
           for (size_t i = 0; i < obs::kPurposeFnCount; ++i) {
             if (c.fn_calls[i] == 0) continue;
             if (!breakdown.empty()) breakdown += "; ";
             breakdown +=
                 std::string(
                     obs::PurposeFnName(static_cast<obs::PurposeFn>(i))) +
                 " calls=" + std::to_string(c.fn_calls[i]) +
                 " ns=" + std::to_string(c.fn_ns[i]);
           }
           rows->push_back(
               {Uint(entry.seq), Uint(entry.session_id), Uint(entry.trace_id),
                Uint(entry.total_ns), Uint(c.rows_scanned),
                Uint(c.rows_returned), Uint(c.node_reads), Uint(c.cache_hits),
                Uint(c.lock_waits), Uint(c.lock_wait_ns),
                Value::Text(breakdown), Value::Text(entry.sql)});
         }
       }},
      {"sys_prepared",
       {{"session", integer}, {"name", text}, {"params", integer},
        {"executions", integer}, {"plan", text}, {"statement", text}},
       [](Server& server, std::vector<Row>* rows) {
         std::lock_guard<std::mutex> lock(server.sessions_mu_);
         for (const auto& session : server.sessions_) {
           for (const ServerSession::PreparedHandle& handle :
                session->AllPrepared()) {
             // The handle is text-only; whether a plan exists for it (and
             // what the planner decided) comes from peeking the shared cache.
             uint64_t executions = 0;
             std::string plan_text = "uncached";
             if (std::shared_ptr<CachedPlan> plan =
                     server.plan_cache_.Peek(handle.sql)) {
               executions = plan->executions.load(std::memory_order_relaxed);
               std::lock_guard<std::mutex> memo_lock(plan->memo_mu);
               if (!plan->planned) {
                 plan_text = "unplanned";
               } else if (plan->memo.use_index) {
                 plan_text = "index " + plan->memo.index->name;
               } else {
                 plan_text = "seq scan";
               }
             }
             rows->push_back({Uint(session->id()), Value::Text(handle.name),
                              Uint(handle.param_count), Uint(executions),
                              Value::Text(plan_text), Value::Text(handle.sql)});
           }
         }
       }},
      {"sys_spans",
       {{"seq", integer}, {"trace_id", integer}, {"span_id", integer},
        {"parent_id", integer}, {"name", text}, {"start_ns", integer},
        {"dur_ns", integer}, {"thread", integer}, {"a", integer},
        {"b", integer}},
       [](Server& server, std::vector<Row>* rows) {
         const uint64_t base = server.span_tracer_.base_ticks();
         for (const obs::SpanRecord& span : server.span_tracer_.Snapshot()) {
           rows->push_back(
               {Uint(span.seq), Uint(span.trace_id), Uint(span.span_id),
                Uint(span.parent_id),
                Value::Text(obs::SpanNameString(span.name)),
                Uint(obs::TicksToNs(span.start_ticks - base)),
                Uint(obs::TicksToNs(span.end_ticks - span.start_ticks)),
                Uint(span.thread), Uint(span.a), Uint(span.b)});
         }
       }},
      {"sys_contention",
       {{"kind", text}, {"resource", integer}, {"waits", integer},
        {"wait_ns", integer}, {"max_wait_ns", integer}, {"timeouts", integer},
        {"deadlocks", integer}, {"last_holder", integer}},
       // Where the lock waits went, hottest resource first. History, not a
       // snapshot: rows persist after the last lock is released, so a
       // post-mortem read still sees the contended rows.
       [](Server& server, std::vector<Row>* rows) {
         for (const ContentionRow& row :
              server.lock_manager_.ContentionDump()) {
           rows->push_back({Value::Text(ResourceKindName(row.kind)),
                            Uint(row.resource), Uint(row.waits),
                            Uint(row.wait_ns), Uint(row.max_wait_ns),
                            Uint(row.timeouts), Uint(row.deadlocks),
                            Uint(row.last_holder)});
         }
       }},
      {"sys_waits",
       {{"kind", text}, {"resource", integer}, {"waiter", integer},
        {"mode", text}, {"waited_ns", integer}, {"holder", integer}},
       // The wait-for graph right now: one row per (waiter, conflicting
       // holder). A waiter blocked only by the writer-priority fence shows
       // holder = 0. Empty on an uncontended server.
       [](Server& server, std::vector<Row>* rows) {
         for (const WaitEdge& edge : server.lock_manager_.WaitsDump()) {
           rows->push_back({Value::Text(ResourceKindName(edge.kind)),
                            Uint(edge.resource), Uint(edge.waiter),
                            Value::Text(LockModeName(edge.mode)),
                            Uint(edge.waited_ns), Uint(edge.holder)});
         }
       }},
      {"sys_hot_nodes",
       {{"store", text}, {"node", integer}, {"heat", real}, {"reads", integer},
        {"writes", integer}, {"pin_wait_ns", integer}},
       // The heat tracker's ranked access map, hottest node first. Empty
       // until SET HEAT_TRACK = 1 arms the tracker. The store column carries
       // the index name, so it joins against sys_index_stats.idxname.
       [](Server& server, std::vector<Row>* rows) {
         for (const obs::HotNode& node : server.heat_tracker_.Snapshot()) {
           rows->push_back({Value::Text(node.store), Uint(node.node),
                            Value::Float(node.heat), Uint(node.reads),
                            Uint(node.writes), Uint(node.pin_wait_ns)});
         }
       }},
      {"sys_sessions",
       {{"session", integer}, {"peer", text}, {"state", text},
        {"statement", text}, {"txn", integer}, {"explicit_txn", integer},
        {"locks", integer}, {"trace_id", integer}, {"statements", integer}},
       // Every live session and what it is doing. The info mirror is written
       // at statement boundaries by the owning thread; locks held comes from
       // grouping the lock manager's dump by the mirrored transaction id.
       [](Server& server, std::vector<Row>* rows) {
         std::map<TxnId, int64_t> locks_by_txn;
         for (const LockDumpRow& row : server.lock_manager_.Dump()) {
           if (row.txn != 0) ++locks_by_txn[row.txn];
         }
         std::lock_guard<std::mutex> lock(server.sessions_mu_);
         for (const auto& session : server.sessions_) {
           const ServerSession::SessionInfo info = session->info();
           auto held = locks_by_txn.find(info.txn);
           rows->push_back(
               {Uint(session->id()),
                Value::Text(info.peer.empty() ? "embedded" : info.peer),
                Value::Text(info.active ? "active" : "idle"),
                Value::Text(info.statement), Uint(info.txn),
                Value::Integer(info.explicit_txn ? 1 : 0),
                Value::Integer(held != locks_by_txn.end() ? held->second : 0),
                Uint(info.trace_id), Uint(info.statements)});
         }
       }},
      {"sys_flight",
       {{"thread", integer}, {"ns", integer}, {"event", text}, {"a", integer},
        {"b", integer}},
       // The process-wide flight recorder's rings, stitched. Same clock
       // origin as sys_spans' start_ns (the span tracer's base), so flight
       // events line up with span windows without unit juggling. Events
       // recorded before this server existed clamp to 0 rather than
       // wrapping.
       [](Server& server, std::vector<Row>* rows) {
         const uint64_t base = server.span_tracer_.base_ticks();
         for (const obs::FlightEventRecord& record :
              obs::FlightRecorder::Global().Dump()) {
           rows->push_back(
               {Uint(record.thread),
                Uint(record.ticks > base ? obs::TicksToNs(record.ticks - base)
                                         : 0),
                Value::Text(obs::FlightEventName(record.event)),
                Uint(record.a), Uint(record.b)});
         }
       }},
  };
  return kViews;
}

const Server::SystemView* Server::FindSystemView(const std::string& name) {
  for (const SystemView& view : SystemViews()) {
    if (EqualsIgnoreCase(name, view.name)) return &view;
  }
  return nullptr;
}

std::unique_ptr<Table> Server::BuildSystemTable(const SystemView& view) {
  std::vector<Row> rows;
  view.fill(*this, &rows);
  auto table = std::make_unique<Table>(view.name, view.columns);
  RecordId ignored;
  for (Row& row : rows) {
    Status st = table->Insert(std::move(row), &ignored);
    (void)st;  // every fill emits rows of exactly the view's arity
  }
  return table;
}

void Server::DumpSystemView(const char* name, ResultSet* out) {
  const SystemView& view = *FindSystemView(name);
  std::vector<Row> rows;
  view.fill(*this, &rows);
  for (const ColumnDef& column : view.columns) {
    out->columns.push_back(column.name);
  }
  for (const Row& row : rows) {
    for (const Value& value : row) out->rows.AddCell(RenderValue(value));
    out->rows.EndRow();
  }
}

Status Server::NoWritableTable(const std::string& name) {
  if (FindSystemView(name) != nullptr) {
    return Status::InvalidArgument("system view '" + ToLower(name) +
                                   "' is read-only");
  }
  return Status::NotFound("table '" + name + "'");
}

}  // namespace grtdb
