#include "server/server.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "common/date.h"
#include "common/strings.h"
#include "obs/fast_clock.h"
#include "obs/flight_recorder.h"
#include "server/purpose_call.h"
#include "sql/parser.h"

namespace grtdb {

namespace {

// Holds the statement gate for the duration of one statement: DDL runs
// exclusive (it mutates the catalog/type/UDR registries every concurrent
// reader walks lock-free), everything else shared. Re-entrant per thread
// (EXPLAIN PROFILE re-enters ExecuteStatement for its inner statement):
// only the outermost frame acquires, so a nested statement runs under the
// outer statement's grip.
class StatementGateScope {
 public:
  StatementGateScope(std::shared_mutex* gate, bool exclusive)
      : gate_(depth_ == 0 ? gate : nullptr), exclusive_(exclusive) {
    ++depth_;
    if (gate_ == nullptr) return;
    // The span covers only the acquisition: under concurrent sessions this
    // is the time a statement sat blocked behind DDL (or, for DDL, behind
    // every in-flight reader).
    obs::SpanScope span(obs::SpanName::kGateWait, exclusive_ ? 1 : 0);
    if (exclusive_) {
      gate_->lock();
    } else {
      gate_->lock_shared();
    }
  }
  ~StatementGateScope() {
    --depth_;
    if (gate_ == nullptr) return;
    if (exclusive_) {
      gate_->unlock();
    } else {
      gate_->unlock_shared();
    }
  }

  StatementGateScope(const StatementGateScope&) = delete;
  StatementGateScope& operator=(const StatementGateScope&) = delete;

 private:
  static thread_local int depth_;
  std::shared_mutex* gate_;
  bool exclusive_;
};

thread_local int StatementGateScope::depth_ = 0;

// Statements that mutate shared definition state (catalog, types, UDRs,
// access methods) and therefore need the gate exclusively.
bool IsDefinitionStatement(const sql::Statement& stmt) {
  return std::holds_alternative<sql::CreateTableStmt>(stmt) ||
         std::holds_alternative<sql::DropTableStmt>(stmt) ||
         std::holds_alternative<sql::CreateFunctionStmt>(stmt) ||
         std::holds_alternative<sql::DropFunctionStmt>(stmt) ||
         std::holds_alternative<sql::CreateAccessMethodStmt>(stmt) ||
         std::holds_alternative<sql::DropAccessMethodStmt>(stmt) ||
         std::holds_alternative<sql::CreateOpclassStmt>(stmt) ||
         std::holds_alternative<sql::DropOpclassStmt>(stmt) ||
         std::holds_alternative<sql::CreateIndexStmt>(stmt) ||
         std::holds_alternative<sql::DropIndexStmt>(stmt);
}

// Marks the session busy for sys_sessions for the duration of one
// statement, recording the statement text and trace id; the destructor
// flips it back to idle and re-mirrors the transaction state. Nesting
// (EXPLAIN PROFILE, EXECUTE) is handled inside Begin/EndStatement.
class SessionStatementScope {
 public:
  SessionStatementScope(ServerSession* session, const std::string& sql)
      : session_(session) {
    session_->BeginStatement(sql, obs::CurrentTraceHandle().trace_id);
  }
  ~SessionStatementScope() { session_->EndStatement(); }

  SessionStatementScope(const SessionStatementScope&) = delete;
  SessionStatementScope& operator=(const SessionStatementScope&) = delete;

 private:
  ServerSession* session_;
};

// Binds a purpose function's symbol into its hook slot; false when the
// symbol does not have the hook's signature.
template <typename Hook>
bool BindHook(const UdrDef& udr, Hook* hook) {
  const Hook* fn = std::any_cast<Hook>(&udr.symbol);
  if (fn != nullptr) *hook = *fn;
  return fn != nullptr;
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options),
      lock_manager_(options.lock_timeout),
      txn_manager_(&lock_manager_),
      current_time_(kInitialTime),
      span_tracer_(options.span_capacity) {
  // Pointer stores into named memory are audited against the duration
  // allocator: a per-statement pointer parked in session-lifetime named
  // memory is the paper's §4 stale-pointer bug, flagged at the store.
  named_memory_.set_duration_source(&memory_);
  if (options_.observability) {
    for (size_t i = 0; i < obs::kPurposeFnCount; ++i) {
      const std::string fn = obs::PurposeFnName(static_cast<obs::PurposeFn>(i));
      vii_calls_[i] = metrics_.GetCounter("vii." + fn + ".calls");
      vii_us_[i] = metrics_.GetHistogram("vii." + fn + ".us");
    }
    lock_manager_.set_metrics(&metrics_);
    plan_cache_hits_ = metrics_.GetCounter("plan_cache.hits");
    plan_cache_misses_ = metrics_.GetCounter("plan_cache.misses");
    plan_cache_invalidations_ =
        metrics_.GetCounter("plan_cache.invalidations");
  }
  // A default sbspace so CREATE INDEX without IN <space> works.
  Status st = CreateSbspace("default");
  (void)st;  // cannot fail on a fresh server
  // The flight recorder's crash dump: process-wide and independent of the
  // observability option — the black box must already be on when the fatal
  // signal arrives. Idempotent across servers.
  obs::FlightRecorder::InstallSignalHandler();
}

Server::~Server() {
  // Index states write into sbspaces (and their caches report to the
  // trace, heat and metrics facilities) that are destroyed before the
  // catalog, so they go first.
  catalog_.ReleaseIndexStates();
}

Status Server::CreateSbspace(const std::string& name) {
  const std::string key = ToLower(name);
  if (sbspaces_.count(key) != 0) {
    return Status::AlreadyExists("sbspace '" + name + "'");
  }
  auto backend = std::make_unique<MemorySpace>();
  auto sbspace_or = Sbspace::Open(backend.get(), kSbspacePoolPages);
  if (!sbspace_or.ok()) return sbspace_or.status();
  space_backends_[key] = std::move(backend);
  sbspaces_[key] = std::move(sbspace_or).value();
  if (options_.observability) {
    sbspaces_[key]->pager().set_metrics(&metrics_);
  }
  return Status::OK();
}

Sbspace* Server::FindSbspace(const std::string& name) {
  auto it = sbspaces_.find(ToLower(name));
  return it == sbspaces_.end() ? nullptr : it->second.get();
}

Status Server::AmCatalogPut(const std::string& am, const std::string& index,
                            std::vector<uint8_t> record) {
  std::lock_guard<std::mutex> lock(am_catalog_mu_);
  am_catalog_[ToLower(am) + "/" + ToLower(index)] = std::move(record);
  return Status::OK();
}

Status Server::AmCatalogGet(const std::string& am, const std::string& index,
                            std::vector<uint8_t>* record) {
  std::lock_guard<std::mutex> lock(am_catalog_mu_);
  auto it = am_catalog_.find(ToLower(am) + "/" + ToLower(index));
  if (it == am_catalog_.end()) {
    return Status::NotFound("no AM catalog record for index '" + index +
                            "'");
  }
  *record = it->second;
  return Status::OK();
}

Status Server::AmCatalogDelete(const std::string& am,
                               const std::string& index) {
  std::lock_guard<std::mutex> lock(am_catalog_mu_);
  if (am_catalog_.erase(ToLower(am) + "/" + ToLower(index)) == 0) {
    return Status::NotFound("no AM catalog record for index '" + index +
                            "'");
  }
  return Status::OK();
}

ServerSession* Server::CreateSession() {
  ServerSession* session;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.push_back(std::make_unique<ServerSession>(next_session_id_++));
    session = sessions_.back().get();
  }
  // Named memory is server-wide; pointer stores into it are audited
  // against every live session's allocator (see NamedStorePointer).
  named_memory_.AddDurationSource(&session->memory());
  // The session-long duration scope; CloseSession ends it.
  session->memory().BeginDuration(MiDuration::kPerSession);
  return session;
}

Status Server::CloseSession(ServerSession* session) {
  // Registration is checked FIRST: closing a foreign or already-closed
  // session must not roll back or free anything. Unregistering while
  // keeping ownership also means a racing CloseSession for the same
  // pointer cannot double-tear-down.
  std::unique_ptr<ServerSession> owned;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (it->get() == session) {
        owned = std::move(*it);
        sessions_.erase(it);
        break;
      }
    }
  }
  if (owned == nullptr) return Status::NotFound("session not registered");
  Status status = Status::OK();
  if (owned->txn_session().current_txn() != nullptr) {
    status = txn_manager_.Rollback(&owned->txn_session());
    owned->memory().EndDuration(MiDuration::kPerTransaction);
  }
  // Duration teardown is scoped to the closing session's allocator —
  // other sessions' PER_SESSION memory stays live.
  owned->memory().EndDuration(MiDuration::kPerFunction);
  owned->memory().EndDuration(MiDuration::kPerStatement);
  owned->memory().EndDuration(MiDuration::kPerSession);
  named_memory_.RemoveDurationSource(&owned->memory());
  // Purpose calls made outside a statement are not lost with the session.
  FoldPurposeTally(owned.get());
  return status;
}

void Server::ReportIndexStats(IndexStatsReport report) {
  std::lock_guard<std::mutex> lock(index_stats_mu_);
  index_stats_[ToLower(report.index)] = std::move(report);
}

bool Server::GetIndexStats(const std::string& index,
                           IndexStatsReport* out) const {
  std::lock_guard<std::mutex> lock(index_stats_mu_);
  auto it = index_stats_.find(ToLower(index));
  if (it == index_stats_.end()) return false;
  *out = it->second;
  return true;
}

std::vector<IndexStatsReport> Server::AllIndexStats() const {
  std::lock_guard<std::mutex> lock(index_stats_mu_);
  std::vector<IndexStatsReport> out;
  out.reserve(index_stats_.size());
  for (const auto& [key, report] : index_stats_) out.push_back(report);
  return out;
}

std::string Server::RenderValue(const Value& value) const {
  if (!value.is_null() && value.base() == TypeDesc::Base::kOpaque) {
    const OpaqueType* type = types_.FindOpaque(value.type().opaque_id);
    if (type != nullptr) {
      std::string text;
      if (type->output(value.opaque(), &text).ok()) return text;
    }
  }
  return value.ToString();
}

obs::TraceHandle Server::RootTrace() {
  // When sampling is off — the default — StartTrace is one relaxed load and
  // the TraceScope given its handle is inert.
  return obs::CurrentTraceHandle().active() ? obs::TraceHandle{}
                                            : span_tracer_.StartTrace();
}

Status Server::Execute(ServerSession* session, const std::string& sql,
                       ResultSet* out) {
  // A statement that fails before it runs leaves no answer of the last.
  out->Clear();
  obs::TraceScope root_scope(RootTrace(), obs::SpanName::kRequest);
  SessionStatementScope stmt_scope(session, sql);
  sql::Statement stmt;
  {
    obs::SpanScope parse_span(obs::SpanName::kParse);
    GRTDB_RETURN_IF_ERROR(sql::Parser::Parse(sql, &stmt));
  }
  return RunStatement(session, sql, stmt, out);
}

Status Server::ExecuteScript(ServerSession* session,
                             const std::string& script, ResultSet* out) {
  out->Clear();
  // One root spans the whole script (a script arrives as one request).
  obs::TraceScope root_scope(RootTrace(), obs::SpanName::kRequest);
  SessionStatementScope stmt_scope(session, script);
  std::vector<sql::Statement> statements;
  std::vector<std::string> texts;
  GRTDB_RETURN_IF_ERROR(sql::Parser::ParseScript(script, &statements, &texts));
  for (size_t i = 0; i < statements.size(); ++i) {
    GRTDB_RETURN_IF_ERROR(RunStatement(session, texts[i], statements[i], out));
  }
  return Status::OK();
}

Status Server::RunRegistrationScript(const std::string& script) {
  ServerSession* session = CreateSession();
  ResultSet result;
  Status status = ExecuteScript(session, script, &result);
  Status close = CloseSession(session);
  if (status.ok()) status = close;
  return status;
}

Status Server::RunStatement(ServerSession* session, const std::string& text,
                            const sql::Statement& stmt, ResultSet* out) {
  out->Clear();
  const uint64_t start_ticks = obs::Ticks();
  // Statement-scoped durations open here and close unconditionally below,
  // so a UDR that re-enters Execute only tears down its own nested scope.
  session->memory().BeginDuration(MiDuration::kPerFunction);
  session->memory().BeginDuration(MiDuration::kPerStatement);
  Status status = ExecuteStatement(session, stmt, out);
  // Slow-query retention sees every statement, successful or not; its
  // threshold check is one relaxed load, so the disabled default costs
  // nothing beyond the two tick reads.
  slow_query_log_.MaybeRecord(text, obs::TicksToNs(obs::Ticks() - start_ticks),
                              session->profile(), session->id(),
                              obs::CurrentTraceHandle().trace_id);
  // PER_FUNCTION and PER_STATEMENT memory die with the statement (§6.2),
  // the failing one included. Teardown is scoped to the executing session's
  // allocator, so two concurrent statements cannot free each other's blocks.
  session->memory().EndDuration(MiDuration::kPerFunction);
  session->memory().EndDuration(MiDuration::kPerStatement);
  // A failed statement returns no rows: a scan that errs part-way has
  // emitted some already. Its messages (the SET EXPLAIN plan) stay.
  if (!status.ok()) out->rows.Clear();
  // A nested statement (EXPLAIN PROFILE's inner one, EXECUTE's) folds what
  // it called so far; the enclosing one folds the rest.
  FoldPurposeTally(session);
  return status;
}

void Server::FoldPurposeTally(ServerSession* session) {
  for (size_t i = 0; i < obs::kPurposeFnCount; ++i) {
    obs::HistogramTally& tally =
        session->purpose_tally(static_cast<obs::PurposeFn>(i));
    if (tally.count == 0) continue;
    vii_calls_[i]->Add(tally.count);
    vii_us_[i]->Merge(tally);
    tally = obs::HistogramTally{};
  }
}

Status Server::BeginRun(ServerSession* session, StatementRun* run) {
  run->ctx = MiCallContext{this, session, current_time()};
  return txn_manager_.EnsureTxn(&session->txn_session(), &run->implicit_txn);
}

Status Server::EndRun(StatementRun* run, Status status) {
  status = CloseIndexes(run, std::move(status));
  if (!run->implicit_txn) return status;
  ServerSession* session = run->ctx.session;
  Status end = status.ok() ? txn_manager_.Commit(&session->txn_session())
                           : txn_manager_.Rollback(&session->txn_session());
  session->memory().EndDuration(MiDuration::kPerTransaction);
  if (status.ok()) return end;
  return end.ok() ? status
                  : status.WithNote("rollback failed: " + end.message());
}

Status Server::ExecuteStatement(ServerSession* session,
                                const sql::Statement& stmt, ResultSet* out) {
  struct Visitor {
    Server* server;
    ServerSession* session;
    ResultSet* out;

    Status operator()(const sql::CreateTableStmt& s) {
      return server->ExecCreateTable(s);
    }
    Status operator()(const sql::DropTableStmt& s) {
      return server->ExecDropTable(s);
    }
    Status operator()(const sql::CreateFunctionStmt& s) {
      return server->ExecCreateFunction(s);
    }
    Status operator()(const sql::CreateAccessMethodStmt& s) {
      return server->ExecCreateAccessMethod(s);
    }
    Status operator()(const sql::CreateOpclassStmt& s) {
      return server->ExecCreateOpclass(s);
    }
    Status operator()(const sql::CreateIndexStmt& s) {
      return server->ExecCreateIndex(session, s, out);
    }
    Status operator()(const sql::DropIndexStmt& s) {
      return server->ExecDropIndex(session, s);
    }
    Status operator()(const sql::DropFunctionStmt& s) {
      return server->ExecDropFunction(s);
    }
    Status operator()(const sql::DropAccessMethodStmt& s) {
      return server->ExecDropAccessMethod(s);
    }
    Status operator()(const sql::DropOpclassStmt& s) {
      return server->ExecDropOpclass(s);
    }
    Status operator()(const sql::InsertStmt& s) {
      return server->ExecInsert(session, s, out);
    }
    Status operator()(const sql::SelectStmt& s) {
      return server->ExecSelect(session, s, out);
    }
    Status operator()(const sql::DeleteStmt& s) {
      return server->ExecDelete(session, s, out);
    }
    Status operator()(const sql::UpdateStmt& s) {
      return server->ExecUpdate(session, s, out);
    }
    Status operator()(const sql::BeginWorkStmt&) {
      return server->txn_manager_.Begin(&session->txn_session(),
                                        /*explicit_txn=*/true);
    }
    Status operator()(const sql::CommitWorkStmt&) {
      Status end = server->txn_manager_.Commit(&session->txn_session());
      // The duration ends even when the commit errors (COMMIT WORK with
      // no open transaction): per-transaction allocations must never
      // survive an attempted transaction end.
      session->memory().EndDuration(MiDuration::kPerTransaction);
      return end;
    }
    Status operator()(const sql::RollbackWorkStmt&) {
      Status end = server->txn_manager_.Rollback(&session->txn_session());
      session->memory().EndDuration(MiDuration::kPerTransaction);
      return end;
    }
    Status operator()(const sql::SetStmt& s) {
      return server->ExecSet(session, s, out);
    }
    Status operator()(const sql::CheckIndexStmt& s) {
      return server->ExecCheckIndex(session, s, out);
    }
    Status operator()(const sql::UpdateStatisticsStmt& s) {
      return server->ExecUpdateStatistics(session, s, out);
    }
    Status operator()(const sql::LoadStmt& s) {
      return server->ExecLoad(session, s, out);
    }
    Status operator()(const sql::UnloadStmt& s) {
      return server->ExecUnload(session, s, out);
    }
    Status operator()(const sql::ExplainProfileStmt& s) {
      return server->ExecExplainProfile(session, s, out);
    }
    Status operator()(const sql::ExplainTraceStmt& s) {
      return server->ExecExplainTrace(session, s, out);
    }
    Status operator()(const sql::DumpFlightStmt&) {
      return server->ExecDumpFlight(out);
    }
    Status operator()(const sql::DumpTraceStmt& s) {
      return server->ExecDumpTrace(s, out);
    }
    Status operator()(const sql::DumpHeatStmt& s) {
      return server->ExecDumpHeat(s, out);
    }
    Status operator()(const sql::ExportMetricsStmt&) {
      return server->ExecExportMetrics(out);
    }
    Status operator()(const sql::PrepareStmt& s) {
      return server->ExecPrepare(session, s, out);
    }
    Status operator()(const sql::ExecuteStmt& s) {
      return server->ExecExecute(session, s, out);
    }
    Status operator()(const sql::DeallocateStmt& s) {
      return server->ExecDeallocate(session, s, out);
    }
  };
  // Definition statements exclude every other session; DML and queries
  // run concurrently (shared) and settle conflicts in the lock manager.
  const bool is_definition = IsDefinitionStatement(stmt);
  StatementGateScope gate(&statement_gate_, is_definition);
  // Fresh per-statement profile, installed as this thread's attribution
  // point so the node cache and lock manager can charge work to it. An
  // EXPLAIN PROFILE wrapper re-enters here for its inner statement; the
  // inner reset is exactly what gives the wrapper a clean profile to
  // report.
  session->profile().Reset();
  obs::ScopedProfile profile_scope(&session->profile());
  Status status;
  {
    obs::SpanScope exec_span(obs::SpanName::kExec);
    status = std::visit(Visitor{this, session, out}, stmt);
  }
  if (is_definition) {
    // Every definition change — successful or not (a failed CREATE INDEX
    // still touched the catalog on the way) — drops every cached plan.
    // The gate is held exclusively here, so no session is mid-execution
    // on a plan this clears; the next EXECUTE re-parses and re-plans
    // against the new catalog.
    plan_cache_.InvalidateAll();
    if (plan_cache_invalidations_ != nullptr) {
      plan_cache_invalidations_->Add(1);
    }
  }
  return status;
}

Status Server::ExecExplainProfile(ServerSession* session,
                                  const sql::ExplainProfileStmt& stmt,
                                  ResultSet* out) {
  // Execute re-parses and runs the inner statement; its ExecuteStatement
  // resets the session profile, so what is left afterwards is exactly the
  // inner statement's accounting.
  GRTDB_RETURN_IF_ERROR(Execute(session, stmt.inner_sql, out));
  for (std::string& line : session->profile().Report()) {
    out->messages.push_back(std::move(line));
  }
  return Status::OK();
}

Status Server::ExecExplainTrace(ServerSession* session,
                                const sql::ExplainTraceStmt& stmt,
                                ResultSet* out) {
  // Force-sample a fresh trace and run the inner statement under it; every
  // instrumented layer nests its spans below this root automatically. The
  // inner Execute sees the ambient trace and does not re-sample.
  const obs::TraceHandle handle = span_tracer_.StartTraceForced();
  Status status;
  {
    obs::TraceScope root(handle, obs::SpanName::kRequest);
    status = Execute(session, stmt.inner_sql, out);
  }
  GRTDB_RETURN_IF_ERROR(status);
  std::vector<obs::SpanRecord> spans =
      span_tracer_.SnapshotTrace(handle.trace_id);
  // Stitch the parent/child tree and render it depth-first, children in
  // start order. Spans evicted by ring wrap under heavy sampling simply
  // don't appear; the root always survives (it was recorded last).
  std::map<uint64_t, std::vector<const obs::SpanRecord*>> children;
  for (const obs::SpanRecord& span : spans) {
    children[span.parent_id].push_back(&span);
  }
  for (auto& [parent, list] : children) {
    std::sort(list.begin(), list.end(),
              [](const obs::SpanRecord* a, const obs::SpanRecord* b) {
                return a->start_ticks < b->start_ticks;
              });
  }
  out->messages.push_back("TRACE trace_id=" +
                          std::to_string(handle.trace_id) + " spans=" +
                          std::to_string(spans.size()));
  struct Frame {
    const obs::SpanRecord* span;
    int depth;
  };
  std::vector<Frame> stack;
  for (auto it = children[0].rbegin(); it != children[0].rend(); ++it) {
    stack.push_back({*it, 0});
  }
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const obs::SpanRecord& span = *frame.span;
    char line[160];
    std::snprintf(line, sizeof(line), "TRACE %*s%s %.1fus a=%llu b=%llu",
                  frame.depth * 2, "", obs::SpanNameString(span.name),
                  static_cast<double>(
                      obs::TicksToNs(span.end_ticks - span.start_ticks)) /
                      1000.0,
                  static_cast<unsigned long long>(span.a),
                  static_cast<unsigned long long>(span.b));
    out->messages.push_back(line);
    auto kids = children.find(span.span_id);
    if (kids != children.end()) {
      for (auto it = kids->second.rbegin(); it != kids->second.rend(); ++it) {
        stack.push_back({*it, frame.depth + 1});
      }
    }
  }
  return Status::OK();
}

Status Server::ExecDumpTrace(const sql::DumpTraceStmt& stmt, ResultSet* out) {
  if (!stmt.json) {
    DumpSystemView("sys_spans", out);
    out->messages.push_back("span tracer: " + std::to_string(out->rows.size()) +
                            " spans retained, " +
                            std::to_string(span_tracer_.evicted()) +
                            " evicted");
    return Status::OK();
  }
  const std::vector<obs::SpanRecord> spans = span_tracer_.Snapshot();
  const uint64_t base = span_tracer_.base_ticks();
  // Chrome trace-event JSON (the "JSON Object Format"): complete events
  // ("ph":"X"), timestamps and durations in fractional microseconds,
  // loadable in Perfetto / chrome://tracing. One result row per line so
  // wire clients reassemble with newlines.
  out->columns = {"json"};
  out->rows.push_back({"{\"displayTimeUnit\":\"ms\",\"traceEvents\":["});
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& span = spans[i];
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "{\"name\":\"%s\",\"cat\":\"grtdb\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%llu,\"args\":{\"trace_id\":%llu,"
        "\"span_id\":%llu,\"parent_id\":%llu,\"a\":%llu,\"b\":%llu}}%s",
        obs::SpanNameString(span.name),
        static_cast<double>(obs::TicksToNs(span.start_ticks - base)) / 1000.0,
        static_cast<double>(obs::TicksToNs(span.end_ticks -
                                           span.start_ticks)) /
            1000.0,
        static_cast<unsigned long long>(span.thread % 1000000),
        static_cast<unsigned long long>(span.trace_id),
        static_cast<unsigned long long>(span.span_id),
        static_cast<unsigned long long>(span.parent_id),
        static_cast<unsigned long long>(span.a),
        static_cast<unsigned long long>(span.b),
        i + 1 == spans.size() ? "" : ",");
    out->rows.AddCell(line);
    out->rows.EndRow();
  }
  out->rows.push_back({"]}"});
  return Status::OK();
}

Status Server::ExecDumpHeat(const sql::DumpHeatStmt& stmt, ResultSet* out) {
  if (!stmt.json) {
    DumpSystemView("sys_hot_nodes", out);
    out->messages.push_back(
        "heat tracker: " + std::string(heat_tracker_.enabled() ? "on" : "off") +
        ", " + std::to_string(out->rows.size()) + " nodes tracked" +
        (heat_tracker_.dropped() != 0
             ? ", " + std::to_string(heat_tracker_.dropped()) +
                   " dropped at capacity"
             : ""));
    return Status::OK();
  }
  const std::vector<obs::HotNode> nodes = heat_tracker_.Snapshot();
  // One JSON document for offline heat-map rendering, one result row per
  // line (the DUMP TRACE JSON convention: wire clients join with newlines).
  out->columns = {"json"};
  out->rows.push_back({"{\"enabled\":" +
                       std::string(heat_tracker_.enabled() ? "true" : "false") +
                       ",\"dropped\":" + std::to_string(heat_tracker_.dropped()) +
                       ",\"nodes\":["});
  for (size_t i = 0; i < nodes.size(); ++i) {
    const obs::HotNode& node = nodes[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"store\":\"%s\",\"node\":%llu,\"heat\":%.3f,"
                  "\"reads\":%llu,\"writes\":%llu,\"pin_wait_ns\":%llu}%s",
                  node.store.c_str(),
                  static_cast<unsigned long long>(node.node), node.heat,
                  static_cast<unsigned long long>(node.reads),
                  static_cast<unsigned long long>(node.writes),
                  static_cast<unsigned long long>(node.pin_wait_ns),
                  i + 1 == nodes.size() ? "" : ",");
    out->rows.AddCell(line);
    out->rows.EndRow();
  }
  out->rows.push_back({"]}"});
  return Status::OK();
}

// ------------------------------------------------ prepared statements ---

Status Server::GetCachedPlan(const std::string& sql,
                             std::shared_ptr<CachedPlan>* out) {
  obs::SpanScope plan_span(obs::SpanName::kPlan);
  bool hit = false;
  GRTDB_RETURN_IF_ERROR(plan_cache_.Get(sql, out, &hit));
  plan_span.set_operands(hit ? 1 : 0, 0);
  obs::Counter* counter = hit ? plan_cache_hits_ : plan_cache_misses_;
  if (counter != nullptr) counter->Add(1);
  return Status::OK();
}

Status Server::ExecPrepare(ServerSession* session,
                           const sql::PrepareStmt& stmt, ResultSet* out) {
  std::shared_ptr<CachedPlan> plan;
  GRTDB_RETURN_IF_ERROR(GetCachedPlan(stmt.inner_sql, &plan));
  // The SQL parser enforces this for PREPARE ... AS, but the kPrepare wire
  // opcode carries raw statement text; repeat the check on the parsed AST.
  if (!std::holds_alternative<sql::SelectStmt>(plan->ast) &&
      !std::holds_alternative<sql::InsertStmt>(plan->ast) &&
      !std::holds_alternative<sql::DeleteStmt>(plan->ast) &&
      !std::holds_alternative<sql::UpdateStmt>(plan->ast)) {
    return Status::InvalidArgument(
        "PREPARE supports SELECT, INSERT, DELETE, and UPDATE statements");
  }
  ServerSession::PreparedHandle handle;
  handle.name = stmt.name;
  handle.sql = stmt.inner_sql;
  handle.param_count = plan->param_count;
  // Re-PREPARE under the same name replaces the previous statement.
  session->PutPrepared(std::move(handle));
  out->messages.push_back("prepared '" + stmt.name + "' (" +
                          std::to_string(plan->param_count) + " parameter" +
                          (plan->param_count == 1 ? "" : "s") + ")");
  return Status::OK();
}

Status Server::ExecExecute(ServerSession* session,
                           const sql::ExecuteStmt& stmt, ResultSet* out) {
  ServerSession::PreparedHandle handle;
  if (!session->GetPrepared(stmt.name, &handle)) {
    return Status::NotFound("no prepared statement '" + stmt.name + "'");
  }
  if (stmt.args.size() != handle.param_count) {
    return Status::InvalidArgument(
        "prepared statement '" + stmt.name + "' takes " +
        std::to_string(handle.param_count) + " parameter" +
        (handle.param_count == 1 ? "" : "s") + ", got " +
        std::to_string(stmt.args.size()));
  }
  // Fetch by key on every execution: DDL clears the cache, and the handle
  // stores only text — never a plan pointer that could dangle — so a
  // post-invalidation EXECUTE transparently re-parses and re-plans.
  std::shared_ptr<CachedPlan> plan;
  GRTDB_RETURN_IF_ERROR(GetCachedPlan(handle.sql, &plan));
  plan->executions.fetch_add(1, std::memory_order_relaxed);
  // Save/restore around the nested dispatch: EXECUTE runs inside EXPLAIN
  // PROFILE, and the outer frame's bindings must survive the inner one.
  const std::vector<sql::Literal>* saved_params = session->bound_params();
  CachedPlan* saved_plan = session->active_plan();
  session->set_bound_params(&stmt.args);
  session->set_active_plan(plan.get());
  Status status = ExecuteStatement(session, plan->ast, out);
  session->set_bound_params(saved_params);
  session->set_active_plan(saved_plan);
  return status;
}

Status Server::ExecDeallocate(ServerSession* session,
                              const sql::DeallocateStmt& stmt,
                              ResultSet* out) {
  if (!session->ErasePrepared(stmt.name)) {
    return Status::NotFound("no prepared statement '" + stmt.name + "'");
  }
  out->messages.push_back("deallocated '" + stmt.name + "'");
  return Status::OK();
}

Status Server::Prepare(ServerSession* session, const std::string& name,
                       const std::string& sql, ResultSet* out) {
  sql::PrepareStmt prepare;
  prepare.name = name;
  prepare.inner_sql = sql;
  const std::string text = "PREPARE " + name;
  SessionStatementScope stmt_scope(session, text);
  return RunStatement(session, text, sql::Statement(std::move(prepare)), out);
}

Status Server::ExecutePrepared(ServerSession* session,
                               const std::string& name,
                               const std::vector<sql::Literal>& params,
                               ResultSet* out) {
  out->Clear();
  for (const sql::Literal& param : params) {
    if (param.kind == sql::Literal::Kind::kParam) {
      return Status::InvalidArgument(
          "EXECUTE arguments must be literal values, not '?'");
    }
  }
  sql::ExecuteStmt execute;
  execute.name = name;
  execute.args = params;
  obs::TraceScope root_scope(RootTrace(), obs::SpanName::kRequest);
  const std::string text = "EXECUTE " + name;
  SessionStatementScope stmt_scope(session, text);
  return RunStatement(session, text, sql::Statement(std::move(execute)), out);
}

Status Server::ExecDumpFlight(ResultSet* out) {
  DumpSystemView("sys_flight", out);
  const uint64_t lost = obs::FlightRecorder::Global().lost();
  out->messages.push_back(
      "flight recorder: " + std::to_string(out->rows.size()) + " events" +
      (lost != 0 ? ", " + std::to_string(lost) + " lost to thread overflow"
                 : ""));
  return Status::OK();
}

Status Server::ExecExportMetrics(ResultSet* out) {
  out->columns = {"line"};
  const std::string text = metrics_.ExportText();
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    out->rows.AddCell(text, start, end - start);
    out->rows.EndRow();
    start = end + 1;
  }
  return Status::OK();
}

// ------------------------------------------------------------------- DDL ---

Status Server::ExecCreateTable(const sql::CreateTableStmt& stmt) {
  // System-view names are reserved: a table named 'systables' would be
  // shadowed by the built-in view on SELECT but hit by INSERT/DROP, and
  // that split resolution is exactly the inconsistency we refuse to host.
  // Names that merely start with "sys" (syslog, system_config) are fine —
  // the catalog is consulted before the views everywhere.
  if (FindSystemView(stmt.table) != nullptr) {
    return Status::InvalidArgument(
        "'" + ToLower(stmt.table) +
        "' is a reserved system view name; choose another table name");
  }
  std::vector<ColumnDef> columns;
  columns.reserve(stmt.columns.size());
  for (const sql::ColumnSpec& spec : stmt.columns) {
    ColumnDef column;
    column.name = spec.name;
    GRTDB_RETURN_IF_ERROR(types_.Resolve(spec.type_name, &column.type));
    columns.push_back(std::move(column));
  }
  return catalog_.AddTable(
      std::make_unique<Table>(stmt.table, std::move(columns)));
}

Status Server::ExecDropTable(const sql::DropTableStmt& stmt) {
  // Catalog first, views second — the same resolution order SELECT uses.
  // No real table can carry a system-view name (CREATE rejects them), so
  // reaching this branch means the user asked to drop the view itself.
  if (catalog_.FindTable(stmt.table) == nullptr &&
      FindSystemView(stmt.table) != nullptr) {
    return Status::InvalidArgument("'" + ToLower(stmt.table) +
                                   "' is a system view; it cannot be dropped");
  }
  // Indexes on the table must be dropped first (Informix drops them
  // implicitly; we keep it explicit and strict).
  if (!catalog_.IndexesOnTable(stmt.table).empty()) {
    return Status::InvalidArgument("table '" + stmt.table +
                                   "' still has indexes; drop them first");
  }
  return catalog_.DropTable(stmt.table);
}

Status Server::ExecCreateFunction(const sql::CreateFunctionStmt& stmt) {
  UdrDef def;
  def.name = stmt.name;
  for (const std::string& type_name : stmt.arg_types) {
    TypeDesc type;
    GRTDB_RETURN_IF_ERROR(types_.Resolve(type_name, &type));
    def.arg_types.push_back(type);
  }
  GRTDB_RETURN_IF_ERROR(types_.Resolve(stmt.return_type, &def.return_type));
  def.external_name = stmt.external_name;
  def.negator = stmt.negator;
  def.commutator = stmt.commutator;
  GRTDB_RETURN_IF_ERROR(
      blade_libraries_.Resolve(stmt.external_name, &def.symbol));
  return udrs_.Register(std::move(def));
}

Status Server::ExecCreateAccessMethod(
    const sql::CreateAccessMethodStmt& stmt) {
  using F = obs::PurposeFn;
  AccessMethodDef am;
  am.name = stmt.name;
  for (size_t fn = 0; fn < obs::kPurposeFnCount; ++fn) {
    am.purpose_names[fn] = obs::PurposeFnName(static_cast<F>(fn));
  }
  for (const auto& [key_raw, value] : stmt.properties) {
    const std::string key = ToLower(key_raw);
    if (key == "am_sptype") {
      if (value.empty()) {
        return Status::InvalidArgument("empty am_sptype");
      }
      am.sptype = value[0];
      continue;
    }
    const UdrDef* udr = udrs_.FindAny(value);
    if (udr == nullptr) {
      return Status::NotFound("purpose function '" + value +
                              "' is not a registered function");
    }
    // Every other property names the function for one purpose.
    size_t fn = 0;
    while (fn < obs::kPurposeFnCount &&
           key != obs::PurposeFnName(static_cast<F>(fn))) {
      ++fn;
    }
    if (fn == obs::kPurposeFnCount) {
      return Status::InvalidArgument("unknown access-method property '" +
                                     key_raw + "'");
    }
    am.purpose_names[fn] = udr->name;
    PurposeFunctions& h = am.hooks;
    bool bound = false;
    switch (static_cast<F>(fn)) {
      case F::kAmCreate: bound = BindHook(*udr, &h.am_create); break;
      case F::kAmDrop: bound = BindHook(*udr, &h.am_drop); break;
      case F::kAmOpen: bound = BindHook(*udr, &h.am_open); break;
      case F::kAmClose: bound = BindHook(*udr, &h.am_close); break;
      case F::kAmBeginScan: bound = BindHook(*udr, &h.am_beginscan); break;
      case F::kAmEndScan: bound = BindHook(*udr, &h.am_endscan); break;
      case F::kAmRescan: bound = BindHook(*udr, &h.am_rescan); break;
      case F::kAmGetNext: bound = BindHook(*udr, &h.am_getnext); break;
      case F::kAmInsert: bound = BindHook(*udr, &h.am_insert); break;
      case F::kAmDelete: bound = BindHook(*udr, &h.am_delete); break;
      case F::kAmUpdate: bound = BindHook(*udr, &h.am_update); break;
      case F::kAmScanCost: bound = BindHook(*udr, &h.am_scancost); break;
      case F::kAmStats: bound = BindHook(*udr, &h.am_stats); break;
      case F::kAmCheck: bound = BindHook(*udr, &h.am_check); break;
    }
    if (!bound) {
      return Status::InvalidArgument(
          "function '" + value + "' does not have the signature required by " +
          key);
    }
  }
  if (!am.hooks.am_getnext) {
    return Status::InvalidArgument(
        "am_getnext is mandatory for a secondary access method");
  }
  return catalog_.AddAccessMethod(std::move(am));
}

Status Server::ExecCreateOpclass(const sql::CreateOpclassStmt& stmt) {
  AccessMethodDef* am = catalog_.FindAccessMethod(stmt.access_method);
  if (am == nullptr) {
    return Status::NotFound("access method '" + stmt.access_method + "'");
  }
  // Strategy and support functions must be registered UDRs so the
  // optimizer can recognize them in WHERE clauses (paper §4 Step 4).
  for (const std::string& name : stmt.strategies) {
    if (udrs_.FindAny(name) == nullptr) {
      return Status::NotFound("strategy function '" + name +
                              "' is not registered");
    }
  }
  for (const std::string& name : stmt.supports) {
    if (udrs_.FindAny(name) == nullptr) {
      return Status::NotFound("support function '" + name +
                              "' is not registered");
    }
  }
  OpClassDef opclass;
  opclass.name = stmt.name;
  opclass.access_method = stmt.access_method;
  opclass.strategies = stmt.strategies;
  opclass.supports = stmt.supports;
  GRTDB_RETURN_IF_ERROR(catalog_.AddOpClass(std::move(opclass)));
  if (stmt.is_default || am->default_opclass.empty()) {
    am->default_opclass = stmt.name;
  }
  return Status::OK();
}

Status Server::ExecDropIndex(ServerSession* session,
                             const sql::DropIndexStmt& stmt) {
  IndexDef* index = catalog_.FindIndex(stmt.index);
  if (index == nullptr) {
    return Status::NotFound("index '" + stmt.index + "'");
  }
  AccessMethodDef* am = catalog_.FindAccessMethod(index->access_method);
  if (am == nullptr) {
    return Status::Corruption("index references unknown access method");
  }
  StatementRun run;
  GRTDB_RETURN_IF_ERROR(BeginRun(session, &run));
  MiAmTableDesc desc;
  desc.index = index;
  desc.table = catalog_.FindTable(index->table);
  desc.key_columns = index->key_columns;
  desc.key_types = index->key_types;
  desc.am_state = &index->am_state;
  Status status = Status::OK();
  if (am->hooks.am_drop) {
    PurposeCallScope call(this, session, am, obs::PurposeFn::kAmDrop);
    status = am->hooks.am_drop(run.ctx, &desc);
  }
  if (status.ok()) status = catalog_.DropIndex(stmt.index);
  if (status.ok()) {
    // A retained stats report must not outlive its index.
    std::lock_guard<std::mutex> lock(index_stats_mu_);
    index_stats_.erase(ToLower(stmt.index));
  }
  return EndRun(&run, status);
}

Status Server::ExecDropFunction(const sql::DropFunctionStmt& stmt) {
  return udrs_.Unregister(stmt.name);
}

Status Server::ExecDropAccessMethod(const sql::DropAccessMethodStmt& stmt) {
  if (catalog_.FindAccessMethod(stmt.name) == nullptr) {
    return Status::NotFound("access method '" + stmt.name + "'");
  }
  for (const IndexDef* index : catalog_.AllIndexes()) {
    if (EqualsIgnoreCase(index->access_method, stmt.name)) {
      return Status::InvalidArgument("access method '" + stmt.name +
                                     "' is used by index '" + index->name +
                                     "'; drop the index first");
    }
  }
  // Operator classes belong to the access method and go with it.
  for (const OpClassDef* opclass :
       catalog_.OpClassesOfAccessMethod(stmt.name)) {
    GRTDB_RETURN_IF_ERROR(catalog_.DropOpClass(opclass->name));
  }
  return catalog_.DropAccessMethod(stmt.name);
}

Status Server::ExecDropOpclass(const sql::DropOpclassStmt& stmt) {
  if (catalog_.FindOpClass(stmt.name) == nullptr) {
    return Status::NotFound("operator class '" + stmt.name + "'");
  }
  for (const IndexDef* index : catalog_.AllIndexes()) {
    for (const std::string& opclass : index->opclasses) {
      if (EqualsIgnoreCase(opclass, stmt.name)) {
        return Status::InvalidArgument("operator class '" + stmt.name +
                                       "' is used by index '" + index->name +
                                       "'; drop the index first");
      }
    }
  }
  return catalog_.DropOpClass(stmt.name);
}

Status Server::ExecSet(ServerSession* session, const sql::SetStmt& stmt,
                       ResultSet* out) {
  switch (stmt.what) {
    case sql::SetStmt::What::kIsolation: {
      IsolationLevel level;
      if (stmt.argument == "DIRTY") {
        level = IsolationLevel::kDirtyRead;
      } else if (stmt.argument == "COMMITTED") {
        level = IsolationLevel::kCommittedRead;
      } else if (stmt.argument == "REPEATABLE") {
        level = IsolationLevel::kRepeatableRead;
      } else {
        return Status::InvalidArgument("unknown isolation level '" +
                                       stmt.argument + "'");
      }
      session->txn_session().set_isolation(level);
      return Status::OK();
    }
    case sql::SetStmt::What::kExplain:
      if (stmt.argument == "ON") {
        session->set_explain(true);
      } else if (stmt.argument == "OFF") {
        session->set_explain(false);
      } else {
        return Status::InvalidArgument("SET EXPLAIN expects ON or OFF");
      }
      return Status::OK();
    case sql::SetStmt::What::kCurrentTime: {
      if (stmt.value.kind == sql::Literal::Kind::kInteger) {
        current_time_ = stmt.value.integer;
      } else if (stmt.value.kind == sql::Literal::Kind::kString) {
        int64_t day = 0;
        GRTDB_RETURN_IF_ERROR(ParseDate(stmt.value.text, &day));
        current_time_ = day;
      } else {
        return Status::InvalidArgument(
            "SET CURRENT_TIME expects an integer or a date string");
      }
      out->messages.push_back("current time set to " +
                              FormatDate(current_time_));
      return Status::OK();
    }
    case sql::SetStmt::What::kTimeMode:
      if (stmt.argument == "STATEMENT") {
        session->set_time_mode(CurrentTimeMode::kPerStatement);
      } else if (stmt.argument == "TRANSACTION") {
        session->set_time_mode(CurrentTimeMode::kPerTransaction);
      } else {
        return Status::InvalidArgument(
            "SET TIME MODE expects STATEMENT or TRANSACTION");
      }
      return Status::OK();
    case sql::SetStmt::What::kTrace:
      if (stmt.value.kind != sql::Literal::Kind::kInteger) {
        return Status::InvalidArgument("SET TRACE expects an integer level");
      }
      trace_.SetClass(stmt.argument,
                      static_cast<int>(stmt.value.integer));
      return Status::OK();
    case sql::SetStmt::What::kSlowQueryNs:
      if (stmt.value.kind != sql::Literal::Kind::kInteger ||
          stmt.value.integer < 0) {
        return Status::InvalidArgument(
            "SET SLOW_QUERY_NS expects a non-negative integer (0 disables)");
      }
      slow_query_log_.set_threshold_ns(
          static_cast<uint64_t>(stmt.value.integer));
      out->messages.push_back(
          stmt.value.integer == 0
              ? "slow-query log disabled"
              : "slow-query threshold set to " +
                    std::to_string(stmt.value.integer) + " ns");
      return Status::OK();
    case sql::SetStmt::What::kTraceSample:
      if (stmt.value.kind != sql::Literal::Kind::kInteger ||
          stmt.value.integer < 0) {
        return Status::InvalidArgument(
            "SET TRACE_SAMPLE expects a non-negative integer (0 disables)");
      }
      span_tracer_.set_sample_every(
          static_cast<uint32_t>(stmt.value.integer));
      out->messages.push_back(
          stmt.value.integer == 0
              ? "request tracing disabled"
              : "tracing 1 in " + std::to_string(stmt.value.integer) +
                    " requests");
      return Status::OK();
    case sql::SetStmt::What::kHeatTrack:
      if (stmt.value.kind != sql::Literal::Kind::kInteger ||
          (stmt.value.integer != 0 && stmt.value.integer != 1)) {
        return Status::InvalidArgument("SET HEAT_TRACK expects 0 or 1");
      }
      heat_tracker_.set_enabled(stmt.value.integer != 0);
      out->messages.push_back(stmt.value.integer != 0
                                  ? "heat tracking enabled"
                                  : "heat tracking disabled");
      return Status::OK();
  }
  return Status::Internal("bad SET statement");
}

Status Server::ExecCheckIndex(ServerSession* session,
                              const sql::CheckIndexStmt& stmt,
                              ResultSet* out) {
  IndexDef* index = catalog_.FindIndex(stmt.index);
  if (index == nullptr) {
    return Status::NotFound("index '" + stmt.index + "'");
  }
  AccessMethodDef* am = catalog_.FindAccessMethod(index->access_method);
  if (am == nullptr || !am->hooks.am_check) {
    return Status::NotSupported("access method provides no am_check");
  }
  StatementRun run;
  GRTDB_RETURN_IF_ERROR(BeginRun(session, &run));
  OpenIndex* open = nullptr;
  Status status = LockTable(session, index->table, LockMode::kShared);
  if (status.ok()) status = OpenIndexDesc(&run, index, &open);
  if (status.ok()) {
    PurposeCallScope call(this, session, am, obs::PurposeFn::kAmCheck);
    status = am->hooks.am_check(run.ctx, &open->desc);
  }
  GRTDB_RETURN_IF_ERROR(EndRun(&run, status));
  out->messages.push_back("index '" + stmt.index + "' is consistent");
  return Status::OK();
}

Status Server::RunIndexStats(StatementRun* run, IndexDef* index,
                             ResultSet* out) {
  AccessMethodDef* am = catalog_.FindAccessMethod(index->access_method);
  if (am == nullptr || !am->hooks.am_stats) {
    return Status::NotSupported("access method provides no am_stats");
  }
  OpenIndex* open = nullptr;
  GRTDB_RETURN_IF_ERROR(
      LockTable(run->ctx.session, index->table, LockMode::kShared));
  GRTDB_RETURN_IF_ERROR(OpenIndexDesc(run, index, &open));
  {
    PurposeCallScope call(this, run->ctx.session, am,
                          obs::PurposeFn::kAmStats);
    GRTDB_RETURN_IF_ERROR(am->hooks.am_stats(run->ctx, &open->desc));
  }
  out->messages.push_back("statistics updated for index '" + index->name +
                          "'");
  return Status::OK();
}

Status Server::ExecUpdateStatistics(ServerSession* session,
                                    const sql::UpdateStatisticsStmt& stmt,
                                    ResultSet* out) {
  std::vector<IndexDef*> targets;
  if (stmt.index.empty()) {
    // Bare UPDATE STATISTICS: every index whose access method implements
    // am_stats (the others are skipped, not errors).
    for (const IndexDef* index : catalog_.AllIndexes()) {
      const AccessMethodDef* am =
          catalog_.FindAccessMethod(index->access_method);
      if (am != nullptr && am->hooks.am_stats) {
        targets.push_back(catalog_.FindIndex(index->name));
      }
    }
  } else {
    IndexDef* index = catalog_.FindIndex(stmt.index);
    if (index == nullptr) {
      return Status::NotFound("index '" + stmt.index + "'");
    }
    targets.push_back(index);
  }
  StatementRun run;
  GRTDB_RETURN_IF_ERROR(BeginRun(session, &run));
  Status status = Status::OK();
  for (IndexDef* index : targets) {
    status = RunIndexStats(&run, index, out);
    if (!status.ok()) break;
  }
  if (status.ok() && stmt.index.empty()) {
    out->messages.push_back("statistics updated for " +
                            std::to_string(targets.size()) + " index(es)");
  }
  return EndRun(&run, status);
}

// ------------------------------------------------- purpose-fn plumbing ---

Status Server::OpenIndexDesc(StatementRun* run, IndexDef* index,
                             OpenIndex** out, bool just_created) {
  for (const std::unique_ptr<OpenIndex>& open : run->opens) {
    if (open->index == index) {
      *out = open.get();
      return Status::OK();
    }
  }
  AccessMethodDef* am = catalog_.FindAccessMethod(index->access_method);
  if (am == nullptr) {
    return Status::Corruption("index '" + index->name +
                              "' references unknown access method");
  }
  auto open = std::make_unique<OpenIndex>();
  open->index = index;
  open->am = am;
  open->desc.index = index;
  open->desc.table = catalog_.FindTable(index->table);
  open->desc.key_columns = index->key_columns;
  open->desc.key_types = index->key_types;
  open->desc.just_created = just_created;
  open->desc.am_state = &index->am_state;
  if (am->hooks.am_open) {
    PurposeCallScope call(this, run->ctx.session, am, obs::PurposeFn::kAmOpen);
    GRTDB_RETURN_IF_ERROR(am->hooks.am_open(run->ctx, &open->desc));
  }
  *out = open.get();
  run->opens.push_back(std::move(open));
  return Status::OK();
}

Status Server::OpenTableIndexes(StatementRun* run, const std::string& table) {
  for (IndexDef* index : catalog_.IndexesOnTable(table)) {
    OpenIndex* open = nullptr;
    GRTDB_RETURN_IF_ERROR(OpenIndexDesc(run, index, &open));
  }
  return Status::OK();
}

Status Server::CloseIndexes(StatementRun* run, Status status) {
  for (const std::unique_ptr<OpenIndex>& open : run->opens) {
    if (!open->am->hooks.am_close) continue;
    Status close;
    {
      PurposeCallScope call(this, run->ctx.session, open->am,
                            obs::PurposeFn::kAmClose);
      close = open->am->hooks.am_close(run->ctx, &open->desc);
    }
    if (close.ok()) continue;
    status = status.ok()
                 ? close
                 : status.WithNote("am_close failed: " + close.message());
  }
  run->opens.clear();
  return status;
}

Row Server::KeyRowFor(const MiAmTableDesc& desc, const Row& base_row) const {
  Row key_row;
  key_row.reserve(desc.key_columns.size());
  for (int column : desc.key_columns) {
    key_row.push_back(base_row[static_cast<size_t>(column)]);
  }
  return key_row;
}

Status Server::ExecCreateIndex(ServerSession* session,
                               const sql::CreateIndexStmt& stmt,
                               ResultSet* out) {
  Table* table = catalog_.FindTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt.table + "'");
  }
  AccessMethodDef* am = catalog_.FindAccessMethod(stmt.access_method);
  if (am == nullptr) {
    return Status::NotFound("access method '" + stmt.access_method + "'");
  }
  if (stmt.columns.size() != 1) {
    // §5.1: qualification descriptors accommodate only single-column
    // predicates, so virtual indexes are single-column here.
    return Status::NotSupported(
        "virtual indexes support exactly one key column");
  }

  IndexDef index;
  index.name = stmt.name;
  index.table = stmt.table;
  index.access_method = stmt.access_method;
  index.space = stmt.space.empty() ? "default" : stmt.space;
  if (FindSbspace(index.space) == nullptr) {
    return Status::NotFound("sbspace '" + index.space +
                            "' (create it with onspaces/CreateSbspace)");
  }
  for (const auto& [column, opclass_name] : stmt.columns) {
    const int column_index = table->ColumnIndex(column);
    if (column_index < 0) {
      return Status::NotFound("column '" + column + "' in table '" +
                              stmt.table + "'");
    }
    std::string opclass = opclass_name;
    if (opclass.empty()) opclass = am->default_opclass;
    if (opclass.empty()) {
      return Status::InvalidArgument(
          "no operator class given and access method has no default");
    }
    const OpClassDef* opclass_def = catalog_.FindOpClass(opclass);
    if (opclass_def == nullptr) {
      return Status::NotFound("operator class '" + opclass + "'");
    }
    if (!EqualsIgnoreCase(opclass_def->access_method, stmt.access_method)) {
      return Status::InvalidArgument("operator class '" + opclass +
                                     "' belongs to access method '" +
                                     opclass_def->access_method + "'");
    }
    index.columns.push_back(column);
    index.opclasses.push_back(opclass);
    index.key_columns.push_back(column_index);
    index.key_types.push_back(table->columns()[column_index].type);
  }

  GRTDB_RETURN_IF_ERROR(catalog_.AddIndex(index));
  IndexDef* stored = catalog_.FindIndex(stmt.name);

  StatementRun run;
  GRTDB_RETURN_IF_ERROR(BeginRun(session, &run));

  // am_create, then am_open (which sees just_created, Table 5 step 1),
  // then a build pass inserting the existing rows, then am_close.
  MiAmTableDesc create_desc;
  create_desc.index = stored;
  create_desc.table = table;
  create_desc.key_columns = stored->key_columns;
  create_desc.key_types = stored->key_types;
  create_desc.am_state = &stored->am_state;
  bool created = false;

  auto fail = [&](Status status) {
    // Cleanup failures never mask the build error, but they must not
    // vanish either: a half-registered index poisons every retry of the
    // same CREATE INDEX, so the caller hears about it in the same status.
    // Once am_create succeeded, am_drop frees what it made: the index's
    // LOs or file and log, and its AM catalog record.
    if (created && am->hooks.am_drop) {
      PurposeCallScope call(this, session, am, obs::PurposeFn::kAmDrop);
      Status freed = am->hooks.am_drop(run.ctx, &create_desc);
      if (!freed.ok()) {
        status = status.WithNote("am_drop failed: " + freed.message());
      }
    }
    Status dropped = catalog_.DropIndex(stmt.name);
    if (!dropped.ok()) {
      status = status.WithNote("cleanup failed: " + dropped.message());
    }
    return EndRun(&run, status);
  };

  if (am->hooks.am_create) {
    Status status;
    {
      PurposeCallScope call(this, session, am, obs::PurposeFn::kAmCreate);
      status = am->hooks.am_create(run.ctx, &create_desc);
    }
    if (!status.ok()) return fail(status);
    created = true;
  }
  OpenIndex* open = nullptr;
  Status status = OpenIndexDesc(&run, stored, &open, /*just_created=*/true);
  if (!status.ok()) return fail(status);
  // The descriptor created by am_create carries the blade's Tree object;
  // keep it (Informix passes the same descriptor to the following calls).
  // am_close releases it from there; a failed build's am_drop opens anew.
  open->desc.user_data = std::exchange(create_desc.user_data, nullptr);
  if (am->hooks.am_insert) {
    // The callback stops the scan on an insert error and parks it in
    // `status`; Scan's own (traversal) error must not overwrite it.
    Status scan = table->Scan([&](RecordId id, const Row& row) {
      Row key_row = KeyRowFor(open->desc, row);
      PurposeCallScope call(this, session, am, obs::PurposeFn::kAmInsert);
      Status insert_status =
          am->hooks.am_insert(run.ctx, &open->desc, key_row, id.Pack());
      if (!insert_status.ok()) {
        status = insert_status;
        return false;
      }
      return true;
    });
    if (status.ok()) status = scan;
  }
  status = CloseIndexes(&run, status);
  if (!status.ok()) return fail(status);

  GRTDB_RETURN_IF_ERROR(EndRun(&run, Status::OK()));
  out->messages.push_back("index '" + stmt.name + "' created using " +
                          stmt.access_method);
  return Status::OK();
}

}  // namespace grtdb
