#ifndef GRTDB_SERVER_SERVER_H_
#define GRTDB_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "blade/library.h"
#include "blade/mi_memory.h"
#include "blade/trace.h"
#include "common/status.h"
#include "common/strings.h"
#include "obs/heat_tracker.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "obs/slow_query_log.h"
#include "obs/span_tracer.h"
#include "server/catalog.h"
#include "server/plan_cache.h"
#include "server/index_stats.h"
#include "server/result.h"
#include "server/types.h"
#include "server/udr.h"
#include "server/vii.h"
#include "sql/ast.h"
#include "storage/sbspace.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"

namespace grtdb {

// Whether a DataBlade should resolve UC/NOW with a per-statement or a
// per-transaction current time (paper §5.4).
enum class CurrentTimeMode { kPerStatement, kPerTransaction };

// A client session: transaction state plus server-side session settings,
// the session's duration-scoped allocator, and the last statement's
// profile (whose purpose-call record tests and bench T2 read).
class ServerSession {
 public:
  explicit ServerSession(SessionId id) : session_(id) {}

  ServerSession(const ServerSession&) = delete;
  ServerSession& operator=(const ServerSession&) = delete;

  Session& txn_session() { return session_; }
  SessionId id() const { return session_.id(); }

  // The session's duration-scoped allocator (§6.2). Durations are a
  // *session-lifetime* concept: PER_STATEMENT memory dies with this
  // session's statement, not with whichever statement finishes first
  // server-wide. Two sessions executing concurrently therefore must not
  // share an arena — each ends its own durations on its own allocator.
  MiMemory& memory() { return memory_; }

  bool explain() const { return explain_; }
  void set_explain(bool on) { explain_ = on; }

  CurrentTimeMode time_mode() const { return time_mode_; }
  void set_time_mode(CurrentTimeMode mode) { time_mode_ = mode; }

  // The most recent statement's execution profile (reset per statement).
  obs::QueryProfile& profile() { return profile_; }
  // That statement's purpose-function calls in order ("grt_open",
  // "grt_insert", ...), one entry per call of the profile's runs.
  std::vector<std::string> purpose_log() const {
    std::vector<std::string> log;
    for (const obs::PurposeRun& run : profile_.runs()) {
      log.insert(log.end(), run.count, run.name);
    }
    return log;
  }

  // The µs of `fn`'s timed calls this session made since the server last
  // folded them into the registry's vii.<fn>.calls and vii.<fn>.us (at the
  // end of every statement).
  obs::HistogramTally& purpose_tally(obs::PurposeFn fn) {
    return purpose_tally_[static_cast<size_t>(fn)];
  }

  // ---- prepared statements ---------------------------------------------
  // A session-local handle onto the server-wide plan cache. Only text keys
  // are stored — never plan pointers — so DDL invalidating the cache can
  // never leave a handle dangling; the next EXECUTE simply re-parses.
  struct PreparedHandle {
    std::string name;       // as PREPAREd (original case)
    std::string sql;        // inner statement text
    size_t param_count = 0;
  };
  // The handle map is guarded because sys_prepared reads every session's
  // handles from whichever session materializes the view.
  void PutPrepared(PreparedHandle handle) {
    std::lock_guard<std::mutex> lock(prepared_mu_);
    prepared_[ToLower(handle.name)] = std::move(handle);
  }
  bool GetPrepared(const std::string& name, PreparedHandle* out) const {
    std::lock_guard<std::mutex> lock(prepared_mu_);
    auto it = prepared_.find(ToLower(name));
    if (it == prepared_.end()) return false;
    *out = it->second;
    return true;
  }
  bool ErasePrepared(const std::string& name) {
    std::lock_guard<std::mutex> lock(prepared_mu_);
    return prepared_.erase(ToLower(name)) != 0;
  }
  std::vector<PreparedHandle> AllPrepared() const {
    std::lock_guard<std::mutex> lock(prepared_mu_);
    std::vector<PreparedHandle> out;
    out.reserve(prepared_.size());
    for (const auto& [key, handle] : prepared_) out.push_back(handle);
    return out;
  }

  // Parameter bindings and the active cached plan for the statement this
  // session is currently executing. Only the session's own thread touches
  // them (a session is single-threaded by contract), so no lock.
  const std::vector<sql::Literal>* bound_params() const {
    return bound_params_;
  }
  void set_bound_params(const std::vector<sql::Literal>* params) {
    bound_params_ = params;
  }
  CachedPlan* active_plan() const { return active_plan_; }
  void set_active_plan(CachedPlan* plan) { active_plan_ = plan; }

  // ---- live-session view (sys_sessions) --------------------------------
  // A mirror of "what is this session doing right now", written by the
  // owning thread at statement boundaries (and by the net front end at
  // connect time) and read cross-thread by whichever session materializes
  // sys_sessions — hence the mutex. The transaction id is mirrored here
  // because txn_session() may only be touched from the owning thread.
  struct SessionInfo {
    std::string peer;       // "host:port", empty for embedded sessions
    bool active = false;    // currently inside a statement
    std::string statement;  // current (active) or last finished SQL
    uint64_t trace_id = 0;  // that statement's trace id (0 = unsampled)
    TxnId txn = 0;          // open transaction at the last boundary
    bool explicit_txn = false;
    uint64_t statements = 0;  // statements started on this session
  };
  void set_peer(const std::string& peer) {
    std::lock_guard<std::mutex> lock(info_mu_);
    info_.peer = peer;
  }
  // Statement boundaries nest: EXPLAIN PROFILE / EXECUTE re-enter the
  // execution path for their inner statement, and the view should keep
  // showing the outermost text until the whole request finishes.
  void BeginStatement(const std::string& sql, uint64_t trace_id) {
    std::lock_guard<std::mutex> lock(info_mu_);
    if (++stmt_depth_ == 1) {
      info_.statement = sql;
      info_.trace_id = trace_id;
      ++info_.statements;
    }
    info_.active = true;
    MirrorTxnLocked();
  }
  void EndStatement() {
    std::lock_guard<std::mutex> lock(info_mu_);
    if (stmt_depth_ > 0 && --stmt_depth_ == 0) info_.active = false;
    MirrorTxnLocked();
  }
  SessionInfo info() const {
    std::lock_guard<std::mutex> lock(info_mu_);
    return info_;
  }

 private:
  // Requires info_mu_; called from the owning thread only (statement
  // boundaries), which makes the current_txn() read safe.
  void MirrorTxnLocked() {
    const Transaction* txn = session_.current_txn();
    info_.txn = txn != nullptr ? txn->id() : 0;
    info_.explicit_txn = session_.in_explicit_txn();
  }

  Session session_;
  MiMemory memory_;
  bool explain_ = false;
  CurrentTimeMode time_mode_ = CurrentTimeMode::kPerStatement;
  obs::QueryProfile profile_;
  obs::HistogramTally purpose_tally_[obs::kPurposeFnCount];
  mutable std::mutex prepared_mu_;
  std::map<std::string, PreparedHandle> prepared_;  // lower-cased name
  const std::vector<sql::Literal>* bound_params_ = nullptr;
  CachedPlan* active_plan_ = nullptr;
  mutable std::mutex info_mu_;
  SessionInfo info_;
  uint32_t stmt_depth_ = 0;  // statement-boundary nesting (info_mu_)
};

// Buffer-pool frames per sbspace created with CreateSbspace.
inline constexpr size_t kSbspacePoolPages = 512;
// The simulation clock's start (chronons = days since 1970-01-01).
inline constexpr int64_t kInitialTime = 10000;

struct ServerOptions {
  std::chrono::milliseconds lock_timeout{500};
  // Wires subsystem counters into the metrics registry and times purpose
  // functions. Off leaves only the per-statement call counts (needed by
  // EXPLAIN PROFILE cross-checks) — the configuration bench_obs_overhead
  // compares against.
  bool observability = true;
  // Span-tracer ring capacity (finished request spans kept for sys_spans /
  // DUMP TRACE; the driver's tail-attribution phase sizes this up).
  size_t span_capacity = obs::SpanTracer::kDefaultCapacity;
};

// The extensible database server: catalog, SQL execution, the Virtual
// Index Interface, and the DataBlade services (duration memory, named
// memory, trace, blade libraries, sbspaces). The substitute for the
// Informix Dynamic Server with Universal Data Option (see DESIGN.md).
class Server {
 public:
  explicit Server(const ServerOptions& options = ServerOptions());
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // ---- infrastructure the DataBlade API exposes -------------------------
  TypeRegistry& types() { return types_; }
  UdrRegistry& udrs() { return udrs_; }
  BladeLibraryRegistry& blade_libraries() { return blade_libraries_; }
  // The server-lifetime allocator. Statement/transaction/session durations
  // belong to a *session* (ServerSession::memory()) — this arena is only
  // for allocations that genuinely outlive every session, and no duration
  // is ever ended on it by the execution path.
  MiMemory& memory() { return memory_; }
  MiNamedMemory& named_memory() { return named_memory_; }
  TraceFacility& trace() { return trace_; }
  LockManager& lock_manager() { return lock_manager_; }
  TransactionManager& txn_manager() { return txn_manager_; }
  Catalog& catalog() { return catalog_; }

  // ---- observability ----------------------------------------------------
  obs::MetricsRegistry& metrics() { return metrics_; }
  bool observability_enabled() const { return options_.observability; }
  // Statements slower than SET SLOW_QUERY_NS land here with their profile.
  obs::SlowQueryLog& slow_query_log() { return slow_query_log_; }
  // The request-span tracer (SET TRACE_SAMPLE, sys_spans, DUMP TRACE).
  obs::SpanTracer& span_tracer() { return span_tracer_; }
  // Per-node access heat (SET HEAT_TRACK, sys_hot_nodes, DUMP HEAT). The
  // blades wire each index's node cache into this tracker at open time;
  // with the gate off — the default — every touch is one relaxed load.
  obs::HeatTracker& heat_tracker() { return heat_tracker_; }

  // ---- index-health telemetry (am_stats side channel) -------------------
  // Blades report their walker's numbers here from inside am_stats; the
  // latest report per index feeds sys_index_stats and am_scancost.
  void ReportIndexStats(IndexStatsReport report);
  bool GetIndexStats(const std::string& index, IndexStatsReport* out) const;
  std::vector<IndexStatsReport> AllIndexStats() const;

  // ---- simulation clock (granularity: days, §5.1) -----------------------
  // Atomic: sessions executing concurrently all read it, and SET
  // CURRENT_TIME runs under the shared statement gate.
  int64_t current_time() const {
    return current_time_.load(std::memory_order_relaxed);
  }
  void set_current_time(int64_t ct) {
    current_time_.store(ct, std::memory_order_relaxed);
  }
  void AdvanceTime(int64_t days) {
    current_time_.fetch_add(days, std::memory_order_relaxed);
  }

  // ---- storage spaces ("onspaces", §4 Step 5) ---------------------------
  Status CreateSbspace(const std::string& name);
  Sbspace* FindSbspace(const std::string& name);

  // ---- the access method's associated catalog table (Table 5: records of
  // index id, fragment id, and BLOB handle) ------------------------------
  Status AmCatalogPut(const std::string& am, const std::string& index,
                      std::vector<uint8_t> record);
  Status AmCatalogGet(const std::string& am, const std::string& index,
                      std::vector<uint8_t>* record);
  Status AmCatalogDelete(const std::string& am, const std::string& index);

  // ---- sessions and execution ------------------------------------------
  // Sessions may execute concurrently, one thread per session (the net
  // front end drives exactly that shape). A single session is not
  // thread-safe: its statements must be issued from one thread at a time.
  ServerSession* CreateSession();
  // Rolls back any open transaction, ends the session's remaining memory
  // durations (on that session's allocator only), and destroys it. Closing
  // a session this server does not own is NotFound and mutates nothing.
  Status CloseSession(ServerSession* session);

  // Executes one statement.
  Status Execute(ServerSession* session, const std::string& sql,
                 ResultSet* out);
  // Executes a ;-separated script, stopping at the first error; `out`
  // holds the last statement's result. Per-statement durations are ended
  // after every statement, including the one that failed.
  Status ExecuteScript(ServerSession* session, const std::string& script,
                       ResultSet* out);
  // Runs a blade's registration script (CREATE FUNCTION, CREATE
  // SECONDARY ACCESS_METHOD, CREATE OPCLASS, ...) in a session of its own,
  // closed afterwards.
  Status RunRegistrationScript(const std::string& script);

  // ---- prepared statements (wire-level entry points) --------------------
  // Same contracts as Execute (statement gate, slow-query retention,
  // per-statement duration teardown); these are what the kPrepare /
  // kExecutePrepared opcodes call, and the SQL-level PREPARE / EXECUTE
  // statements go through the same Exec* internals.
  Status Prepare(ServerSession* session, const std::string& name,
                 const std::string& sql, ResultSet* out);
  Status ExecutePrepared(ServerSession* session, const std::string& name,
                         const std::vector<sql::Literal>& params,
                         ResultSet* out);

  // The shared statement/plan cache (exposed for tests and tools).
  PlanCache& plan_cache() { return plan_cache_; }

  // Renders a value using opaque output support functions.
  std::string RenderValue(const Value& value) const;

 private:
  // One system view: its name (reserved: CREATE TABLE rejects it), its
  // columns in order, and the function that reads its rows from live
  // server state. Views are read-only snapshots materialized per statement.
  struct SystemView {
    const char* name;
    std::vector<ColumnDef> columns;
    void (*fill)(Server& server, std::vector<Row>* rows);
  };

  // Every system view, in listing order (system_views.cc): the catalogs
  // the CREATE statements populate (paper §4 Step 6 names SYSAMS and
  // SYSINDICES) followed by the sys_* observability views.
  static const std::vector<SystemView>& SystemViews();
  // The view named `name` (case-insensitive), or nullptr.
  static const SystemView* FindSystemView(const std::string& name);
  std::unique_ptr<Table> BuildSystemTable(const SystemView& view);
  // The plain DUMP forms: every row of the named view, rendered exactly as
  // SELECT * renders it.
  void DumpSystemView(const char* name, ResultSet* out);
  // The error for INSERT/DELETE/UPDATE on a name with no user table:
  // system views are read-only, anything else does not exist.
  static Status NoWritableTable(const std::string& name);

  // The server-side state of one opened virtual index (between the am_open
  // and am_close of a statement).
  struct OpenIndex {
    IndexDef* index = nullptr;
    AccessMethodDef* am = nullptr;
    MiAmTableDesc desc;
  };

  // One statement's run, from BeginRun to EndRun: its call context,
  // whether its transaction was opened for it, and the indexes it has
  // opened, in open order. A statement opens each virtual index once (Fig.
  // 6, Table 5): the planner's am_scancost probe, the scan and every row of
  // an INSERT or LOAD share that open, which §5.3 makes the unit of LO
  // locking.
  struct StatementRun {
    MiCallContext ctx;
    bool implicit_txn = false;
    std::vector<std::unique_ptr<OpenIndex>> opens;
  };

  Status ExecuteStatement(ServerSession* session, const sql::Statement& stmt,
                          ResultSet* out);
  // The envelope Execute, ExecuteScript, Prepare and ExecutePrepared run
  // each parsed statement in: opens the statement-scoped durations, runs
  // ExecuteStatement, offers the statement to slow-query retention under
  // `text`, and ends the durations whatever the outcome. A failed
  // statement's rows are dropped; its messages are kept. Then it folds
  // the session's purpose-call tally into the registry.
  Status RunStatement(ServerSession* session, const std::string& text,
                      const sql::Statement& stmt, ResultSet* out);
  // Adds the session's purpose-call tally to vii.<fn>.calls and
  // vii.<fn>.us, and clears it.
  void FoldPurposeTally(ServerSession* session);
  // The trace a request entry point roots: none when one is already
  // installed on this thread (the net front end roots at frame arrival;
  // EXPLAIN TRACE roots its own), else the sampler's decision.
  obs::TraceHandle RootTrace();
  // Starts `run` for the session: its call context at the current time,
  // and a transaction when the session has none open.
  Status BeginRun(ServerSession* session, StatementRun* run);
  // Ends `run`: CloseIndexes, then the transaction BeginRun opened, if it
  // did — committed when `status` is OK, else rolled back — and its
  // per-transaction duration. Returns `status` (a failed rollback noted on
  // it), or the first failed close or the commit's error when the
  // statement itself succeeded.
  Status EndRun(StatementRun* run, Status status);

  // Plan-cache fetch with hit/miss accounting.
  Status GetCachedPlan(const std::string& sql,
                       std::shared_ptr<CachedPlan>* out);

  Status ExecCreateTable(const sql::CreateTableStmt& stmt);
  Status ExecDropTable(const sql::DropTableStmt& stmt);
  Status ExecCreateFunction(const sql::CreateFunctionStmt& stmt);
  Status ExecCreateAccessMethod(const sql::CreateAccessMethodStmt& stmt);
  Status ExecCreateOpclass(const sql::CreateOpclassStmt& stmt);
  Status ExecCreateIndex(ServerSession* session,
                         const sql::CreateIndexStmt& stmt, ResultSet* out);
  Status ExecDropIndex(ServerSession* session, const sql::DropIndexStmt& stmt);
  Status ExecDropFunction(const sql::DropFunctionStmt& stmt);
  Status ExecDropAccessMethod(const sql::DropAccessMethodStmt& stmt);
  Status ExecDropOpclass(const sql::DropOpclassStmt& stmt);
  Status ExecInsert(ServerSession* session, const sql::InsertStmt& stmt,
                    ResultSet* out);
  Status ExecSelect(ServerSession* session, const sql::SelectStmt& stmt,
                    ResultSet* out);
  Status ExecDelete(ServerSession* session, const sql::DeleteStmt& stmt,
                    ResultSet* out);
  Status ExecUpdate(ServerSession* session, const sql::UpdateStmt& stmt,
                    ResultSet* out);
  Status ExecSet(ServerSession* session, const sql::SetStmt& stmt,
                 ResultSet* out);
  Status ExecCheckIndex(ServerSession* session,
                        const sql::CheckIndexStmt& stmt, ResultSet* out);
  Status ExecUpdateStatistics(ServerSession* session,
                              const sql::UpdateStatisticsStmt& stmt,
                              ResultSet* out);
  // Runs am_stats on the run's open of `index`.
  Status RunIndexStats(StatementRun* run, IndexDef* index, ResultSet* out);
  Status ExecDumpFlight(ResultSet* out);
  Status ExecDumpTrace(const sql::DumpTraceStmt& stmt, ResultSet* out);
  Status ExecDumpHeat(const sql::DumpHeatStmt& stmt, ResultSet* out);
  Status ExecExportMetrics(ResultSet* out);
  Status ExecLoad(ServerSession* session, const sql::LoadStmt& stmt,
                  ResultSet* out);
  Status ExecExplainProfile(ServerSession* session,
                            const sql::ExplainProfileStmt& stmt,
                            ResultSet* out);
  Status ExecExplainTrace(ServerSession* session,
                          const sql::ExplainTraceStmt& stmt, ResultSet* out);
  Status ExecPrepare(ServerSession* session, const sql::PrepareStmt& stmt,
                     ResultSet* out);
  Status ExecExecute(ServerSession* session, const sql::ExecuteStmt& stmt,
                     ResultSet* out);
  Status ExecDeallocate(ServerSession* session,
                        const sql::DeallocateStmt& stmt, ResultSet* out);
  // The insert path of INSERT and LOAD: one run, one X lock on `table` and
  // one open of each of its indexes span the statement. `produce` hands
  // each row to the sink it is given, which puts it into the table, then
  // into every index (Fig. 6(a): am_open, am_insert per row, am_close).
  using RowSink = std::function<Status(Row row)>;
  Status InsertRows(ServerSession* session, Table* table,
                    const std::function<Status(const RowSink&)>& produce,
                    ResultSet* out);
  Status ExecUnload(ServerSession* session, const sql::UnloadStmt& stmt,
                    ResultSet* out);

  // Literal -> Value coercion against a column/argument type.
  Status CoerceLiteral(const sql::Literal& literal, const TypeDesc& type,
                       Value* out) const;

  // Resolves a kParam literal against the session's current bindings;
  // passes every other literal through. `*out` points either at `literal`
  // or into the session's binding vector.
  Status ResolveParam(const ServerSession* session,
                      const sql::Literal& literal,
                      const sql::Literal** out) const;

  // WHERE evaluation on a row (UDF calls go through the UDR registry).
  Status EvaluateExpr(MiCallContext& ctx, const sql::Expr& expr,
                      const Table& table, const Row& row, Value* out);
  // Whether `row` satisfies `expr` (a null expr: every row); a result that
  // is not boolean true does not.
  Status RowMatches(MiCallContext& ctx, const sql::Expr* expr,
                    const Table& table, const Row& row, bool* matches);

  // Query planning: find an index whose opclass strategy functions cover
  // top-level AND conjuncts of `where` on the indexed column.
  struct Plan {
    bool use_index = false;
    IndexDef* index = nullptr;
    MiAmQualDesc qual;
    // Conjuncts not handled by the index (evaluated on fetched rows);
    // pointers into the WHERE tree.
    std::vector<const sql::Expr*> residual;
    double index_cost = 0.0;
    double seq_cost = 0.0;
  };
  // PlanQuery = ComputePlanMemo + BindPlanMemo. The memo carries the
  // parameter-independent decision (index, resolved strategy UDRs,
  // residual pointers, costs); binding re-coerces the constants, which is
  // where `?` parameters pick up their per-execution values. A session
  // executing a cached plan (active_plan() set) skips the compute step
  // after the first execution. The am_scancost probe runs on the run's
  // open of each candidate index, which the scan then uses.
  Status PlanQuery(StatementRun* run, Table* table, const sql::Expr* where,
                   Plan* plan);
  Status ComputePlanMemo(StatementRun* run, Table* table,
                         const sql::Expr* where, PlanMemo* memo);
  Status BindPlanMemo(ServerSession* session, const PlanMemo& memo,
                      Plan* plan);

  // Takes `table`'s lock in `mode` for the session's transaction, to its
  // end: S to read the table or any index on it, X to write either. No
  // reader of an index overlaps a writer of it, which keeps the index's
  // one shared node cache coherent.
  Status LockTable(ServerSession* session, const std::string& table,
                   LockMode mode);

  // Purpose-function plumbing (Fig. 6 call sequences). The only callers of
  // am_open and am_close: OpenIndexDesc gives the run's open of `index`,
  // calling am_open on first use only (`just_created` for CREATE INDEX's
  // open of what am_create made); OpenTableIndexes opens every index on
  // `table`, which a write maintains.
  Status OpenIndexDesc(StatementRun* run, IndexDef* index, OpenIndex** out,
                       bool just_created = false);
  Status OpenTableIndexes(StatementRun* run, const std::string& table);
  // The close pass: am_close on every index the run opened, in open order,
  // which empties its set. Returns `status` if it failed, else the first
  // failed close; each later close failure is noted on what it returns.
  Status CloseIndexes(StatementRun* run, Status status);
  Row KeyRowFor(const MiAmTableDesc& desc, const Row& base_row) const;

  // The two scan loops. A scan hands each row it yields to a RowVisitor;
  // an error the visitor returns stops the scan and is the scan's result.
  using RowVisitor = std::function<Status(RecordId, const Row&)>;
  // Fig. 6(b) on an opened index, for SELECT and DELETE: am_beginscan,
  // am_getnext until the index is exhausted, then am_endscan whatever the
  // outcome. Every fetched row counts as scanned; it is visited when it
  // passes the plan's residual conjuncts.
  Status IndexScan(MiCallContext& ctx, OpenIndex* open, const Table& table,
                   const Plan& plan, const RowVisitor& visit);
  // The sequential scan, for SELECT, DELETE, UPDATE and UNLOAD: every row
  // counts as scanned; it is visited when it satisfies `where`.
  Status TableScan(MiCallContext& ctx, const Table& table,
                   const sql::Expr* where, const RowVisitor& visit);

  ServerOptions options_;
  TypeRegistry types_;
  UdrRegistry udrs_;
  BladeLibraryRegistry blade_libraries_;
  MiMemory memory_;
  MiNamedMemory named_memory_;
  TraceFacility trace_;
  obs::MetricsRegistry metrics_;
  // vii.<fn>.calls and vii.<fn>.us, fed by FoldPurposeTally.
  obs::Counter* vii_calls_[obs::kPurposeFnCount] = {};
  obs::Histogram* vii_us_[obs::kPurposeFnCount] = {};
  LockManager lock_manager_;
  TransactionManager txn_manager_;
  Catalog catalog_;
  std::atomic<int64_t> current_time_;
  std::map<std::string, std::unique_ptr<MemorySpace>> space_backends_;
  std::map<std::string, std::unique_ptr<Sbspace>> sbspaces_;
  mutable std::mutex am_catalog_mu_;
  std::map<std::string, std::vector<uint8_t>> am_catalog_;
  obs::SlowQueryLog slow_query_log_;
  obs::SpanTracer span_tracer_;
  obs::HeatTracker heat_tracker_;
  PlanCache plan_cache_;
  // Null when observability is off; bumped through MaybeAdd below.
  obs::Counter* plan_cache_hits_ = nullptr;
  obs::Counter* plan_cache_misses_ = nullptr;
  obs::Counter* plan_cache_invalidations_ = nullptr;
  mutable std::mutex index_stats_mu_;
  std::map<std::string, IndexStatsReport> index_stats_;  // lower-cased name
  std::vector<std::unique_ptr<ServerSession>> sessions_;
  std::mutex sessions_mu_;
  uint64_t next_session_id_ = 1;
  // Statement gate for concurrent sessions: DDL (and anything else that
  // mutates the catalog/type/UDR registries) runs exclusive; DML and
  // queries run shared, so read-only sessions execute genuinely in
  // parallel. Row/table/LO conflicts between concurrent DML statements
  // are the lock manager's job, not the gate's.
  mutable std::shared_mutex statement_gate_;
};

}  // namespace grtdb

#endif  // GRTDB_SERVER_SERVER_H_
