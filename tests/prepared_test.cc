#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "blades/btree_blade.h"
#include "blades/grtree_blade.h"
#include "server/plan_cache.h"
#include "server/server.h"

namespace grtdb {
namespace {

class PreparedFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(RegisterGRTreeBlade(&server_).ok());
    ASSERT_TRUE(RegisterBtreeBlade(&server_).ok());
    session_ = server_.CreateSession();
  }

  Status Exec(const std::string& sql) {
    return server_.Execute(session_, sql, &result_);
  }
  void MustExec(const std::string& sql) {
    Status status = Exec(sql);
    ASSERT_TRUE(status.ok()) << sql << " -> " << status.ToString();
  }
  // One flights table with a few extents; Overlaps('[d1, d2]') matches a
  // known subset, which the tests use to prove parameters actually bind.
  void LoadFlights() {
    MustExec("CREATE TABLE flights (id integer, e grt_timeextent)");
    MustExec("INSERT INTO flights VALUES (1, '100, 200, 100, 200')");
    MustExec("INSERT INTO flights VALUES (2, '300, 400, 300, 400')");
    MustExec("INSERT INTO flights VALUES (3, '500, 600, 500, 600')");
  }
  uint64_t Hits() { return server_.metrics().GetCounter("plan_cache.hits")->value(); }
  uint64_t Misses() {
    return server_.metrics().GetCounter("plan_cache.misses")->value();
  }

  Server server_;
  ServerSession* session_ = nullptr;
  ResultSet result_;
};

// ------------------------------------------------------------- lifecycle --

TEST_F(PreparedFixture, PrepareExecuteDeallocateRoundTrip) {
  LoadFlights();
  MustExec(
      "PREPARE q AS SELECT id FROM flights WHERE Overlaps(e, ?)");
  ASSERT_EQ(result_.messages.size(), 1u);
  EXPECT_NE(result_.messages[0].find("1 parameter"), std::string::npos);

  MustExec("EXECUTE q ('150, 160, 150, 160')");
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "1");

  // A different binding through the same plan reaches different rows.
  MustExec("EXECUTE q ('350, 360, 350, 360')");
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "2");

  MustExec("DEALLOCATE q");
  EXPECT_TRUE(Exec("EXECUTE q ('1, 2, 1, 2')").IsNotFound());
}

TEST_F(PreparedFixture, PreparedInsertAndUpdateBindParams) {
  MustExec("CREATE TABLE t (id integer, name text)");
  MustExec("PREPARE ins AS INSERT INTO t VALUES (?, ?)");
  MustExec("EXECUTE ins (1, 'one')");
  MustExec("EXECUTE ins (2, 'two')");
  MustExec("SELECT name FROM t WHERE id = 2");
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "two");

  MustExec("PREPARE upd AS UPDATE t SET name = ? WHERE id = ?");
  MustExec("EXECUTE upd ('deux', 2)");
  MustExec("SELECT name FROM t WHERE id = 2");
  EXPECT_EQ(result_.rows[0][0], "deux");

  MustExec("PREPARE del AS DELETE FROM t WHERE id = ?");
  MustExec("EXECUTE del (1)");
  MustExec("SELECT COUNT(*) FROM t");
  EXPECT_EQ(result_.rows[0][0], "1");
}

TEST_F(PreparedFixture, RePrepareReplacesStatement) {
  MustExec("CREATE TABLE t (id integer)");
  MustExec("INSERT INTO t VALUES (7)");
  MustExec("PREPARE q AS SELECT COUNT(*) FROM t");
  MustExec("PREPARE q AS SELECT id FROM t");
  MustExec("EXECUTE q");
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "7");
}

TEST_F(PreparedFixture, HandlesArePerSession) {
  MustExec("CREATE TABLE t (id integer)");
  MustExec("PREPARE q AS SELECT id FROM t");
  ServerSession* other = server_.CreateSession();
  ResultSet out;
  EXPECT_TRUE(server_.Execute(other, "EXECUTE q", &out).IsNotFound());
  ASSERT_TRUE(server_.CloseSession(other).ok());
  // The original session's handle is untouched by the other's lifecycle.
  MustExec("EXECUTE q");
}

TEST_F(PreparedFixture, PrepareRejectsNonDmlStatements) {
  EXPECT_TRUE(Exec("PREPARE q AS CREATE TABLE t (id integer)")
                  .IsInvalidArgument());
  EXPECT_TRUE(Exec("PREPARE q AS BEGIN WORK").IsInvalidArgument());
  EXPECT_TRUE(Exec("PREPARE q AS DROP TABLE t").IsInvalidArgument());
}

// ----------------------------------------------------- binding edge cases --

TEST_F(PreparedFixture, WrongArityIsRejected) {
  MustExec("CREATE TABLE t (a integer, b integer)");
  MustExec("PREPARE ins AS INSERT INTO t VALUES (?, ?)");
  Status status = Exec("EXECUTE ins (1)");
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("takes 2 parameters, got 1"),
            std::string::npos);
  EXPECT_TRUE(Exec("EXECUTE ins (1, 2, 3)").IsInvalidArgument());
  MustExec("EXECUTE ins (1, 2)");
}

TEST_F(PreparedFixture, TypeMismatchSurfacesCoercionError) {
  MustExec("CREATE TABLE t (id integer)");
  MustExec("PREPARE ins AS INSERT INTO t VALUES (?)");
  Status status = Exec("EXECUTE ins ('not a number')");
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  MustExec("SELECT COUNT(*) FROM t");
  EXPECT_EQ(result_.rows[0][0], "0");
}

TEST_F(PreparedFixture, NullParameterInsertsNull) {
  MustExec("CREATE TABLE t (id integer, name text)");
  MustExec("PREPARE ins AS INSERT INTO t VALUES (?, ?)");
  MustExec("EXECUTE ins (5, NULL)");
  MustExec("SELECT COUNT(*) FROM t");
  EXPECT_EQ(result_.rows[0][0], "1");
}

TEST_F(PreparedFixture, ExecuteUnknownNameIsNotFound) {
  EXPECT_TRUE(Exec("EXECUTE nothing").IsNotFound());
  EXPECT_TRUE(Exec("DEALLOCATE nothing").IsNotFound());
}

TEST_F(PreparedFixture, ExecuteArgsMustBeLiterals) {
  MustExec("CREATE TABLE t (id integer)");
  MustExec("PREPARE q AS SELECT id FROM t WHERE id = ?");
  EXPECT_TRUE(Exec("EXECUTE q (?)").IsInvalidArgument());
}

TEST_F(PreparedFixture, BarePlaceholderOutsidePrepareIsRejected) {
  MustExec("CREATE TABLE t (id integer)");
  MustExec("INSERT INTO t VALUES (1)");
  Status status = Exec("SELECT id FROM t WHERE Equal(id, ?)");
  EXPECT_FALSE(status.ok()) << status.ToString();
  EXPECT_NE(status.message().find("not bound"), std::string::npos)
      << status.ToString();
  status = Exec("INSERT INTO t VALUES (?)");
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

// ------------------------------------------------------------ plan cache --

TEST_F(PreparedFixture, CacheHitsAndMissesAreCounted) {
  LoadFlights();
  const uint64_t misses0 = Misses();
  MustExec("PREPARE q AS SELECT id FROM flights WHERE Overlaps(e, ?)");
  EXPECT_EQ(Misses(), misses0 + 1);
  const uint64_t hits0 = Hits();
  for (int i = 0; i < 5; ++i) {
    MustExec("EXECUTE q ('150, 160, 150, 160')");
  }
  EXPECT_EQ(Hits(), hits0 + 5);
  EXPECT_EQ(Misses(), misses0 + 1);
}

TEST_F(PreparedFixture, NormalizationSharesEntriesAcrossSpellings) {
  LoadFlights();
  MustExec("PREPARE a AS SELECT id FROM flights WHERE id = 1");
  const uint64_t hits0 = Hits();
  // Different whitespace and keyword case, same normalized key — but the
  // quoted string literal must keep its case.
  MustExec("PREPARE b AS select  ID   from FLIGHTS where id = 1");
  EXPECT_EQ(Hits(), hits0 + 1);
  EXPECT_EQ(PlanCache::Normalize("SELECT 'A  b' FROM t;"),
            "select 'A  b' from t");
}

TEST_F(PreparedFixture, ExecutionsReuseTheMemoizedPlan) {
  LoadFlights();
  MustExec("CREATE INDEX f_idx ON flights(e) USING grtree_am");
  MustExec("SET EXPLAIN ON");
  MustExec("PREPARE q AS SELECT id FROM flights WHERE Overlaps(e, ?)");
  MustExec("EXECUTE q ('150, 160, 150, 160')");
  ASSERT_FALSE(result_.messages.empty());
  EXPECT_NE(result_.messages[0].find("index scan on f_idx"),
            std::string::npos);
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "1");
  // Second execution binds a fresh constant into the same memo.
  MustExec("EXECUTE q ('550, 560, 550, 560')");
  EXPECT_NE(result_.messages[0].find("index scan on f_idx"),
            std::string::npos);
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "3");
  std::shared_ptr<CachedPlan> plan = server_.plan_cache().Peek(
      "SELECT id FROM flights WHERE Overlaps(e, ?)");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->executions.load(), 2u);
}

// ------------------------------------------------------------- staleness --

TEST_F(PreparedFixture, DropIndexInvalidatesCachedPlan) {
  LoadFlights();
  MustExec("CREATE INDEX f_idx ON flights(e) USING grtree_am");
  MustExec("SET EXPLAIN ON");
  MustExec("PREPARE q AS SELECT id FROM flights WHERE Overlaps(e, ?)");
  MustExec("EXECUTE q ('150, 160, 150, 160')");
  EXPECT_NE(result_.messages[0].find("index scan on f_idx"),
            std::string::npos);
  const uint64_t generation = server_.plan_cache().generation();
  MustExec("DROP INDEX f_idx");
  EXPECT_GT(server_.plan_cache().generation(), generation);
  EXPECT_EQ(server_.plan_cache().size(), 0u);
  // The re-planned statement must not touch the dropped index.
  MustExec("EXECUTE q ('150, 160, 150, 160')");
  EXPECT_NE(result_.messages[0].find("sequential scan"), std::string::npos);
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "1");
}

TEST_F(PreparedFixture, CreateIndexInvalidatesCachedPlan) {
  LoadFlights();
  MustExec("SET EXPLAIN ON");
  MustExec("PREPARE q AS SELECT id FROM flights WHERE Overlaps(e, ?)");
  MustExec("EXECUTE q ('150, 160, 150, 160')");
  EXPECT_NE(result_.messages[0].find("sequential scan"), std::string::npos);
  MustExec("CREATE INDEX f_idx ON flights(e) USING grtree_am");
  // The new index must be visible to the re-planned statement.
  MustExec("EXECUTE q ('150, 160, 150, 160')");
  EXPECT_NE(result_.messages[0].find("index scan on f_idx"),
            std::string::npos);
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "1");
}

TEST_F(PreparedFixture, DropTableMakesExecuteFailCleanly) {
  MustExec("CREATE TABLE t (id integer)");
  MustExec("PREPARE q AS SELECT id FROM t");
  MustExec("EXECUTE q");
  MustExec("DROP TABLE t");
  // No stale Table*/IndexDef* dereference: a clean NotFound.
  EXPECT_TRUE(Exec("EXECUTE q").IsNotFound());
  // Recreating the table heals the statement via a fresh parse + plan.
  MustExec("CREATE TABLE t (id integer)");
  MustExec("INSERT INTO t VALUES (9)");
  MustExec("EXECUTE q");
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "9");
}

TEST_F(PreparedFixture, DdlInvalidatesEvenUnrelatedPlans) {
  LoadFlights();
  MustExec("PREPARE q AS SELECT COUNT(*) FROM flights");
  MustExec("EXECUTE q");
  EXPECT_GE(server_.plan_cache().size(), 1u);
  MustExec("CREATE TABLE unrelated (x integer)");
  // Whole-cache invalidation: opclass/UDR resolution can depend on any
  // definition, so every entry goes.
  EXPECT_EQ(server_.plan_cache().size(), 0u);
  MustExec("EXECUTE q");
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "3");
}

// ------------------------------------------------------------ sys views --

TEST_F(PreparedFixture, SysPreparedListsHandles) {
  LoadFlights();
  MustExec("PREPARE q AS SELECT id FROM flights WHERE Overlaps(e, ?)");
  MustExec("EXECUTE q ('150, 160, 150, 160')");
  MustExec("SELECT name, params, executions, plan FROM sys_prepared");
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "q");
  EXPECT_EQ(result_.rows[0][1], "1");
  EXPECT_EQ(result_.rows[0][2], "1");
  EXPECT_EQ(result_.rows[0][3], "seq scan");
  MustExec("DEALLOCATE q");
  MustExec("SELECT COUNT(*) FROM sys_prepared");
  EXPECT_EQ(result_.rows[0][0], "0");
}

TEST_F(PreparedFixture, CreateTableRejectsSystemViewNames) {
  Status status = Exec("CREATE TABLE systables (x integer)");
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("reserved"), std::string::npos);
  EXPECT_TRUE(Exec("CREATE TABLE SYS_METRICS (x integer)")
                  .IsInvalidArgument());
  EXPECT_TRUE(Exec("DROP TABLE sysams").IsInvalidArgument());
}

TEST_F(PreparedFixture, SysPrefixedUserTablesResolveConsistently) {
  // 'syslog' merely starts with sys — every statement kind must agree it
  // is a normal user table.
  MustExec("CREATE TABLE syslog (msg text)");
  MustExec("INSERT INTO syslog VALUES ('hello')");
  MustExec("SELECT msg FROM syslog");
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "hello");
  MustExec("UPDATE syslog SET msg = 'bye'");
  MustExec("DELETE FROM syslog");
  MustExec("DROP TABLE syslog");
  // An unknown sys-prefixed name still gets the helpful view listing.
  Status status = Exec("SELECT * FROM sys_nonsense");
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_NE(status.message().find("sys_prepared"), std::string::npos);
}

// Golden list of the system views and their columns, in order. Every view
// must answer SELECT * with exactly these columns, refuse every write and
// DDL statement, and appear in the unknown-view listing. (wirebench reads
// sys_index_stats by position, so column order is part of the contract.)
TEST_F(PreparedFixture, EverySystemViewIsReadOnlyWithGoldenColumns) {
  using Cols = std::vector<std::string>;
  const std::vector<std::pair<std::string, Cols>> kViews = {
      {"systables", {"tabname", "ncols", "nrows"}},
      {"sysams", {"amname", "am_sptype", "am_getnext", "defaultopclass"}},
      {"sysopclasses", {"opclassname", "amname", "strategies", "support"}},
      {"sysindices",
       {"idxname", "tabname", "amname", "colname", "opclassname",
        "spacename"}},
      {"sysprocedures",
       {"procname", "numargs", "argtypes", "rettype", "externalname"}},
      {"sys_metrics", {"name", "kind", "value", "count", "sum", "buckets"}},
      {"sys_trace", {"seq", "ts_us", "thread", "class", "level", "message"}},
      {"sys_locks",
       {"kind", "resource", "txn", "mode", "depth", "upgrader_waiting",
        "waiting_exclusive"}},
      {"sys_index_stats",
       {"idxname", "amname", "level", "height", "nodes", "entries",
        "occupancy", "free_list", "dead_entries", "growing_regions",
        "growing_area", "computed_at"}},
      {"sys_slow_queries",
       {"seq", "session", "trace_id", "total_ns", "rows_scanned",
        "rows_returned", "node_reads", "cache_hits", "lock_waits",
        "lock_wait_ns", "purpose_calls", "sql"}},
      {"sys_prepared",
       {"session", "name", "params", "executions", "plan", "statement"}},
      {"sys_spans",
       {"seq", "trace_id", "span_id", "parent_id", "name", "start_ns",
        "dur_ns", "thread", "a", "b"}},
      {"sys_contention",
       {"kind", "resource", "waits", "wait_ns", "max_wait_ns", "timeouts",
        "deadlocks", "last_holder"}},
      {"sys_waits",
       {"kind", "resource", "waiter", "mode", "waited_ns", "holder"}},
      {"sys_hot_nodes",
       {"store", "node", "heat", "reads", "writes", "pin_wait_ns"}},
      {"sys_sessions",
       {"session", "peer", "state", "statement", "txn", "explicit_txn",
        "locks", "trace_id", "statements"}},
  };

  Status unknown = Exec("SELECT * FROM sys_nonsense");
  ASSERT_TRUE(unknown.IsNotFound()) << unknown.ToString();
  const std::string listing = unknown.message();

  for (const auto& [view, columns] : kViews) {
    SCOPED_TRACE(view);
    MustExec("SELECT * FROM " + view);
    EXPECT_EQ(result_.columns, columns);

    for (const std::string& write :
         {"INSERT INTO " + view + " VALUES (1)", "DELETE FROM " + view,
          "UPDATE " + view + " SET " + columns[0] + " = 1"}) {
      Status status = Exec(write);
      EXPECT_TRUE(status.IsInvalidArgument()) << write << " -> "
                                              << status.ToString();
      EXPECT_NE(status.message().find("read-only"), std::string::npos)
          << write;
    }
    Status create = Exec("CREATE TABLE " + view + " (x integer)");
    EXPECT_TRUE(create.IsInvalidArgument()) << create.ToString();
    EXPECT_NE(create.message().find("reserved"), std::string::npos);
    EXPECT_TRUE(Exec("DROP TABLE " + view).IsInvalidArgument());

    EXPECT_NE(listing.find(view), std::string::npos) << listing;
  }
}

// ----------------------------------------------------------- concurrency --

TEST_F(PreparedFixture, ConcurrentExecutionsShareOnePlan) {
  LoadFlights();
  MustExec("CREATE INDEX f_idx ON flights(e) USING grtree_am");
  constexpr int kThreads = 4;
  constexpr int kReps = 25;
  std::vector<std::thread> threads;
  std::vector<int> ok_counts(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ServerSession* session = server_.CreateSession();
      ResultSet out;
      Status status = server_.Execute(
          session, "PREPARE q AS SELECT id FROM flights WHERE Overlaps(e, ?)",
          &out);
      if (status.ok()) {
        for (int i = 0; i < kReps; ++i) {
          status = server_.Execute(
              session, "EXECUTE q ('150, 160, 150, 160')", &out);
          if (status.ok() && out.rows.size() == 1 && out.rows[0][0] == "1") {
            ++ok_counts[t];
          }
        }
      }
      server_.CloseSession(session);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(ok_counts[t], kReps);
  std::shared_ptr<CachedPlan> plan = server_.plan_cache().Peek(
      "PREPARE q AS SELECT id FROM flights WHERE Overlaps(e, ?)");
  // The handle key is the inner statement, not the PREPARE wrapper.
  EXPECT_EQ(plan, nullptr);
  plan = server_.plan_cache().Peek(
      "SELECT id FROM flights WHERE Overlaps(e, ?)");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->executions.load(), static_cast<uint64_t>(kThreads * kReps));
}

}  // namespace
}  // namespace grtdb
