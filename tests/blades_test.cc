#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "blades/access_method.h"
#include "blades/btree_blade.h"
#include "blades/gist_blade.h"
#include "blades/grtree_blade.h"
#include "blades/rstar_blade.h"
#include "blades/timeextent.h"
#include "common/random.h"
#include "obs/fast_clock.h"
#include "obs/flight_recorder.h"
#include "server/server.h"
#include "workload/workload.h"

namespace grtdb {
namespace {

class BladeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(RegisterGRTreeBlade(&server_).ok());
    ASSERT_TRUE(RegisterRStarBlade(&server_).ok());
    session_ = server_.CreateSession();
  }

  Status Exec(const std::string& sql) {
    return server_.Execute(session_, sql, &result_);
  }

  void MustExec(const std::string& sql) {
    Status status = Exec(sql);
    ASSERT_TRUE(status.ok()) << sql << " -> " << status.ToString();
  }

  std::set<std::string> Column0() {
    std::set<std::string> out;
    for (const auto& row : result_.rows) out.insert(row[0]);
    return out;
  }

  Server server_;
  ServerSession* session_ = nullptr;
  ResultSet result_;
};

TEST_F(BladeTest, OpaqueTypeTextIO) {
  MustExec("CREATE TABLE t (e grt_timeextent)");
  MustExec("INSERT INTO t VALUES ('05/01/1997, UC, 05/01/1997, NOW')");
  MustExec("SELECT e FROM t");
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "05/01/1997, UC, 05/01/1997, NOW");
  // The input support function enforces the §2 constraints.
  EXPECT_TRUE(
      Exec("INSERT INTO t VALUES ('05/01/1997, UC, 06/01/1997, NOW')")
          .IsInvalidArgument());
  EXPECT_TRUE(Exec("INSERT INTO t VALUES ('garbage')").IsInvalidArgument());
}

TEST_F(BladeTest, SupportFunctionsAreSqlCallable) {
  MustExec("CREATE TABLE t (e grt_timeextent)");
  MustExec("SET CURRENT_TIME TO 10000");
  MustExec("INSERT INTO t VALUES ('9000, 9999, 9000, 9500')");
  // grt_size is a registered UDR usable in WHERE even without an index.
  MustExec("SELECT e FROM t WHERE grt_size(e) > 100.0");
  EXPECT_EQ(result_.rows.size(), 1u);
  MustExec("SELECT e FROM t WHERE grt_size(e) > 1000000.0");
  EXPECT_EQ(result_.rows.size(), 0u);
  MustExec(
      "SELECT e FROM t WHERE grt_intersection(e, '9000, 9999, 9000, 9500') "
      "> 0.0");
  EXPECT_EQ(result_.rows.size(), 1u);
}

// Table 1: the EmpDep relation, with the month granularity scaled onto day
// chronons via mm/01/1997 dates. Current time 9/97.
class EmpDepTest : public BladeTest {
 protected:
  void SetUp() override {
    BladeTest::SetUp();
    MustExec("CREATE TABLE EmpDep (Employee text, Department text, "
             "TimeExtent grt_timeextent)");
    MustExec("CREATE INDEX empdep_idx ON EmpDep(TimeExtent grt_opclass) "
             "USING grtree_am");
    // Tuples (1)-(6) of Table 1. TTbegin must equal the insertion-time
    // current time, so the clock advances as the history is recorded.
    MustExec("SET CURRENT_TIME TO '03/01/1997'");
    MustExec("INSERT INTO EmpDep VALUES ('Tom', 'Management', "
             "'03/01/1997, UC, 06/01/1997, 08/01/1997')");     // (2) at 3/97
    MustExec("INSERT INTO EmpDep VALUES ('Julie', 'Sales', "
             "'03/01/1997, UC, 03/01/1997, NOW')");             // (4) at 3/97
    MustExec("SET CURRENT_TIME TO '04/01/1997'");
    MustExec("INSERT INTO EmpDep VALUES ('John', 'Advertising', "
             "'04/01/1997, UC, 03/01/1997, 05/01/1997')");      // (1)
    MustExec("SET CURRENT_TIME TO '05/01/1997'");
    MustExec("INSERT INTO EmpDep VALUES ('Jane', 'Sales', "
             "'05/01/1997, UC, 05/01/1997, NOW')");             // (3)
    MustExec("INSERT INTO EmpDep VALUES ('Michelle', 'Management', "
             "'05/01/1997, UC, 03/01/1997, NOW')");             // (6)
    // 7/97: Tom's tuple is logically deleted; Julie's is frozen and
    // superseded (the update that led to tuples (4) and (5)).
    MustExec("SET CURRENT_TIME TO '07/01/1997'");
    MustExec("UPDATE EmpDep SET TimeExtent = "
             "'03/01/1997, 07/01/1997, 06/01/1997, 08/01/1997' "
             "WHERE Employee = 'Tom'");
    MustExec("UPDATE EmpDep SET TimeExtent = "
             "'03/01/1997, 07/01/1997, 03/01/1997, NOW' "
             "WHERE Employee = 'Julie'");
    MustExec("SET CURRENT_TIME TO '08/01/1997'");
    MustExec("INSERT INTO EmpDep VALUES ('Julie', 'Sales', "
             "'08/01/1997, UC, 03/01/1997, 07/01/1997')");      // (5)
    MustExec("SET CURRENT_TIME TO '09/01/1997'");
  }
};

TEST_F(EmpDepTest, CurrentStateQuery) {
  // Who is in the current database state and valid now?
  MustExec("SELECT Employee FROM EmpDep WHERE "
           "Overlaps(TimeExtent, '09/01/1997, UC, 09/01/1997, NOW')");
  EXPECT_EQ(Column0(), (std::set<std::string>{"Jane", "Michelle"}));
}

TEST_F(EmpDepTest, JulieQueryTable3) {
  // §5.1: "Who worked in the Sales department during 7/97 according to the
  // knowledge we had during 5/97?", issued at current time 9/97. Julie's
  // stair does NOT overlap the query point — the one-column bitemporal
  // predicate answers correctly.
  MustExec("SELECT Employee FROM EmpDep WHERE "
           "Overlaps(TimeExtent, "
           "'05/01/1997, 05/01/1997, 07/01/1997, 07/01/1997') "
           "AND Department = 'Sales'");
  EXPECT_EQ(Column0(), std::set<std::string>{});
  // The decomposed (incorrect) version would have answered Julie: her
  // transaction interval covers 5/97 and her resolved valid interval
  // covers 7/97.
  MustExec("SELECT Employee FROM EmpDep WHERE "
           "Overlaps(TimeExtent, "
           "'05/01/1997, 05/01/1997, 03/01/1997, 03/01/1997') "
           "AND Department = 'Sales'");
  EXPECT_EQ(Column0(), std::set<std::string>{"Julie"});  // sanity: stair hit
}

TEST_F(EmpDepTest, TransactionTimeTravel) {
  // What did the database believe on 4/15/1997? Tom's and Julie's first
  // versions plus John's tuple (recorded 4/97) were current then; Jane and
  // Michelle were not recorded until 5/97.
  MustExec("SELECT Employee FROM EmpDep WHERE "
           "Overlaps(TimeExtent, "
           "'04/15/1997, 04/15/1997, 01/01/1990, 01/01/2010')");
  EXPECT_EQ(Column0(), (std::set<std::string>{"Tom", "Julie", "John"}));
}

TEST_F(EmpDepTest, IndexAgreesWithSequentialScan) {
  MustExec("SELECT Employee FROM EmpDep WHERE "
           "Overlaps(TimeExtent, '06/01/1997, UC, 01/01/1997, NOW')");
  const std::set<std::string> with_index = Column0();
  MustExec("DROP INDEX empdep_idx");
  MustExec("SELECT Employee FROM EmpDep WHERE "
           "Overlaps(TimeExtent, '06/01/1997, UC, 01/01/1997, NOW')");
  EXPECT_EQ(Column0(), with_index);
}

TEST_F(EmpDepTest, CheckAndStatistics) {
  MustExec("CHECK INDEX empdep_idx");
  MustExec("SET TRACE grtree TO 2");
  MustExec("UPDATE STATISTICS FOR INDEX empdep_idx");
  const auto log = server_.trace().log();
  ASSERT_FALSE(log.empty());
  EXPECT_NE(log.back().find("stats empdep_idx"), std::string::npos);
}

// Golden Fig. 6 / Table 5 / §5.5 call sequences of the GR-tree blade: the
// exact grt_* calls bench_fig6_callseq prints for INSERT, SELECT, UPDATE
// and DELETE, on the bench's own data. Each statement runs on a fresh
// session, so purpose_log() holds that statement's calls and nothing else.
TEST_F(BladeTest, Fig6GoldenCallSequences) {
  MustExec("CREATE TABLE t (id int, e grt_timeextent)");
  MustExec("CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am");
  MustExec("SET CURRENT_TIME TO 10000");
  for (int i = 0; i < 12; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", '10000, UC, " +
             std::to_string(9990 - i) + ", NOW')");
  }
  auto calls_of = [&](const std::string& sql) {
    ServerSession* session = server_.CreateSession();
    ResultSet result;
    Status status = server_.Execute(session, sql, &result);
    EXPECT_TRUE(status.ok()) << sql << " -> " << status.ToString();
    std::vector<std::string> log = session->purpose_log();
    EXPECT_TRUE(server_.CloseSession(session).ok());
    return log;
  };
  auto repeat = [](std::vector<std::string>* out,
                   const std::vector<std::string>& calls, int times) {
    for (int i = 0; i < times; ++i) {
      out->insert(out->end(), calls.begin(), calls.end());
    }
  };

  // Fig. 6(a).
  EXPECT_EQ(calls_of("INSERT INTO t VALUES (999, '10000, UC, 9000, NOW')"),
            (std::vector<std::string>{"grt_open", "grt_insert", "grt_close"}));

  // Fig. 6(b), with the optimizer's cost probe inside the statement's one
  // open: 13 rows and the exhausted getnext.
  std::vector<std::string> select = {"grt_open", "grt_scancost",
                                     "grt_beginscan"};
  repeat(&select, {"grt_getnext"}, 14);
  select.insert(select.end(), {"grt_endscan", "grt_close"});
  EXPECT_EQ(
      calls_of("SELECT id FROM t WHERE Overlaps(e, '10000, 10000, 9985, 9990')"),
      select);

  // Table 5: a key change is one am_update.
  EXPECT_EQ(
      calls_of("UPDATE t SET e = '10000, 10000, 9000, 9500' WHERE id = 999"),
      (std::vector<std::string>{"grt_open", "grt_update", "grt_close"}));

  // §5.5: every index opened once for the statement, the cost probe, then
  // retrieve-and-delete — each qualifying getnext followed by its delete.
  std::vector<std::string> del = {"grt_open", "grt_scancost",
                                  "grt_beginscan"};
  repeat(&del, {"grt_getnext", "grt_delete"}, 12);
  del.insert(del.end(), {"grt_getnext", "grt_endscan", "grt_close"});
  EXPECT_EQ(
      calls_of("DELETE FROM t WHERE Overlaps(e, '10000, 10000, 9988, 9990')"),
      del);
}

// One open per statement: on a table carrying a GR-tree and an R*-tree
// index on the same column, each statement calls each index's am_open at
// most once, and its am_close once per am_open. The planner's am_scancost
// probe, the scan and every row of an INSERT or LOAD share the open.
class OpenPerStatementTest : public BladeTest {
 protected:
  void SetUp() override {
    BladeTest::SetUp();
    MustExec("CREATE TABLE t (id int, e grt_timeextent)");
    MustExec("CREATE INDEX t_grt ON t(e grt_opclass) USING grtree_am");
    MustExec("CREATE INDEX t_rst ON t(e rst_opclass) USING rstar_am");
    MustExec("SET CURRENT_TIME TO 10000");
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // How often the last statement called each purpose function, by name.
  std::map<std::string, int> Calls() const {
    std::map<std::string, int> calls;
    for (const std::string& call : session_->purpose_log()) ++calls[call];
    return calls;
  }

  // Checks the last statement's opens: `grt` of the GR-tree index and `rst`
  // of the R*-tree index, each with as many closes.
  void ExpectOpens(const std::string& what, int grt, int rst) const {
    std::map<std::string, int> calls = Calls();
    EXPECT_EQ(calls["grt_open"], grt) << what;
    EXPECT_EQ(calls["grt_close"], grt) << what;
    EXPECT_EQ(calls["rst_open"], rst) << what;
    EXPECT_EQ(calls["rst_close"], rst) << what;
  }

  // Writes a LOAD file of `rows` rows, row i (id i) valid on day 9000 + i
  // only; `bad_line` (1-based), if set, is malformed.
  void WriteLoadFile(int rows, int bad_line = 0) {
    std::ofstream out(path_);
    for (int i = 0; i < rows; ++i) {
      if (i + 1 == bad_line) {
        out << "not a row\n";
        continue;
      }
      out << i << "|10000, UC, " << 9000 + i << ", " << 9000 + i << "\n";
    }
  }

  // The ids `SELECT id FROM t WHERE <where>` answers.
  std::set<std::string> Probe(const std::string& where) {
    MustExec("SELECT id FROM t WHERE " + where);
    return Column0();
  }

  const std::string path_ = ::testing::TempDir() + "grtdb_open_rule_" +
                            std::to_string(::getpid()) + ".unl";
};

TEST_F(OpenPerStatementTest, EveryStatementOpensEachIndexOnce) {
  WriteLoadFile(40);
  MustExec("LOAD FROM '" + path_ + "' INSERT INTO t");
  EXPECT_EQ(result_.affected, 40u);
  ExpectOpens("LOAD", 1, 1);
  EXPECT_EQ(Calls()["grt_insert"], 40);
  EXPECT_EQ(Calls()["rst_insert"], 40);

  MustExec("INSERT INTO t VALUES (100, '10000, UC, 9990, 9990')");
  ExpectOpens("INSERT", 1, 1);

  // Both indexes are probed by the planner; the winner is scanned.
  const std::string select =
      "SELECT id FROM t WHERE Overlaps(e, '10000, 10000, 9000, 9004')";
  MustExec(select);
  EXPECT_EQ(Column0(),
            (std::set<std::string>{"0", "1", "2", "3", "4"}));
  ExpectOpens("SELECT", 1, 1);
  EXPECT_EQ(Calls()["grt_scancost"], 1);
  EXPECT_EQ(Calls()["rst_scancost"], 1);
  EXPECT_EQ(Calls()["grt_beginscan"] + Calls()["rst_beginscan"], 1);

  MustExec("EXPLAIN PROFILE " + select);
  ExpectOpens("EXPLAIN PROFILE SELECT", 1, 1);

  MustExec("UPDATE t SET e = '10000, UC, 5000, 5000' WHERE id = 7");
  ExpectOpens("UPDATE", 1, 1);

  MustExec("DELETE FROM t WHERE Overlaps(e, '10000, 10000, 9010, 9012')");
  EXPECT_EQ(result_.affected, 3u);
  ExpectOpens("DELETE", 1, 1);

  MustExec("CHECK INDEX t_grt");
  ExpectOpens("CHECK INDEX t_grt", 1, 0);
  MustExec("CHECK INDEX t_rst");
  ExpectOpens("CHECK INDEX t_rst", 0, 1);
  MustExec("UPDATE STATISTICS");
  ExpectOpens("UPDATE STATISTICS", 1, 1);

  // A prepared statement probes on its first execution only.
  MustExec("PREPARE q AS SELECT id FROM t WHERE Overlaps(e, ?)");
  MustExec("EXECUTE q ('10000, 10000, 9020, 9021')");
  EXPECT_EQ(Column0(), (std::set<std::string>{"20", "21"}));
  ExpectOpens("first EXECUTE", 1, 1);
  MustExec("EXECUTE q ('10000, 10000, 9030, 9031')");
  EXPECT_EQ(Column0(), (std::set<std::string>{"30", "31"}));
  std::map<std::string, int> calls = Calls();
  EXPECT_EQ(calls["grt_open"] + calls["rst_open"], 1);
  EXPECT_EQ(calls["grt_close"], calls["grt_open"]);
  EXPECT_EQ(calls["rst_close"], calls["rst_open"]);
  EXPECT_EQ(calls["grt_scancost"] + calls["rst_scancost"], 0);
}

// A LOAD whose k-th line is malformed fails with path:k:, after one open
// and one close of each index; the rows before it stay in the table (no
// undo) and in both indexes, which answer like a sequential scan.
TEST_F(OpenPerStatementTest, MalformedLoadLineLeavesIndexesAgreeing) {
  WriteLoadFile(30, /*bad_line=*/17);
  Status status = Exec("LOAD FROM '" + path_ + "' INSERT INTO t");
  ASSERT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find(path_ + ":17:"), std::string::npos)
      << status.message();
  ExpectOpens("failed LOAD", 1, 1);
  EXPECT_EQ(Calls()["grt_insert"], 16);
  EXPECT_EQ(Calls()["rst_insert"], 16);
  EXPECT_EQ(session_->txn_session().current_txn(), nullptr);

  const std::string where = "Overlaps(e, '10000, UC, 9000, NOW')";
  MustExec("SET EXPLAIN ON");
  const std::set<std::string> indexed = Probe(where);
  ASSERT_FALSE(result_.messages.empty());
  EXPECT_EQ(result_.messages[0].rfind("PLAN: index scan", 0), 0u);
  EXPECT_EQ(indexed.size(), 16u);
  MustExec("CHECK INDEX t_grt");
  MustExec("CHECK INDEX t_rst");
  MustExec("DROP INDEX t_grt");
  MustExec("DROP INDEX t_rst");
  EXPECT_EQ(Probe(where), indexed);
  EXPECT_EQ(result_.messages[0], "PLAN: sequential scan");
}

// A LOAD inside an explicit transaction leaves it open; its rows and index
// entries commit with it, and another session then finds them.
TEST_F(OpenPerStatementTest, LoadInsideAnExplicitTransaction) {
  WriteLoadFile(25);
  MustExec("BEGIN WORK");
  MustExec("LOAD FROM '" + path_ + "' INSERT INTO t");
  EXPECT_EQ(result_.affected, 25u);
  ExpectOpens("LOAD in a transaction", 1, 1);
  EXPECT_NE(session_->txn_session().current_txn(), nullptr);
  MustExec("INSERT INTO t VALUES (99, '10000, UC, 9003, 9003')");
  MustExec("COMMIT WORK");

  ServerSession* other = server_.CreateSession();
  ResultSet seen;
  ASSERT_TRUE(server_
                  .Execute(other,
                           "SELECT id FROM t WHERE "
                           "Overlaps(e, '10000, 10000, 9002, 9003')",
                           &seen)
                  .ok());
  std::set<std::string> ids;
  for (const auto& row : seen.rows) ids.insert(row[0]);
  EXPECT_EQ(ids, (std::set<std::string>{"2", "3", "99"}));
  EXPECT_TRUE(server_.CloseSession(other).ok());
  MustExec("CHECK INDEX t_grt");
  MustExec("CHECK INDEX t_rst");
}

// Differential test through SQL: GR-tree answers == R*-tree answers ==
// sequential-scan answers on a random evolving history.
class DifferentialTest : public BladeTest,
                         public ::testing::WithParamInterface<uint64_t> {};

TEST_P(DifferentialTest, ThreeWayAgreement) {
  MustExec("CREATE TABLE h (id int, e grt_timeextent)");
  MustExec("CREATE INDEX h_grt ON h(e grt_opclass) USING grtree_am");
  MustExec("CREATE TABLE h2 (id int, e grt_timeextent)");
  MustExec("CREATE INDEX h2_rst ON h2(e rst_opclass) USING rstar_am");
  MustExec("CREATE TABLE h3 (id int, e grt_timeextent)");

  WorkloadOptions wopts;
  wopts.seed = GetParam();
  BitemporalWorkload workload(wopts);
  int64_t last_ct = -1;
  for (int action = 0; action < 250; ++action) {
    for (const IndexOp& op : workload.NextAction()) {
      if (op.ct != last_ct) {
        MustExec("SET CURRENT_TIME TO " + std::to_string(op.ct));
        last_ct = op.ct;
      }
      const std::string extent = "'" + op.extent.ToString() + "'";
      const std::string id = std::to_string(op.payload);
      if (op.kind == IndexOp::Kind::kInsert) {
        for (const char* table : {"h", "h2", "h3"}) {
          MustExec(std::string("INSERT INTO ") + table + " VALUES (" + id +
                   ", " + extent + ")");
        }
      } else {
        for (const char* table : {"h", "h2", "h3"}) {
          MustExec(std::string("DELETE FROM ") + table + " WHERE id = " + id +
                   " AND Equal(e, " + extent + ")");
          ASSERT_EQ(result_.affected, 1u)
              << table << " id=" << id << " extent=" << extent;
        }
      }
    }
  }

  // The WHERE clauses to compare: ground rectangles under each
  // predicate, the benchmark's current stairs 'c, UC, c, NOW' for days c
  // before the current time, and Equal probes on stored versions, current
  // and closed ones alike.
  Random rng(GetParam() ^ 0xBEEF);
  std::vector<std::string> wheres;
  for (int q = 0; q < 12; ++q) {
    TimeExtent query = workload.GroundRectQuery(150);
    const char* pred = (q % 3 == 0)   ? "Overlaps"
                       : (q % 3 == 1) ? "ContainedIn"
                                      : "Contains";
    wheres.push_back(std::string(pred) + "(e, '" + query.ToString() + "')");
  }
  for (int64_t back : {0, 1, 5, 31}) {
    const std::string c = std::to_string(last_ct - back);
    wheres.push_back("Overlaps(e, '" + c + ", UC, " + c + ", NOW')");
  }
  std::vector<TimeExtent> current;
  std::vector<TimeExtent> closed;
  std::map<uint64_t, TimeExtent> versions(workload.live().begin(),
                                          workload.live().end());
  for (const auto& [id, extent] : versions) {
    (extent.IsCurrent() ? current : closed).push_back(extent);
  }
  ASSERT_FALSE(current.empty());
  ASSERT_FALSE(closed.empty());
  std::vector<std::string> probes;
  for (int i = 0; i < 5; ++i) {
    for (const std::vector<TimeExtent>* pool : {&current, &closed}) {
      const TimeExtent& extent = (*pool)[rng.Uniform(pool->size())];
      probes.push_back("'" + extent.ToString() + "'");
      wheres.push_back("Equal(e, " + probes.back() + ")");
    }
  }
  for (const char* table : {"h", "h2", "h3"}) {
    MustExec(std::string("PREPARE eq_") + table + " AS SELECT id FROM " +
             table + " WHERE Equal(e, ?)");
  }

  // Every query at the last insertion's time and at two later times, with
  // no index maintenance in between: growing regions must be resolved the
  // same way by both trees and the sequential scan.
  for (int64_t ct : {last_ct, last_ct + 30, last_ct + 400}) {
    MustExec("SET CURRENT_TIME TO " + std::to_string(ct));
    auto answers = [&](const std::string& h, const std::string& h2,
                       const std::string& h3, const std::string& what) {
      MustExec(h);
      const std::set<std::string> grt = Column0();
      MustExec(h2);
      const std::set<std::string> rst = Column0();
      MustExec(h3);
      const std::set<std::string> seq = Column0();
      EXPECT_EQ(grt, seq) << what << " at ct " << ct;
      EXPECT_EQ(rst, seq) << what << " at ct " << ct;
    };
    for (const std::string& where : wheres) {
      answers("SELECT id FROM h WHERE " + where,
              "SELECT id FROM h2 WHERE " + where,
              "SELECT id FROM h3 WHERE " + where, where);
    }
    for (const std::string& probe : probes) {
      answers("EXECUTE eq_h (" + probe + ")", "EXECUTE eq_h2 (" + probe + ")",
              "EXECUTE eq_h3 (" + probe + ")", "prepared Equal " + probe);
    }
  }
  MustExec("CHECK INDEX h_grt");
  MustExec("CHECK INDEX h2_rst");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1001, 2002));

// Two- and three-term GR-tree qualifications: the first term drives the
// cursor and the blade checks the others as residual terms, each compiled
// once per scan. At three current times every one answers like a
// sequential scan.
TEST_F(BladeTest, ResidualTermsAnswerLikeASequentialScan) {
  MustExec("CREATE TABLE h (id int, e grt_timeextent)");
  MustExec("CREATE INDEX h_grt ON h(e grt_opclass) USING grtree_am");
  MustExec("CREATE TABLE h3 (id int, e grt_timeextent)");
  WorkloadOptions wopts;
  wopts.seed = 3003;
  BitemporalWorkload workload(wopts);
  int64_t last_ct = -1;
  for (int action = 0; action < 300; ++action) {
    for (const IndexOp& op : workload.NextAction()) {
      if (op.ct != last_ct) {
        MustExec("SET CURRENT_TIME TO " + std::to_string(op.ct));
        last_ct = op.ct;
      }
      const std::string extent = "'" + op.extent.ToString() + "'";
      const std::string id = std::to_string(op.payload);
      for (const char* table : {"h", "h3"}) {
        if (op.kind == IndexOp::Kind::kInsert) {
          MustExec(std::string("INSERT INTO ") + table + " VALUES (" + id +
                   ", " + extent + ")");
        } else {
          MustExec(std::string("DELETE FROM ") + table + " WHERE id = " + id +
                   " AND Equal(e, " + extent + ")");
        }
      }
    }
  }

  auto quoted = [](const TimeExtent& extent) {
    return "'" + extent.ToString() + "'";
  };
  const std::string stair = quoted(workload.CurrentStairQuery());
  std::vector<std::string> wheres;
  for (int q = 0; q < 6; ++q) {
    const std::string narrow = quoted(workload.GroundRectQuery(150));
    const std::string wide = quoted(workload.GroundRectQuery(600));
    wheres.push_back("Overlaps(e, " + narrow + ") AND ContainedIn(e, " +
                     wide + ")");
    wheres.push_back("ContainedIn(e, " + wide + ") AND Overlaps(e, " + stair +
                     ")");
    wheres.push_back("Overlaps(e, " + wide + ") AND Overlaps(e, " + stair +
                     ") AND ContainedIn(e, " + wide + ")");
  }
  // Equal on a stored version together with Contains of a point inside
  // it, in both orders, so the residual term is Equal once and Contains
  // once.
  std::map<uint64_t, TimeExtent> versions(workload.live().begin(),
                                          workload.live().end());
  ASSERT_GE(versions.size(), 8u);
  auto version = versions.begin();
  for (int q = 0; q < 8; ++q, std::advance(version, versions.size() / 8)) {
    const TimeExtent& extent = version->second;
    const std::string point = quoted(workload.TimeSliceQuery(
        extent.tt_begin.chronon(), extent.vt_begin.chronon()));
    const std::string equal = "Equal(e, " + quoted(extent) + ")";
    const std::string contains = "Contains(e, " + point + ")";
    wheres.push_back(contains + " AND " + equal);
    wheres.push_back(equal + " AND " + contains);
  }

  size_t answers = 0;
  size_t rejected = 0;
  for (int64_t ct : {last_ct, last_ct + 30, last_ct + 400}) {
    MustExec("SET CURRENT_TIME TO " + std::to_string(ct));
    for (const std::string& where : wheres) {
      MustExec("SET EXPLAIN ON");
      MustExec("SELECT id FROM h WHERE " + where);
      ASSERT_EQ(result_.messages.size(), 1u);
      EXPECT_EQ(result_.messages[0].rfind("PLAN: index scan on h_grt", 0), 0u)
          << result_.messages[0];
      EXPECT_NE(result_.messages[0].find(") AND ("), std::string::npos)
          << result_.messages[0];
      const std::set<std::string> index = Column0();
      MustExec("SET EXPLAIN OFF");
      MustExec("SELECT id FROM h3 WHERE " + where);
      EXPECT_EQ(index, Column0()) << where << " at ct " << ct;
      answers += index.size();
      // The first term alone: the residual terms must have rejected some
      // of its answers somewhere, or this test would not see them.
      MustExec("SELECT COUNT(*) FROM h3 WHERE " +
               where.substr(0, where.find(" AND ")));
      rejected += std::stoul(result_.rows[0][0]) - index.size();
    }
  }
  EXPECT_GT(answers, wheres.size());
  EXPECT_GT(rejected, wheres.size());
  MustExec("CHECK INDEX h_grt");
}

// §5.3 storage options: the same workload runs on each layout.
class StorageVariantTest
    : public ::testing::TestWithParam<GRTreeBladeOptions::Storage> {};

TEST_P(StorageVariantTest, EndToEnd) {
  Server server;
  GRTreeBladeOptions options;
  options.storage = GetParam();
  options.nodes_per_lo = 4;
  // Per-process directory: a concurrent ctest case with the same index
  // name must not share grtree_t_idx.dat (see ObsSqlTest::SetUp).
  options.external_dir =
      ::testing::TempDir() + "blades_" + std::to_string(::getpid());
  std::filesystem::create_directories(options.external_dir);
  ASSERT_TRUE(RegisterGRTreeBlade(&server, options).ok());
  ServerSession* session = server.CreateSession();
  ResultSet result;
  auto exec = [&](const std::string& sql) {
    Status status = server.Execute(session, sql, &result);
    ASSERT_TRUE(status.ok()) << sql << " -> " << status.ToString();
  };
  exec("CREATE TABLE t (id int, e grt_timeextent)");
  exec("CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am");
  exec("SET CURRENT_TIME TO 20000");
  for (int i = 0; i < 120; ++i) {
    const int64_t vt1 = 19000 + i * 7;
    exec("INSERT INTO t VALUES (" + std::to_string(i) + ", '20000, UC, " +
         std::to_string(std::min<int64_t>(vt1, 20000)) + ", NOW')");
  }
  exec("SELECT COUNT(*) FROM t WHERE Overlaps(e, '20000, UC, 19000, NOW')");
  EXPECT_EQ(result.rows[0][0], "120");
  exec("CHECK INDEX t_idx");
  exec("DELETE FROM t WHERE id < 60 AND Overlaps(e, '0, UC, 0, NOW')");
  EXPECT_EQ(result.affected, 60u);
  exec("SELECT COUNT(*) FROM t WHERE Overlaps(e, '20000, UC, 19000, NOW')");
  EXPECT_EQ(result.rows[0][0], "60");
  exec("CHECK INDEX t_idx");
  exec("DROP INDEX t_idx");
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, StorageVariantTest,
    ::testing::Values(GRTreeBladeOptions::Storage::kSingleLo,
                      GRTreeBladeOptions::Storage::kLoPerNode,
                      GRTreeBladeOptions::Storage::kLoPerSubtree,
                      GRTreeBladeOptions::Storage::kExternalFile));

// An OS-file index whose WAL append fails: the INSERT fails, and the index
// then behaves as if it never ran — the next INSERT works and index scans
// do not see the failed row.
TEST(ExternalFileIndex, FailedLogAppendLeavesNoTrace) {
  Server server;
  GRTreeBladeOptions options;
  options.storage = GRTreeBladeOptions::Storage::kExternalFile;
  options.external_dir =
      ::testing::TempDir() + "blades_wal_" + std::to_string(::getpid());
  std::filesystem::create_directories(options.external_dir);
  ASSERT_TRUE(RegisterGRTreeBlade(&server, options).ok());
  ServerSession* session = server.CreateSession();
  ResultSet result;
  auto exec = [&](const std::string& sql) {
    return server.Execute(session, sql, &result);
  };
  auto row = [](int id) {
    return "INSERT INTO t VALUES (" + std::to_string(id) + ", '20000, UC, " +
           std::to_string(19900 + id) + ", NOW')";
  };
  ASSERT_TRUE(exec("CREATE TABLE t (id int, e grt_timeextent)").ok());
  ASSERT_TRUE(
      exec("CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am").ok());
  ASSERT_TRUE(exec("SET CURRENT_TIME TO 20000").ok());
  for (int id = 0; id < 40; ++id) ASSERT_TRUE(exec(row(id)).ok());
  // The test hook sits on the index's WAL, in its server-owned stack.
  IndexDef* index = server.catalog().FindIndex("t_idx");
  ASSERT_NE(index, nullptr);
  WalNodeStore* wal = static_cast<IndexStack*>(index->am_state.get())->wal.get();
  ASSERT_NE(wal, nullptr);
  wal->SetWriteHookForTesting([](int, const uint8_t*, size_t) -> ssize_t {
    errno = EIO;
    return -1;
  });
  EXPECT_TRUE(exec(row(40)).IsIOError());
  wal->SetWriteHookForTesting(nullptr);
  EXPECT_FALSE(wal->in_transaction());

  ASSERT_TRUE(exec(row(41)).ok());
  ASSERT_TRUE(
      exec("SELECT id FROM t WHERE ContainedIn(e, '19000, UC, 19935, 20000')")
          .ok());
  std::set<std::string> ids;
  for (const auto& r : result.rows) ids.insert(r[0]);
  EXPECT_EQ(ids, (std::set<std::string>{"35", "36", "37", "38", "39", "41"}));
  ASSERT_TRUE(exec("CHECK INDEX t_idx").ok());
  ASSERT_TRUE(exec("DROP INDEX t_idx").ok());
  std::filesystem::remove_all(options.external_dir);
}

// The node-write records of the WAL frames in `data`, one or more whole
// frames as the log receives them ([u32 len][u32 crc] payload of records).
uint64_t CountLoggedWrites(const uint8_t* data, size_t size) {
  uint64_t writes = 0;
  size_t at = 0;
  while (at + wal::kFrameHeaderSize <= size) {
    const size_t end = at + wal::kFrameHeaderSize + LoadU32(data + at);
    for (at += wal::kFrameHeaderSize; at < end;) {
      switch (data[at]) {
        case wal::kRecWrite:
          ++writes;
          at += 1 + 8 + kPageSize;
          break;
        case wal::kRecFree:
          at += 1 + 8;
          break;
        default:  // begin, commit
          at += 1;
      }
    }
  }
  return writes;
}

// §5.3 with §5.5: under kPostponeReinsert the FlushPending that ends an
// OS-file index's scan is one more WAL transaction, so every node the
// DELETE writes reaches the log before the file: the cache under the WAL
// receives exactly the logged writes, none written through.
TEST(ExternalFileIndex, PostponedFlushIsLogged) {
  Server server;
  GRTreeBladeOptions options;
  options.storage = GRTreeBladeOptions::Storage::kExternalFile;
  options.tree.max_entries = 8;
  options.tree.deletion_policy = DeletionPolicy::kPostponeReinsert;
  options.external_dir =
      ::testing::TempDir() + "blades_flush_" + std::to_string(::getpid());
  std::filesystem::create_directories(options.external_dir);
  ASSERT_TRUE(RegisterGRTreeBlade(&server, options).ok());
  ServerSession* session = server.CreateSession();
  ResultSet result;
  auto exec = [&](const std::string& sql) {
    Status status = server.Execute(session, sql, &result);
    ASSERT_TRUE(status.ok()) << sql << " -> " << status.ToString();
  };
  exec("CREATE TABLE t (id int, e grt_timeextent)");
  exec("CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am");
  exec("SET CURRENT_TIME TO 5000");
  for (int i = 0; i < 600; ++i) {
    exec("INSERT INTO t VALUES (" + std::to_string(i) + ", '" +
         std::to_string(1000 + i) + ", " + std::to_string(1010 + i) + ", " +
         std::to_string(900 + i) + ", " + std::to_string(950 + i) + "')");
  }
  IndexStack* stack =
      static_cast<IndexStack*>(server.catalog().FindIndex("t_idx")->am_state
                                   .get());
  ASSERT_NE(stack->wal, nullptr);
  uint64_t logged_writes = 0;
  stack->wal->SetWriteHookForTesting(
      [&](int fd, const uint8_t* data, size_t size) -> ssize_t {
        const ssize_t written = ::write(fd, data, size);
        if (written == static_cast<ssize_t>(size)) {
          logged_writes += CountLoggedWrites(data, size);
        }
        return written;
      });
  const WalStats before = stack->wal->wal_stats();
  const uint64_t cache_writes = stack->cache->stats().node_writes;

  // Rows 0..100 overlap; deleting them leaves leaves underfull.
  exec("DELETE FROM t WHERE Overlaps(e, '1000, 1100, 0, 1040')");
  EXPECT_EQ(result.affected, 101u);
  const WalStats after = stack->wal->wal_stats();
  stack->wal->SetWriteHookForTesting(nullptr);
  // One transaction per deleted row, and one for the flush.
  EXPECT_EQ(after.transactions_committed - before.transactions_committed,
            101u + 1u);
  EXPECT_GT(logged_writes, 0u);
  EXPECT_EQ(stack->cache->stats().node_writes - cache_writes, logged_writes);
  EXPECT_FALSE(stack->wal->in_transaction());
  exec("CHECK INDEX t_idx");
  exec("SELECT COUNT(*) FROM t WHERE Overlaps(e, '0, 10000, 0, 10000')");
  EXPECT_EQ(result.rows[0][0], "499");
  exec("DROP INDEX t_idx");
  std::filesystem::remove_all(options.external_dir);
}

// ------------------------------------------------ the shared store stack --
// Each index of the four blades keeps one store stack and node cache from
// CREATE INDEX to DROP INDEX, shared by every statement that opens it.

struct IndexVariant {
  const char* name;
  const char* access_method;
  const char* opclass;
  GRTreeBladeOptions::Storage storage;  // GR-tree layout
  const char* column_type;              // the indexed column e's type
  std::string (*key)(int id);           // row `id`'s e, as a literal
  // WHERE clauses on e the index serves; the first is the repeated probe.
  std::vector<std::string> probes;
  // e of a late row (id 500), a probe that counts it, and one that
  // matches it.
  const char* late_key;
  const char* late_count;
  const char* late_equal;
  const char* update_key;  // the e an UPDATE sets
};

void PrintTo(const IndexVariant& variant, std::ostream* os) {
  *os << variant.name;
}

std::string ExtentKey(int id) {
  return "'20000, UC, " + std::to_string(19900 + id % 100) + ", NOW'";
}

IndexVariant ExtentVariant(const char* name, const char* access_method,
                           const char* opclass,
                           GRTreeBladeOptions::Storage storage) {
  return {name,
          access_method,
          opclass,
          storage,
          "grt_timeextent",
          ExtentKey,
          {"Overlaps(e, '20000, 20000, 19930, 19935')",
           "ContainedIn(e, '19000, UC, 19000, NOW')",
           "Overlaps(e, '20000, UC, 19990, NOW')"},
          "'20000, UC, 19920, NOW'",
          "Overlaps(e, '20000, UC, 19910, NOW')",
          "Equal(e, '20000, UC, 19920, NOW')",
          "'20000, 20000, 19000, 19500'"};
}

class SharedStackTest : public ::testing::TestWithParam<IndexVariant> {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.lock_timeout = std::chrono::milliseconds(100);
    server_ = std::make_unique<Server>(options);
    GRTreeBladeOptions grtree;
    grtree.storage = GetParam().storage;
    grtree.nodes_per_lo = 4;
    external_dir_ =
        ::testing::TempDir() + "shared_stack_" + std::to_string(::getpid());
    grtree.external_dir = external_dir_;
    std::filesystem::create_directories(external_dir_);
    ASSERT_TRUE(RegisterGRTreeBlade(server_.get(), grtree).ok());
    ASSERT_TRUE(RegisterRStarBlade(server_.get()).ok());
    ASSERT_TRUE(RegisterBtreeBlade(server_.get()).ok());
    ASSERT_TRUE(RegisterGistBlade(server_.get()).ok());
    ASSERT_TRUE(RegisterIntRangeOpclass(server_.get()).ok());
    session_ = server_->CreateSession();
    // `t` carries the index; `s` holds the same rows without one, so its
    // answers are the sequential scan's.
    const std::string columns =
        std::string(" (id int, e ") + GetParam().column_type + ")";
    MustExec("CREATE TABLE t" + columns);
    MustExec("CREATE TABLE s" + columns);
    MustExec("SET CURRENT_TIME TO 20000");
  }

  // Each case starts without the files an earlier one left behind.
  void TearDown() override {
    server_.reset();
    std::filesystem::remove_all(external_dir_);
  }

  Status Exec(ServerSession* session, const std::string& sql) {
    return server_->Execute(session, sql, &result_);
  }
  void MustExec(const std::string& sql) {
    Status status = Exec(session_, sql);
    ASSERT_TRUE(status.ok()) << sql << " -> " << status.ToString();
  }

  std::string CreateIndex() const {
    return std::string("CREATE INDEX t_idx ON t(e ") + GetParam().opclass +
           ") USING " + GetParam().access_method;
  }

  static std::string Row(int id) {
    return "(" + std::to_string(id) + ", " + GetParam().key(id) + ")";
  }
  // The SELECT of the variant's repeated probe.
  static std::string Probe() {
    return "SELECT id FROM t WHERE " + GetParam().probes[0];
  }
  static std::string LateRow() {
    return std::string("INSERT INTO t VALUES (500, ") + GetParam().late_key +
           ")";
  }
  void LoadRows(int from, int to) {
    for (int id = from; id < to; ++id) {
      MustExec("INSERT INTO t VALUES " + Row(id));
      MustExec("INSERT INTO s VALUES " + Row(id));
    }
  }

  std::set<std::string> Ids(const std::string& table,
                            const std::string& where) {
    Status status =
        Exec(session_, "SELECT id FROM " + table + " WHERE " + where);
    EXPECT_TRUE(status.ok()) << status.ToString();
    std::set<std::string> out;
    for (const auto& row : result_.rows) out.insert(row[0]);
    return out;
  }

  // The index answers every probe the way the sequential scan does.
  void ExpectIndexAgreesWithScan() {
    for (const std::string& where : GetParam().probes) {
      EXPECT_EQ(Ids("t", where), Ids("s", where)) << where;
    }
    MustExec("CHECK INDEX t_idx");
  }

  // {node_reads, cache_hits} from an EXPLAIN PROFILE of `stmt`.
  std::pair<uint64_t, uint64_t> ProfiledNodeReads(const std::string& stmt) {
    MustExec("EXPLAIN PROFILE " + stmt);
    for (const std::string& line : result_.messages) {
      unsigned long long reads = 0;
      unsigned long long hits = 0;
      if (std::sscanf(line.c_str(), "PROFILE node_reads=%llu cache_hits=%llu",
                      &reads, &hits) == 2) {
        return {reads, hits};
      }
    }
    ADD_FAILURE() << "no node_reads line in the profile of " << stmt;
    return {0, 0};
  }

  bool IsExternalFile() const {
    return std::string(GetParam().access_method) == "grtree_am" &&
           GetParam().storage == GRTreeBladeOptions::Storage::kExternalFile;
  }

  uint64_t LiveLos() {
    uint64_t count = 0;
    EXPECT_TRUE(server_->FindSbspace("default")->CountLos(&count).ok());
    return count;
  }

  std::unique_ptr<Server> server_;
  ServerSession* session_ = nullptr;
  ResultSet result_;
  std::string external_dir_;
};

TEST_P(SharedStackTest, RepeatedProbeIsServedFromTheCache) {
  MustExec(CreateIndex());
  LoadRows(0, 60);
  ProfiledNodeReads(Probe());
  const auto [reads, hits] = ProfiledNodeReads(Probe());
  EXPECT_GT(reads, 0u);  // the index served the probe
  EXPECT_EQ(hits, reads);
}

TEST_P(SharedStackTest, DropAndRecreateAnswersLikeASequentialScan) {
  MustExec(CreateIndex());
  LoadRows(0, 40);
  ExpectIndexAgreesWithScan();
  MustExec("DROP INDEX t_idx");
  LoadRows(40, 80);
  MustExec(CreateIndex());
  ExpectIndexAgreesWithScan();
  EXPECT_GT(ProfiledNodeReads(Probe()).first, 0u);
}

// DROP INDEX frees the index's storage from its live store stack: every
// LO the tree grew into, or the file and its log.
TEST_P(SharedStackTest, DropFreesTheIndexStorage) {
  const uint64_t los_before = LiveLos();
  MustExec(CreateIndex());
  LoadRows(0, 80);
  const std::string file = external_dir_ + "/grtree_t_idx.dat";
  EXPECT_EQ(IsExternalFile(), std::filesystem::exists(file));
  EXPECT_EQ(IsExternalFile(), LiveLos() == los_before);
  MustExec("DROP INDEX t_idx");
  EXPECT_EQ(LiveLos(), los_before);
  EXPECT_FALSE(std::filesystem::exists(file));
  EXPECT_FALSE(std::filesystem::exists(file + ".wal"));
}

TEST_P(SharedStackTest, FailedBuildThenRetryAnswersLikeASequentialScan) {
  LoadRows(0, 20);
  // A NULL key fails the build pass halfway through the table.
  MustExec("INSERT INTO t VALUES (999, NULL)");
  LoadRows(20, 40);
  EXPECT_FALSE(Exec(session_, CreateIndex()).ok());
  MustExec("DELETE FROM t WHERE id = 999");
  MustExec(CreateIndex());
  ExpectIndexAgreesWithScan();
}

// A failed build frees what am_create made, as DROP INDEX would: every
// LO, or the file and its log, and the AM catalog record.
TEST_P(SharedStackTest, FailedBuildFreesTheIndexStorage) {
  LoadRows(0, 20);
  // A NULL key is one the blade rejects: the build pass fails on it.
  MustExec("INSERT INTO t VALUES (999, NULL)");
  LoadRows(20, 40);
  const uint64_t los_before = LiveLos();
  EXPECT_FALSE(Exec(session_, CreateIndex()).ok());
  EXPECT_EQ(LiveLos(), los_before);
  const std::string file = external_dir_ + "/grtree_t_idx.dat";
  EXPECT_FALSE(std::filesystem::exists(file));
  EXPECT_FALSE(std::filesystem::exists(file + ".wal"));
  std::vector<uint8_t> record;
  EXPECT_TRUE(server_->AmCatalogGet(GetParam().access_method, "t_idx", &record)
                  .IsNotFound());
}

TEST_P(SharedStackTest, StatementsRunNoRecovery) {
  const uint64_t start = obs::Ticks();
  MustExec(CreateIndex());
  LoadRows(0, 10);
  for (int i = 0; i < 10; ++i) {
    Ids("t", GetParam().probes[2]);
  }
  size_t recoveries = 0;
  for (const obs::FlightEventRecord& record :
       obs::FlightRecorder::Global().Dump()) {
    if (record.ticks >= start &&
        record.event == obs::FlightEvent::kRecoveryBegin) {
      ++recoveries;
    }
  }
  // Only the OS-file layout has a WAL, created empty at CREATE INDEX:
  // there is nothing to replay, and no statement opens the log again.
  EXPECT_EQ(recoveries, 0u);
}

TEST_P(SharedStackTest, CommittedInsertIsSeenByAnotherSession) {
  MustExec(CreateIndex());
  LoadRows(0, 30);
  const std::string count =
      std::string("SELECT COUNT(*) FROM t WHERE ") + GetParam().late_count;
  ServerSession* reader = server_->CreateSession();
  ASSERT_TRUE(Exec(reader, count).ok());
  const int before = std::stoi(result_.rows[0][0]);

  MustExec("BEGIN WORK");
  MustExec(LateRow());
  MustExec("COMMIT WORK");
  ASSERT_TRUE(Exec(reader, count).ok());
  EXPECT_EQ(std::stoi(result_.rows[0][0]), before + 1);

  MustExec(std::string("DELETE FROM t WHERE id = 500 AND ") +
           GetParam().late_equal);
  ASSERT_TRUE(Exec(reader, count).ok());
  EXPECT_EQ(std::stoi(result_.rows[0][0]), before);
  EXPECT_TRUE(server_->CloseSession(reader).ok());
}

TEST_P(SharedStackTest, CheckIndexWaitsOnAWritersTableLock) {
  MustExec(CreateIndex());
  LoadRows(0, 10);
  MustExec("BEGIN WORK");
  MustExec(LateRow());
  // The writer holds t's X lock to its commit; CHECK INDEX and UPDATE
  // STATISTICS read the index under t's S lock, as SELECT does.
  ServerSession* checker = server_->CreateSession();
  EXPECT_TRUE(Exec(checker, "CHECK INDEX t_idx").IsLockTimeout());
  EXPECT_TRUE(
      Exec(checker, "UPDATE STATISTICS FOR INDEX t_idx").IsLockTimeout());
  MustExec("COMMIT WORK");
  EXPECT_TRUE(Exec(checker, "CHECK INDEX t_idx").ok());
  EXPECT_TRUE(Exec(checker, "UPDATE STATISTICS FOR INDEX t_idx").ok());
  EXPECT_TRUE(server_->CloseSession(checker).ok());
}

// Clean under ASan: the index states go before the sbspaces they write to.
TEST_P(SharedStackTest, ServerDestroyedRightAfterWrites) {
  MustExec(CreateIndex());
  LoadRows(0, 50);
  MustExec(std::string("UPDATE t SET e = ") + GetParam().update_key +
           " WHERE id < 5");
  MustExec("DELETE FROM t WHERE id >= 45");
  MustExec("BEGIN WORK");
  MustExec(LateRow());
  server_.reset();
}

INSTANTIATE_TEST_SUITE_P(
    Indexes, SharedStackTest,
    ::testing::Values(
        ExtentVariant("GrtSingleLo", "grtree_am", "grt_opclass",
                      GRTreeBladeOptions::Storage::kSingleLo),
        ExtentVariant("GrtLoPerNode", "grtree_am", "grt_opclass",
                      GRTreeBladeOptions::Storage::kLoPerNode),
        ExtentVariant("GrtLoPerSubtree", "grtree_am", "grt_opclass",
                      GRTreeBladeOptions::Storage::kLoPerSubtree),
        ExtentVariant("GrtExternalFile", "grtree_am", "grt_opclass",
                      GRTreeBladeOptions::Storage::kExternalFile),
        ExtentVariant("RStar", "rstar_am", "rst_opclass",
                      GRTreeBladeOptions::Storage::kSingleLo),
        IndexVariant{"BTree", "btree_am", "bt_opclass",
                     GRTreeBladeOptions::Storage::kSingleLo, "int",
                     [](int id) { return std::to_string(id % 50); },
                     {"LessThan(e, 5)", "GreaterThanOrEqual(e, 30)",
                      "Equal(e, 12)"},
                     "17", "GreaterThan(e, 15)", "Equal(e, 17)", "99"},
        IndexVariant{"Gist", "gist_am", "ir_opclass",
                     GRTreeBladeOptions::Storage::kSingleLo, "intrange",
                     [](int id) {
                       return "'[" + std::to_string(id * 10) + "," +
                              std::to_string(id * 10 + 5) + "]'";
                     },
                     {"RangeOverlaps(e, '[300,320]')",
                      "RangeContains(e, '[100,102]')",
                      "RangeOverlaps(e, '[0,10000]')"},
                     "'[5000,5005]'", "RangeOverlaps(e, '[4000,6000]')",
                     "RangeContains(e, '[5000,5005]')", "'[9000,9001]'"}),
    [](const ::testing::TestParamInfo<IndexVariant>& info) {
      return std::string(info.param.name);
    });

// Every in-tree access method lists its 14 purpose functions in
// sysprocedures, each over a pointer, and every am_scancost returns the
// type grt_scancost returns.
TEST(AccessMethodCatalog, EveryBladeListsItsPurposeFunctions) {
  Server server;
  ASSERT_TRUE(RegisterGRTreeBlade(&server).ok());
  ASSERT_TRUE(RegisterRStarBlade(&server).ok());
  ASSERT_TRUE(RegisterBtreeBlade(&server).ok());
  ASSERT_TRUE(RegisterGistBlade(&server).ok());
  ServerSession* session = server.CreateSession();
  ResultSet result;
  ASSERT_TRUE(
      server.Execute(session, "SELECT * FROM sysprocedures", &result).ok());
  std::map<std::string, std::pair<std::string, std::string>> signatures;
  for (const auto& row : result.rows) signatures[row[0]] = {row[2], row[3]};
  ASSERT_EQ(signatures.count("grt_scancost"), 1u);
  const std::string scancost_type = signatures["grt_scancost"].second;
  for (const char* prefix : {"grt", "rst", "bt", "gs"}) {
    for (const char* suffix :
         {"create", "drop", "open", "close", "beginscan", "endscan",
          "rescan", "getnext", "insert", "delete", "update", "scancost",
          "stats", "check"}) {
      const std::string name = std::string(prefix) + "_" + suffix;
      auto it = signatures.find(name);
      ASSERT_NE(it, signatures.end()) << name;
      EXPECT_EQ(it->second.first, "pointer") << name;
      if (std::string(suffix) == "scancost") {
        EXPECT_EQ(it->second.second, scancost_type) << name;
      }
    }
  }
  EXPECT_TRUE(server.CloseSession(session).ok());
}

// §5.2: dynamic strategy-function dispatch returns the same answers as the
// hard-coded prototype.
TEST(DynamicDispatch, SameAnswersAsHardCoded) {
  Server server;
  GRTreeBladeOptions dynamic_options;
  dynamic_options.dynamic_dispatch = true;
  ASSERT_TRUE(RegisterGRTreeBlade(&server, dynamic_options).ok());
  ServerSession* session = server.CreateSession();
  ResultSet result;
  auto exec = [&](const std::string& sql) {
    Status status = server.Execute(session, sql, &result);
    ASSERT_TRUE(status.ok()) << sql << " -> " << status.ToString();
  };
  exec("CREATE TABLE t (id int, e grt_timeextent)");
  exec("CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am");
  exec("SET CURRENT_TIME TO 20000");
  for (int i = 0; i < 60; ++i) {
    exec("INSERT INTO t VALUES (" + std::to_string(i) + ", '20000, UC, " +
         std::to_string(19900 + i) + ", NOW')");
  }
  exec("SELECT COUNT(*) FROM t WHERE "
       "Overlaps(e, '20000, 20000, 19950, 19950')");
  EXPECT_EQ(result.rows[0][0], "51");  // vt1 in [19900, 19950]
}

// §5.5 postponed re-insertion through SQL: a DELETE whose index scan
// removes most rows leaves every leaf underfull, and am_endscan's
// FlushPending then drains the root of its children.
TEST(PostponedReinsertion, MassDeleteLeavesAConsistentIndex) {
  Server server;
  GRTreeBladeOptions options;
  options.tree.deletion_policy = DeletionPolicy::kPostponeReinsert;
  ASSERT_TRUE(RegisterGRTreeBlade(&server, options).ok());
  ServerSession* session = server.CreateSession();
  ResultSet result;
  auto exec = [&](const std::string& sql) {
    Status status = server.Execute(session, sql, &result);
    ASSERT_TRUE(status.ok()) << sql << " -> " << status.ToString();
  };
  exec("CREATE TABLE t (id int, e grt_timeextent)");
  exec("CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am");
  exec("SET CURRENT_TIME TO 5000");
  for (int i = 0; i < 300; ++i) {
    exec("INSERT INTO t VALUES (" + std::to_string(i) + ", '" +
         std::to_string(1000 + i) + ", " + std::to_string(1010 + i) + ", " +
         std::to_string(900 + i) + ", " + std::to_string(950 + i) + "')");
  }
  // Rows 0..290 overlap; the index scan deletes them.
  exec("DELETE FROM t WHERE Overlaps(e, '1000, 1290, 0, 1230')");
  EXPECT_EQ(result.affected, 291u);
  exec("CHECK INDEX t_idx");
  exec("SELECT COUNT(*) FROM t");
  EXPECT_EQ(result.rows[0][0], "9");
  auto ids = [&] {
    exec("SELECT id FROM t WHERE Overlaps(e, '0, 10000, 0, 10000')");
    std::set<std::string> out;
    for (const auto& row : result.rows) out.insert(row[0]);
    return out;
  };
  const std::set<std::string> by_index = ids();
  EXPECT_EQ(by_index, (std::set<std::string>{"291", "292", "293", "294", "295",
                                             "296", "297", "298", "299"}));
  exec("DROP INDEX t_idx");
  EXPECT_EQ(ids(), by_index);
}

// §5.4: per-transaction current time is captured once per transaction in
// named memory and released by the transaction-end callback.
TEST(CurrentTimeMode, TransactionModeFreezesTime) {
  Server server;
  ASSERT_TRUE(RegisterGRTreeBlade(&server).ok());
  ServerSession* session = server.CreateSession();
  ResultSet result;
  auto exec = [&](const std::string& sql) {
    Status status = server.Execute(session, sql, &result);
    ASSERT_TRUE(status.ok()) << sql << " -> " << status.ToString();
  };
  exec("CREATE TABLE t (e grt_timeextent)");
  exec("SET CURRENT_TIME TO 10000");
  exec("INSERT INTO t VALUES ('10000, UC, 10000, NOW')");

  // Statement mode: the growing stair reaches (10050, 10050) once the
  // clock moves there.
  exec("SET CURRENT_TIME TO 10050");
  exec("SELECT COUNT(*) FROM t WHERE "
       "Overlaps(e, '10050, 10050, 10050, 10050')");
  EXPECT_EQ(result.rows[0][0], "1");

  // Transaction mode: the first statement of the transaction pins the
  // current time; later clock movement is invisible until COMMIT.
  exec("SET TIME MODE TRANSACTION");
  exec("BEGIN WORK");
  exec("SELECT COUNT(*) FROM t WHERE "
       "Overlaps(e, '10050, 10050, 10050, 10050')");
  EXPECT_EQ(result.rows[0][0], "1");
  EXPECT_EQ(server.named_memory().count(), 1u);  // pinned time lives
  exec("SET CURRENT_TIME TO 10100");
  exec("SELECT COUNT(*) FROM t WHERE "
       "Overlaps(e, '10100, 10100, 10100, 10100')");
  EXPECT_EQ(result.rows[0][0], "0");  // still evaluated at 10050
  exec("COMMIT WORK");
  EXPECT_EQ(server.named_memory().count(), 0u);  // callback freed it
  exec("BEGIN WORK");
  exec("SELECT COUNT(*) FROM t WHERE "
       "Overlaps(e, '10100, 10100, 10100, 10100')");
  EXPECT_EQ(result.rows[0][0], "1");  // new transaction sees the new time
  exec("COMMIT WORK");
}

// The maximum-timestamp transform (baseline) in isolation.
TEST(MaxTimestampTransform, CoversTrueRegions) {
  TimeExtent stair(Timestamp::FromChronon(100), Timestamp::UC(),
                   Timestamp::FromChronon(80), Timestamp::NOW());
  const Rect rect = TransformExtent(stair, 5000);
  EXPECT_EQ(rect.x1, 100);
  EXPECT_EQ(rect.x2, 5000);
  EXPECT_EQ(rect.y1, 80);
  EXPECT_EQ(rect.y2, 5000);
  TimeExtent ground = TimeExtent::Ground(100, 200, 80, 90);
  const Rect grect = TransformExtent(ground, 5000);
  EXPECT_EQ(grect.x2, 200);
  EXPECT_EQ(grect.y2, 90);
}

}  // namespace
}  // namespace grtdb
