#include "server/server.h"

#include <gtest/gtest.h>

#include <any>
#include <map>
#include <span>
#include <vector>

#include "common/date.h"

namespace grtdb {
namespace {

// ------------------------------------------------------------- ResultRows --

TEST(ResultRows, RowsOfMixedWidthsAndNoCells) {
  ResultRows rows;
  EXPECT_TRUE(rows.empty());
  rows.push_back({"a", "b", "c"});
  rows.push_back({});
  rows.AddCell("only");
  rows.EndRow();
  rows.EndRow();  // a zero-cell row built with EndRow alone
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_FALSE(rows.empty());
  ASSERT_EQ(rows[0].size(), 3u);
  EXPECT_EQ(rows[0][2], "c");
  EXPECT_TRUE(rows[1].empty());
  ASSERT_EQ(rows[2].size(), 1u);
  EXPECT_EQ(rows[2][0], "only");
  EXPECT_TRUE(rows[3].empty());
  EXPECT_EQ(rows.front()[0], "a");
  EXPECT_TRUE(rows.back().empty());
  std::vector<std::vector<std::string>> seen;
  for (ResultRows::Row row : rows) seen.emplace_back(row.begin(), row.end());
  EXPECT_EQ(seen, (std::vector<std::vector<std::string>>{
                      {"a", "b", "c"}, {}, {"only"}, {}}));
}

TEST(ResultRows, CellsPastTheInlineBufferSurviveGrowth) {
  // Longer than std::string's inline buffer, and with an embedded NUL; a
  // hundred rows make the cell vector move its strings several times.
  const std::string long_cell(100, 'x');
  const std::string with_nul("a\0b", 3);
  ResultRows rows;
  for (int i = 0; i < 100; ++i) {
    rows.AddCell(long_cell + std::to_string(i));
    rows.AddCell(with_nul);
    rows.EndRow();
  }
  ASSERT_EQ(rows.size(), 100u);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].size(), 2u);
    EXPECT_EQ(rows[i][0], long_cell + std::to_string(i));
    EXPECT_EQ(rows[i][1], with_nul);
  }
}

TEST(ResultRows, ClearThenReuseKeepsNothingOld) {
  ResultRows rows;
  for (int i = 0; i < 50; ++i) {
    rows.push_back({std::to_string(i), std::string(40, 'y')});
  }
  rows.Clear();
  EXPECT_TRUE(rows.empty());
  EXPECT_TRUE(rows.begin() == rows.end());
  rows.push_back({"z"});
  rows.EndRow();
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(rows[0].size(), 1u);
  EXPECT_EQ(rows[0][0], "z");
  EXPECT_TRUE(rows[1].empty());
  ResultRows fresh;
  fresh.push_back({"z"});
  fresh.push_back({});
  EXPECT_EQ(rows, fresh);
}

TEST(ResultRows, EqualityComparesCellsAndRowBoundaries) {
  ResultRows ab_c;
  ab_c.push_back({"a", "b"});
  ab_c.push_back({"c"});
  ResultRows same;
  same.push_back({"a", "b"});
  same.push_back({"c"});
  ResultRows a_bc;
  a_bc.push_back({"a"});
  a_bc.push_back({"b", "c"});
  ResultRows other_cell;
  other_cell.push_back({"a", "b"});
  other_cell.push_back({"d"});
  EXPECT_EQ(ab_c, same);
  EXPECT_NE(ab_c, a_bc);  // the same cells, cut into other rows
  EXPECT_NE(ab_c, other_cell);
  same.EndRow();
  EXPECT_NE(ab_c, same);  // one more, empty, row
  EXPECT_EQ(ResultRows(), ResultRows());
}

// ------------------------------------------------------------- Value/Table --

TEST(Value, BasicsAndEquality) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_FALSE(Value::Null().Equals(Value::Null()));
  EXPECT_TRUE(Value::Integer(5).Equals(Value::Integer(5)));
  EXPECT_FALSE(Value::Integer(5).Equals(Value::Float(5.0)));
  EXPECT_TRUE(Value::Text("x").Equals(Value::Text("x")));
  EXPECT_TRUE(Value::Opaque(1, {1, 2}).Equals(Value::Opaque(1, {1, 2})));
  EXPECT_FALSE(Value::Opaque(1, {1, 2}).Equals(Value::Opaque(2, {1, 2})));
}

TEST(Value, CompareNumericCross) {
  int cmp = 0;
  ASSERT_TRUE(Value::Integer(5).Compare(Value::Float(5.5), &cmp).ok());
  EXPECT_LT(cmp, 0);
  ASSERT_TRUE(Value::Text("b").Compare(Value::Text("a"), &cmp).ok());
  EXPECT_GT(cmp, 0);
  EXPECT_FALSE(Value::Text("b").Compare(Value::Integer(1), &cmp).ok());
  EXPECT_FALSE(Value::Null().Compare(Value::Integer(1), &cmp).ok());
}

TEST(Value, Rendering) {
  EXPECT_EQ(Value::Integer(42).ToString(), "42");
  EXPECT_EQ(Value::Boolean(true).ToString(), "t");
  EXPECT_EQ(Value::Date(0).ToString(), "01/01/1970");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
}

TEST(Table, InsertGetUpdateDelete) {
  Table table("t", {{"a", TypeDesc::Integer()}, {"b", TypeDesc::Text()}});
  RecordId id;
  ASSERT_TRUE(table.Insert({Value::Integer(1), Value::Text("x")}, &id).ok());
  EXPECT_EQ(table.row_count(), 1u);
  const Row* row = nullptr;
  ASSERT_TRUE(table.Get(id, &row).ok());
  EXPECT_EQ((*row)[1].text(), "x");
  ASSERT_TRUE(table.Update(id, {Value::Integer(2), Value::Text("y")}).ok());
  ASSERT_TRUE(table.Get(id, &row).ok());
  EXPECT_EQ((*row)[0].integer(), 2);
  ASSERT_TRUE(table.Delete(id).ok());
  EXPECT_TRUE(table.Get(id, &row).IsNotFound());
  EXPECT_TRUE(table.Delete(id).IsNotFound());
  EXPECT_FALSE(table.Insert({Value::Integer(1)}, &id).ok());  // arity
}

TEST(Table, RecordIdPacking) {
  RecordId id{7, 1234};
  EXPECT_EQ(RecordId::Unpack(id.Pack()), id);
}

TEST(Table, FragmentsRollOver) {
  Table table("t", {{"a", TypeDesc::Integer()}}, /*fragment_capacity=*/4);
  RecordId last{};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table.Insert({Value::Integer(i)}, &last).ok());
  }
  EXPECT_EQ(last.fragment, 2u);
  EXPECT_EQ(last.slot, 1u);
  uint64_t seen = 0;
  ASSERT_TRUE(table.Scan([&](RecordId, const Row&) {
    ++seen;
    return true;
  }).ok());
  EXPECT_EQ(seen, 10u);
}

TEST(Table, StoredRowPointerSurvivesLaterInserts) {
  Table table("t", {{"a", TypeDesc::Integer()}, {"b", TypeDesc::Text()}},
              /*fragment_capacity=*/2);
  RecordId id;
  ASSERT_TRUE(
      table.Insert({Value::Integer(1), Value::Text("first")}, &id).ok());
  const Row* row = nullptr;
  ASSERT_TRUE(table.Get(id, &row).ok());
  // Fill the first fragment and three more: the fragment list grows (and
  // reallocates) past the slot the pointer refers to.
  for (int i = 2; i <= 7; ++i) {
    RecordId other;
    ASSERT_TRUE(
        table.Insert({Value::Integer(i), Value::Text("later")}, &other).ok());
  }
  ASSERT_EQ(table.row_count(), 7u);
  EXPECT_EQ((*row)[0].integer(), 1);
  EXPECT_EQ((*row)[1].text(), "first");
  const Row* again = nullptr;
  ASSERT_TRUE(table.Get(id, &again).ok());
  EXPECT_EQ(again, row);
}

// ----------------------------------------------------- server + plain SQL --

class ServerTest : public ::testing::Test {
 protected:
  Status Exec(const std::string& sql) {
    return server_.Execute(session_, sql, &result_);
  }

  void MustExec(const std::string& sql) {
    Status status = Exec(sql);
    ASSERT_TRUE(status.ok()) << sql << " -> " << status.ToString();
  }

  Server server_;
  ServerSession* session_ = server_.CreateSession();
  ResultSet result_;
};

// A statement that fails part-way through its scan returns no rows, only
// the error (and its messages, such as the plan).
TEST_F(ServerTest, FailedStatementReturnsNoRows) {
  MustExec("CREATE TABLE t (id int, d date, s text)");
  MustExec("INSERT INTO t VALUES (1, '01/01/2001', '01/01/2000')");
  MustExec("INSERT INTO t VALUES (2, '01/01/2001', '06/01/2000')");
  MustExec("INSERT INTO t VALUES (3, '01/01/2001', 'garbage')");
  MustExec("INSERT INTO t VALUES (4, '01/01/2001', '02/01/2000')");
  MustExec("SET EXPLAIN ON");
  Status status = Exec("SELECT id FROM t WHERE s < d");
  ASSERT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("cannot compare values of different types"),
            std::string::npos);
  EXPECT_TRUE(result_.rows.empty()) << result_.ToString();
  ASSERT_EQ(result_.messages.size(), 1u);
  EXPECT_EQ(result_.messages[0], "PLAN: sequential scan");
}

// A statement rejected before it runs (a parse error, a script that does
// not parse, a '?' where EXECUTE needs a value) leaves nothing of the
// previous statement's answer in a reused ResultSet.
TEST_F(ServerTest, RejectedStatementClearsAReusedResultSet) {
  MustExec("CREATE TABLE t (a int)");
  MustExec("INSERT INTO t VALUES (1)");
  MustExec("INSERT INTO t VALUES (2)");
  MustExec("PREPARE p AS SELECT a FROM t WHERE a > ?");
  auto expect_cleared = [&](const Status& status, const char* what) {
    EXPECT_TRUE(status.IsInvalidArgument()) << what << ": "
                                            << status.ToString();
    EXPECT_TRUE(result_.columns.empty()) << what;
    EXPECT_TRUE(result_.rows.empty()) << what;
    EXPECT_TRUE(result_.messages.empty()) << what;
    EXPECT_EQ(result_.affected, 0u) << what;
  };
  auto fill = [&] {
    MustExec("SELECT a FROM t");
    ASSERT_EQ(result_.columns.size(), 1u);
    ASSERT_EQ(result_.rows.size(), 2u);
    ASSERT_EQ(result_.affected, 2u);
    result_.messages.push_back("left over");
  };
  fill();
  expect_cleared(Exec("SELEC a FROM t"), "parse error");
  fill();
  expect_cleared(server_.ExecuteScript(session_, "SELECT a FROM t; SELEC a",
                                       &result_),
                 "script parse error");
  fill();
  sql::Literal param;
  param.kind = sql::Literal::Kind::kParam;
  expect_cleared(server_.ExecutePrepared(session_, "p", {param}, &result_),
                 "'?' argument");
}

TEST_F(ServerTest, CreateInsertSelect) {
  MustExec("CREATE TABLE emp (name text, salary int, hired date)");
  MustExec("INSERT INTO emp VALUES ('ann', 100, '01/15/1995')");
  MustExec("INSERT INTO emp VALUES ('bob', 200, '03/02/1996')");
  MustExec("SELECT name, salary FROM emp WHERE salary > 150");
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "bob");
  MustExec("SELECT COUNT(*) FROM emp");
  EXPECT_EQ(result_.rows[0][0], "2");
  MustExec("SELECT * FROM emp WHERE hired < '01/01/1996'");
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][2], "01/15/1995");
}

TEST_F(ServerTest, UpdateAndDelete) {
  MustExec("CREATE TABLE t (a int, b text)");
  MustExec("INSERT INTO t VALUES (1, 'x')");
  MustExec("INSERT INTO t VALUES (2, 'y')");
  MustExec("UPDATE t SET b = 'z' WHERE a = 2");
  EXPECT_EQ(result_.affected, 1u);
  MustExec("SELECT b FROM t WHERE a = 2");
  EXPECT_EQ(result_.rows[0][0], "z");
  MustExec("DELETE FROM t WHERE a = 1");
  EXPECT_EQ(result_.affected, 1u);
  MustExec("SELECT COUNT(*) FROM t");
  EXPECT_EQ(result_.rows[0][0], "1");
}

TEST_F(ServerTest, ErrorsAreReported) {
  EXPECT_TRUE(Exec("SELECT * FROM missing").IsNotFound());
  MustExec("CREATE TABLE t (a int)");
  EXPECT_TRUE(Exec("CREATE TABLE t (a int)").IsAlreadyExists());
  EXPECT_TRUE(Exec("INSERT INTO t VALUES (1, 2)").IsInvalidArgument());
  EXPECT_TRUE(Exec("INSERT INTO t VALUES ('nope')").IsInvalidArgument());
  EXPECT_TRUE(Exec("SELECT missing_col FROM t").IsNotFound());
  EXPECT_TRUE(Exec("CREATE TABLE u (a nonsense_type)").IsNotFound());
  EXPECT_TRUE(
      Exec("CREATE INDEX i ON t(a) USING no_such_am").IsNotFound());
}

TEST_F(ServerTest, TransactionsAndIsolation) {
  MustExec("CREATE TABLE t (a int)");
  MustExec("SET ISOLATION TO REPEATABLE READ");
  EXPECT_EQ(session_->txn_session().isolation(),
            IsolationLevel::kRepeatableRead);
  MustExec("BEGIN WORK");
  MustExec("INSERT INTO t VALUES (1)");
  MustExec("COMMIT WORK");
  EXPECT_TRUE(Exec("COMMIT WORK").IsInvalidArgument());
  MustExec("BEGIN WORK");
  MustExec("ROLLBACK WORK");
}

TEST_F(ServerTest, SetCurrentTimeMovesTheClock) {
  MustExec("SET CURRENT_TIME TO '06/15/1997'");
  int64_t expected;
  ASSERT_TRUE(ParseDate("06/15/1997", &expected).ok());
  EXPECT_EQ(server_.current_time(), expected);
  MustExec("SET CURRENT_TIME TO 12345");
  EXPECT_EQ(server_.current_time(), 12345);
}

// A date literal or SET CURRENT_TIME date with a field wider than an int
// is an error, not a wrapped-around 12/10/1995.
TEST_F(ServerTest, OversizedDateFieldsAreRejected) {
  MustExec("CREATE TABLE t (d date)");
  MustExec("SET CURRENT_TIME TO 12345");
  for (const std::string text :
       {"4294967308/10/1995", "12/4294967306/1995", "12/10/4294969291"}) {
    EXPECT_TRUE(Exec("INSERT INTO t VALUES ('" + text + "')")
                    .IsInvalidArgument())
        << text;
    EXPECT_TRUE(Exec("SET CURRENT_TIME TO '" + text + "'").IsInvalidArgument())
        << text;
  }
  EXPECT_EQ(server_.current_time(), 12345);
  MustExec("SELECT COUNT(*) FROM t");
  EXPECT_EQ(result_.rows[0][0], "0");
}

TEST_F(ServerTest, OutOfRangeLiteralsAreRejected) {
  MustExec("CREATE TABLE t (a int, b float)");
  EXPECT_TRUE(Exec("INSERT INTO t VALUES (99999999999999999999, 1.0)")
                  .IsInvalidArgument());
  EXPECT_TRUE(Exec("INSERT INTO t VALUES (1, " + std::string(400, '9') +
                   ".0)")
                  .IsInvalidArgument());
  MustExec("INSERT INTO t VALUES (-9223372036854775808, 1.0)");
  MustExec("SELECT a FROM t");
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "-9223372036854775808");
}

std::string Repeat(const std::string& piece, size_t times) {
  std::string out;
  for (size_t i = 0; i < times; ++i) out += piece;
  return out;
}

// Expressions nested past the parser's bound are InvalidArgument; long
// AND/OR chains, which are flat, still answer.
TEST_F(ServerTest, DeepExpressionsAreRejectedAndLongChainsAnswer) {
  MustExec("CREATE TABLE t (id int)");
  for (int id = 0; id < 10; ++id) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(id) + ")");
  }
  const std::string select = "SELECT id FROM t WHERE ";
  EXPECT_TRUE(Exec(select + Repeat("(", 20000) + "id = 1" +
                   Repeat(")", 20000))
                  .IsInvalidArgument());
  EXPECT_TRUE(Exec(select + Repeat("NOT ", 100000) + "id = 1")
                  .IsInvalidArgument());

  MustExec(select + "id = 1" + Repeat(" AND id = 1", 20000));
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "1");
  MustExec(select + "id = 3" + Repeat(" OR id = 99", 20000) + " OR id = 4");
  EXPECT_EQ(result_.rows.size(), 2u);
  MustExec("DELETE FROM t WHERE id = 5" + Repeat(" AND NOT id = 6", 20000));
  EXPECT_EQ(result_.affected, 1u);
  MustExec("SELECT COUNT(*) FROM t");
  EXPECT_EQ(result_.rows[0][0], "9");
}

TEST_F(ServerTest, ExplainShowsSequentialScan) {
  MustExec("CREATE TABLE t (a int)");
  MustExec("SET EXPLAIN ON");
  MustExec("SELECT * FROM t WHERE a = 1");
  ASSERT_EQ(result_.messages.size(), 1u);
  EXPECT_EQ(result_.messages[0], "PLAN: sequential scan");
}

// ------------------------------------- a synthetic AM to probe the VII ----

// A trivial access method that stores (value, rowid) pairs in memory and
// supports the strategy function IsEven(int): lets us assert the exact
// Fig. 6 call sequences and optimizer behaviour without the GR-tree.
struct ToyIndexState {
  std::vector<std::pair<int64_t, uint64_t>> entries;
};

std::map<std::string, ToyIndexState>& ToyStore() {
  static auto* store = new std::map<std::string, ToyIndexState>();
  return *store;
}

struct ToyScan {
  size_t next = 0;
};

void RegisterToyBlade(Server* server) {
  BladeLibrary* library = server->blade_libraries().Load("toy.bld");
  library->Export(
      "toy_iseven",
      std::any(UdrFunction([](MiCallContext&, std::span<const Value> args)
                               -> StatusOr<Value> {
        return Value::Boolean(args[0].integer() % 2 == 0);
      })));
  library->Export("toy_create", std::any(AmSimpleFn(
                                    [](MiCallContext&, MiAmTableDesc* desc) {
                                      ToyStore()[desc->index->name] = {};
                                      return Status::OK();
                                    })));
  library->Export("toy_drop", std::any(AmSimpleFn(
                                  [](MiCallContext&, MiAmTableDesc* desc) {
                                    ToyStore().erase(desc->index->name);
                                    return Status::OK();
                                  })));
  library->Export("toy_open", std::any(AmSimpleFn(
                                  [](MiCallContext&, MiAmTableDesc*) {
                                    return Status::OK();
                                  })));
  library->Export("toy_close", std::any(AmSimpleFn(
                                   [](MiCallContext&, MiAmTableDesc*) {
                                     return Status::OK();
                                   })));
  library->Export(
      "toy_insert",
      std::any(AmModifyFn([](MiCallContext&, MiAmTableDesc* desc,
                             const Row& keyrow, uint64_t rowid) {
        ToyStore()[desc->index->name].entries.emplace_back(
            keyrow[0].integer(), rowid);
        return Status::OK();
      })));
  library->Export(
      "toy_delete",
      std::any(AmModifyFn([](MiCallContext&, MiAmTableDesc* desc,
                             const Row& keyrow, uint64_t rowid) {
        auto& entries = ToyStore()[desc->index->name].entries;
        for (auto it = entries.begin(); it != entries.end(); ++it) {
          if (it->first == keyrow[0].integer() && it->second == rowid) {
            entries.erase(it);
            return Status::OK();
          }
        }
        return Status::NotFound("toy entry");
      })));
  library->Export("toy_beginscan",
                  std::any(AmScanFn([](MiCallContext&, MiAmScanDesc* sd) {
                    sd->user_data = new ToyScan();
                    return Status::OK();
                  })));
  library->Export("toy_endscan",
                  std::any(AmScanFn([](MiCallContext&, MiAmScanDesc* sd) {
                    delete static_cast<ToyScan*>(sd->user_data);
                    sd->user_data = nullptr;
                    return Status::OK();
                  })));
  library->Export(
      "toy_getnext",
      std::any(AmGetNextFn([](MiCallContext& ctx, MiAmScanDesc* sd,
                              bool* has, uint64_t* retrowid) {
        auto* scan = static_cast<ToyScan*>(sd->user_data);
        auto& entries = ToyStore()[sd->table_desc->index->name].entries;
        *has = false;
        while (scan->next < entries.size()) {
          const auto& [value, rowid] = entries[scan->next++];
          bool matches = false;
          GRTDB_RETURN_IF_ERROR(EvaluateQualOnValue(
              ctx, *sd->qual, Value::Integer(value), &matches));
          if (!matches) continue;
          *retrowid = rowid;
          *has = true;
          break;
        }
        return Status::OK();
      })));
  library->Export(
      "toy_scancost",
      std::any(AmScanCostFn([](MiCallContext&, MiAmTableDesc* desc,
                               const MiAmQualDesc*, double* cost) {
        *cost = static_cast<double>(
                    ToyStore()[desc->index->name].entries.size()) /
                4.0;
        return Status::OK();
      })));

  ServerSession* session = server->CreateSession();
  ResultSet result;
  Status status = server->ExecuteScript(session, R"SQL(
    CREATE FUNCTION IsEven(int) RETURNING boolean
      EXTERNAL NAME 'toy.bld(toy_iseven)' LANGUAGE c;
    CREATE FUNCTION toy_create(pointer) RETURNING int EXTERNAL NAME 'toy.bld(toy_create)' LANGUAGE c;
    CREATE FUNCTION toy_drop(pointer) RETURNING int EXTERNAL NAME 'toy.bld(toy_drop)' LANGUAGE c;
    CREATE FUNCTION toy_open(pointer) RETURNING int EXTERNAL NAME 'toy.bld(toy_open)' LANGUAGE c;
    CREATE FUNCTION toy_close(pointer) RETURNING int EXTERNAL NAME 'toy.bld(toy_close)' LANGUAGE c;
    CREATE FUNCTION toy_insert(pointer) RETURNING int EXTERNAL NAME 'toy.bld(toy_insert)' LANGUAGE c;
    CREATE FUNCTION toy_delete(pointer) RETURNING int EXTERNAL NAME 'toy.bld(toy_delete)' LANGUAGE c;
    CREATE FUNCTION toy_beginscan(pointer) RETURNING int EXTERNAL NAME 'toy.bld(toy_beginscan)' LANGUAGE c;
    CREATE FUNCTION toy_endscan(pointer) RETURNING int EXTERNAL NAME 'toy.bld(toy_endscan)' LANGUAGE c;
    CREATE FUNCTION toy_getnext(pointer) RETURNING int EXTERNAL NAME 'toy.bld(toy_getnext)' LANGUAGE c;
    CREATE FUNCTION toy_scancost(pointer) RETURNING float EXTERNAL NAME 'toy.bld(toy_scancost)' LANGUAGE c;
    CREATE SECONDARY ACCESS_METHOD toy_am (
      am_create = toy_create, am_drop = toy_drop,
      am_open = toy_open, am_close = toy_close,
      am_beginscan = toy_beginscan, am_endscan = toy_endscan,
      am_getnext = toy_getnext,
      am_insert = toy_insert, am_delete = toy_delete,
      am_scancost = toy_scancost, am_sptype = 'S');
    CREATE DEFAULT OPCLASS toy_opclass FOR toy_am
      STRATEGIES(IsEven) SUPPORT(IsEven);
  )SQL",
                                        &result);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(server->CloseSession(session).ok());
}

class ToyAmTest : public ServerTest {
 protected:
  void SetUp() override {
    RegisterToyBlade(&server_);
    MustExec("CREATE TABLE nums (n int, tag text)");
    MustExec("CREATE INDEX toy_idx ON nums(n) USING toy_am");
    for (int i = 1; i <= 8; ++i) {
      MustExec("INSERT INTO nums VALUES (" + std::to_string(i) + ", 'r" +
               std::to_string(i) + "')");
    }
  }

  void TearDown() override { ToyStore().clear(); }
};

TEST_F(ToyAmTest, Figure6InsertSequence) {
  MustExec("INSERT INTO nums VALUES (9, 'nine')");
  // Fig. 6(a): am_open -> am_insert -> am_close.
  EXPECT_EQ(session_->purpose_log(),
            (std::vector<std::string>{"toy_open", "toy_insert",
                                      "toy_close"}));
}

TEST_F(ToyAmTest, Figure6SelectSequence) {
  MustExec("SELECT n FROM nums WHERE IsEven(n)");
  EXPECT_EQ(result_.rows.size(), 4u);
  // Fig. 6(b): am_open -> am_beginscan -> am_getnext* -> am_endscan ->
  // am_close, with the planner's scancost probe inside the one open.
  std::vector<std::string> expected = {"toy_open", "toy_scancost",
                                       "toy_beginscan"};
  // 4 matches + the exhausted call = 5 getnexts.
  for (int i = 0; i < 5; ++i) expected.push_back("toy_getnext");
  expected.push_back("toy_endscan");
  expected.push_back("toy_close");
  EXPECT_EQ(session_->purpose_log(), expected);
}

TEST_F(ToyAmTest, OptimizerUsesIndexOnlyForStrategyFunctions) {
  MustExec("SET EXPLAIN ON");
  MustExec("SELECT n FROM nums WHERE IsEven(n)");
  ASSERT_FALSE(result_.messages.empty());
  EXPECT_NE(result_.messages[0].find("index scan on toy_idx"),
            std::string::npos);
  // A non-strategy predicate cannot use the index.
  MustExec("SELECT n FROM nums WHERE n > 3");
  EXPECT_EQ(result_.messages[0], "PLAN: sequential scan");
  EXPECT_EQ(result_.rows.size(), 5u);
}

TEST_F(ToyAmTest, ResidualPredicatesFilterIndexResults) {
  MustExec("SELECT tag FROM nums WHERE IsEven(n) AND n > 5");
  ASSERT_EQ(result_.rows.size(), 2u);  // 6 and 8
  EXPECT_EQ(result_.rows[0][0], "r6");
  EXPECT_EQ(result_.rows[1][0], "r8");
}

TEST_F(ToyAmTest, DeleteMaintainsIndex) {
  MustExec("DELETE FROM nums WHERE IsEven(n)");
  EXPECT_EQ(result_.affected, 4u);
  EXPECT_EQ(ToyStore()["toy_idx"].entries.size(), 4u);
  MustExec("SELECT COUNT(*) FROM nums WHERE IsEven(n)");
  EXPECT_EQ(result_.rows[0][0], "0");
  MustExec("SELECT COUNT(*) FROM nums");
  EXPECT_EQ(result_.rows[0][0], "4");
}

TEST_F(ToyAmTest, DropIndexInvokesAmDrop) {
  ASSERT_EQ(ToyStore().count("toy_idx"), 1u);
  MustExec("DROP INDEX toy_idx");
  EXPECT_EQ(ToyStore().count("toy_idx"), 0u);
  // The optimizer falls back to a sequential scan afterwards.
  MustExec("SET EXPLAIN ON");
  MustExec("SELECT n FROM nums WHERE IsEven(n)");
  EXPECT_EQ(result_.messages[0], "PLAN: sequential scan");
  EXPECT_EQ(result_.rows.size(), 4u);
}

TEST_F(ToyAmTest, CreateIndexBuildsFromExistingRows) {
  // The fixture created the index before inserting: recreate after.
  MustExec("DROP INDEX toy_idx");
  ToyStore().clear();
  MustExec("CREATE INDEX toy_idx2 ON nums(n) USING toy_am");
  EXPECT_EQ(ToyStore()["toy_idx2"].entries.size(), 8u);
  const auto& log = session_->purpose_log();
  ASSERT_GE(log.size(), 3u);
  EXPECT_EQ(log.front(), "toy_create");
  EXPECT_EQ(log[1], "toy_open");
  EXPECT_EQ(log.back(), "toy_close");
}

TEST_F(ToyAmTest, DuplicateIndexRejected) {
  EXPECT_TRUE(
      Exec("CREATE INDEX toy_idx ON nums(n) USING toy_am").IsAlreadyExists());
}

TEST_F(ToyAmTest, MultiColumnIndexRejected) {
  EXPECT_TRUE(Exec("CREATE INDEX two ON nums(n toy_opclass, tag toy_opclass)"
                   " USING toy_am")
                  .IsNotSupported());
}

// A CREATE INDEX whose build pass fails (am_insert errors on an existing
// row) must unwind completely: drop the half-registered catalog entry,
// roll back the implicit transaction, end the per-transaction duration,
// and surface the blade's error unmasked. The pre-fix code left the
// catalog entry and the implicit transaction dangling (found by
// grtdb_analyze's resource-balance walk over the error paths).
TEST_F(ToyAmTest, FailedIndexBuildCleansUpCatalogAndTxn) {
  BladeLibrary* library = server_.blade_libraries().Load("toy.bld");
  library->Export(
      "boom_insert",
      std::any(AmModifyFn([](MiCallContext&, MiAmTableDesc*, const Row&,
                             uint64_t) {
        return Status::Aborted("toy build boom");
      })));
  MustExec(
      "CREATE FUNCTION boom_insert(pointer) RETURNING int "
      "EXTERNAL NAME 'toy.bld(boom_insert)' LANGUAGE c");
  MustExec(
      "CREATE SECONDARY ACCESS_METHOD boom_am ("
      "am_create = toy_create, am_drop = toy_drop, "
      "am_open = toy_open, am_close = toy_close, "
      "am_beginscan = toy_beginscan, am_endscan = toy_endscan, "
      "am_getnext = toy_getnext, "
      "am_insert = boom_insert, am_delete = toy_delete, "
      "am_scancost = toy_scancost, am_sptype = 'S')");
  MustExec(
      "CREATE DEFAULT OPCLASS boom_opclass FOR boom_am "
      "STRATEGIES(IsEven) SUPPORT(IsEven)");

  void* txn_block = session_->memory().Alloc(MiDuration::kPerTransaction, 32);
  ASSERT_NE(txn_block, nullptr);
  Status status = Exec("CREATE INDEX boom_idx ON nums(n) USING boom_am");
  EXPECT_TRUE(status.IsAborted()) << status.ToString();
  EXPECT_NE(status.message().find("toy build boom"), std::string::npos)
      << status.ToString();
  // Catalog clean: the half-registered index is gone, so dropping it is
  // NotFound rather than finding a poisoned entry.
  EXPECT_TRUE(Exec("DROP INDEX boom_idx").IsNotFound());
  // The implicit transaction was rolled back, and its duration ended.
  EXPECT_EQ(session_->txn_session().current_txn(), nullptr);
  EXPECT_EQ(session_->memory().LiveBlocks(MiDuration::kPerTransaction), 0u);
  EXPECT_EQ(session_->memory().violation_count(), 0u);
  // The session is still fully usable.
  MustExec("SELECT COUNT(*) FROM nums");
  EXPECT_EQ(result_.rows[0][0], "8");
}

// A statement whose planner probe fails (am_scancost errors) fails, and its
// close pass still runs am_close once for every index it opened: a second
// access method on the same column, whose open and close have names of
// their own, makes the two indexes' calls tell apart.
TEST_F(ToyAmTest, FailedCostProbeClosesEveryOpenedIndex) {
  BladeLibrary* library = server_.blade_libraries().Load("toy.bld");
  library->Export("boom_open", std::any(AmSimpleFn(
                                   [](MiCallContext&, MiAmTableDesc*) {
                                     return Status::OK();
                                   })));
  library->Export("boom_close", std::any(AmSimpleFn(
                                    [](MiCallContext&, MiAmTableDesc*) {
                                      return Status::OK();
                                    })));
  library->Export(
      "boom_scancost",
      std::any(AmScanCostFn([](MiCallContext&, MiAmTableDesc*,
                               const MiAmQualDesc*, double*) {
        return Status::Aborted("toy cost boom");
      })));
  for (const char* fn : {"boom_open", "boom_close"}) {
    MustExec(std::string("CREATE FUNCTION ") + fn +
             "(pointer) RETURNING int EXTERNAL NAME 'toy.bld(" + fn +
             ")' LANGUAGE c");
  }
  MustExec(
      "CREATE FUNCTION boom_scancost(pointer) RETURNING float "
      "EXTERNAL NAME 'toy.bld(boom_scancost)' LANGUAGE c");
  MustExec(
      "CREATE SECONDARY ACCESS_METHOD boom_am ("
      "am_create = toy_create, am_drop = toy_drop, "
      "am_open = boom_open, am_close = boom_close, "
      "am_beginscan = toy_beginscan, am_endscan = toy_endscan, "
      "am_getnext = toy_getnext, "
      "am_insert = toy_insert, am_delete = toy_delete, "
      "am_scancost = boom_scancost, am_sptype = 'S')");
  MustExec(
      "CREATE DEFAULT OPCLASS boom_opclass FOR boom_am "
      "STRATEGIES(IsEven) SUPPORT(IsEven)");
  MustExec("CREATE INDEX boom_idx ON nums(n) USING boom_am");

  for (const char* sql : {"SELECT n FROM nums WHERE IsEven(n)",
                          "DELETE FROM nums WHERE IsEven(n)"}) {
    Status status = Exec(sql);
    EXPECT_TRUE(status.IsAborted()) << sql << " -> " << status.ToString();
    std::map<std::string, int> calls;
    for (const std::string& call : session_->purpose_log()) ++calls[call];
    EXPECT_EQ(calls["boom_scancost"], 1) << sql;
    EXPECT_EQ(calls["boom_open"], 1) << sql;
    EXPECT_EQ(calls["boom_close"], 1) << sql;
    EXPECT_LE(calls["toy_open"], 1) << sql;
    EXPECT_EQ(calls["toy_close"], calls["toy_open"]) << sql;
    EXPECT_NE(session_->purpose_log().back().find("_close"),
              std::string::npos)
        << sql;
    EXPECT_EQ(session_->txn_session().current_txn(), nullptr) << sql;
  }
  // DELETE opened both indexes before the planner probed them.
  std::map<std::string, int> calls;
  for (const std::string& call : session_->purpose_log()) ++calls[call];
  EXPECT_EQ(calls["toy_open"], 1);
  MustExec("SELECT COUNT(*) FROM nums");
  EXPECT_EQ(result_.rows[0][0], "8");
}

// ------------------------------------------- session-lifetime regressions --

// A failing statement mid-script must still tear down the per-statement /
// per-function durations of the statements that ran — the pre-fix code
// returned early and leaked every per-statement block. The UDR allocates
// per-statement memory from the executing session before the script hits
// its failing statement.
TEST_F(ServerTest, ExecuteScriptEndsDurationsOnFailure) {
  BladeLibrary* library = server_.blade_libraries().Load("leak.bld");
  library->Export(
      "leak_alloc",
      std::any(UdrFunction([](MiCallContext& ctx, std::span<const Value>)
                               -> StatusOr<Value> {
        void* p = ctx.session->memory().Alloc(MiDuration::kPerStatement, 64);
        EXPECT_NE(p, nullptr);
        return Value::Boolean(true);
      })));
  // Allocates per-statement memory, then fails the statement — the block
  // is live at the moment the script's early-return path used to fire.
  library->Export(
      "leak_boom",
      std::any(UdrFunction([](MiCallContext& ctx, std::span<const Value>)
                               -> StatusOr<Value> {
        void* p = ctx.session->memory().Alloc(MiDuration::kPerStatement, 64);
        EXPECT_NE(p, nullptr);
        return Status::Aborted("leak_boom");
      })));
  MustExec(
      "CREATE FUNCTION LeakAlloc(int) RETURNING boolean "
      "EXTERNAL NAME 'leak.bld(leak_alloc)' LANGUAGE c");
  MustExec(
      "CREATE FUNCTION LeakBoom(int) RETURNING boolean "
      "EXTERNAL NAME 'leak.bld(leak_boom)' LANGUAGE c");
  MustExec("CREATE TABLE lt (a int)");
  MustExec("INSERT INTO lt VALUES (1)");

  Status status = server_.ExecuteScript(
      session_,
      "SELECT * FROM lt WHERE LeakAlloc(a); "
      "SELECT * FROM lt WHERE LeakBoom(a); "
      "INSERT INTO lt VALUES (2);",
      &result_);
  EXPECT_TRUE(status.IsAborted()) << status.ToString();
  // The duration-enforcement canaries: a leaked per-statement block would
  // still be live on the session's allocator.
  EXPECT_EQ(session_->memory().LiveBlocks(MiDuration::kPerStatement), 0u);
  EXPECT_EQ(session_->memory().LiveBlocks(MiDuration::kPerFunction), 0u);
  EXPECT_EQ(session_->memory().violation_count(), 0u);
}

// COMMIT/ROLLBACK WORK with no open transaction errors — but the
// per-transaction duration must still end: the pre-fix visitors returned
// the transaction manager's error before EndDuration, leaking every
// per-transaction block on the error path (found by grtdb_analyze's
// commit-duration follow check).
TEST_F(ServerTest, FailedTxnEndStillEndsPerTxnDuration) {
  ASSERT_NE(session_->memory().Alloc(MiDuration::kPerTransaction, 16),
            nullptr);
  EXPECT_TRUE(Exec("COMMIT WORK").IsInvalidArgument());
  EXPECT_EQ(session_->memory().LiveBlocks(MiDuration::kPerTransaction), 0u);
  ASSERT_NE(session_->memory().Alloc(MiDuration::kPerTransaction, 16),
            nullptr);
  EXPECT_TRUE(Exec("ROLLBACK WORK").IsInvalidArgument());
  EXPECT_EQ(session_->memory().LiveBlocks(MiDuration::kPerTransaction), 0u);
  EXPECT_EQ(session_->memory().violation_count(), 0u);
}

// CloseSession must (a) refuse a session it never registered without
// mutating any state, and (b) end PER_SESSION memory only for the closing
// session — the pre-fix code rolled back and ended durations before the
// registration check, and ended the shared allocator's PER_SESSION
// duration, freeing every session's blocks.
TEST(ServerSessions, CloseSessionIsScopedAndChecksRegistration) {
  Server server;
  ServerSession* a = server.CreateSession();
  ServerSession* b = server.CreateSession();
  void* a_block = a->memory().Alloc(MiDuration::kPerSession, 32);
  void* b_block = b->memory().Alloc(MiDuration::kPerSession, 32);
  ASSERT_NE(a_block, nullptr);
  ASSERT_NE(b_block, nullptr);

  // A session registered with a *different* server: NotFound, and the
  // foreign session's transaction and memory stay untouched.
  Server other;
  ServerSession* foreign = other.CreateSession();
  ResultSet result;
  ASSERT_TRUE(other.Execute(foreign, "BEGIN WORK", &result).ok());
  EXPECT_TRUE(server.CloseSession(foreign).IsNotFound());
  EXPECT_NE(foreign->txn_session().current_txn(), nullptr);
  ASSERT_TRUE(other.Execute(foreign, "ROLLBACK WORK", &result).ok());
  ASSERT_TRUE(other.CloseSession(foreign).ok());

  // Closing a ends a's PER_SESSION memory — and only a's: b's block is
  // still live afterwards.
  EXPECT_TRUE(server.CloseSession(a).ok());
  EXPECT_EQ(b->memory().LiveBlocks(MiDuration::kPerSession), 1u);
  EXPECT_EQ(b->memory().violation_count(), 0u);
  EXPECT_TRUE(server.CloseSession(b).ok());
}

}  // namespace
}  // namespace grtdb
