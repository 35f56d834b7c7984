#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "blades/btree_blade.h"
#include "blades/grtree_blade.h"
#include "server/server.h"

namespace grtdb {
namespace {

class CatalogFixture : public ::testing::Test {
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
  std::set<std::string> Column0() {
    std::set<std::string> out;
    for (const auto& row : result_.rows) out.insert(row[0]);
    return out;
  }

  Server server_;
  ServerSession* session_ = nullptr;
  ResultSet result_;
};

// ------------------------------------------------------- system catalogs --

TEST_F(CatalogFixture, SysamsListsRegisteredAccessMethods) {
  MustExec("SELECT amname FROM sysams");
  EXPECT_EQ(Column0(), (std::set<std::string>{"btree_am", "grtree_am"}));
  MustExec("SELECT defaultopclass FROM sysams WHERE amname = 'grtree_am'");
  EXPECT_EQ(Column0(), (std::set<std::string>{"grt_opclass"}));
}

TEST_F(CatalogFixture, SysindicesTracksCreateAndDrop) {
  MustExec("CREATE TABLE t (e grt_timeextent)");
  MustExec("CREATE INDEX t_idx ON t(e) USING grtree_am");
  MustExec("SELECT idxname, amname FROM sysindices");
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "t_idx");
  EXPECT_EQ(result_.rows[0][1], "grtree_am");
  MustExec("DROP INDEX t_idx");
  MustExec("SELECT COUNT(*) FROM sysindices");
  EXPECT_EQ(result_.rows[0][0], "0");
}

TEST_F(CatalogFixture, SysopclassesShowStrategiesAndSupport) {
  MustExec(
      "SELECT strategies FROM sysopclasses WHERE opclassname = "
      "'grt_opclass'");
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "Overlaps, Contains, ContainedIn, Equal");
  MustExec(
      "SELECT support FROM sysopclasses WHERE opclassname = 'grt_opclass'");
  EXPECT_EQ(result_.rows[0][0], "grt_union, grt_size, grt_intersection");
}

TEST_F(CatalogFixture, SysproceduresIncludesStrategyFunctions) {
  MustExec("SELECT externalname FROM sysprocedures "
           "WHERE procname = 'Overlaps'");
  ASSERT_EQ(result_.rows.size(), 1u);
  EXPECT_EQ(result_.rows[0][0], "usr/functions/grtree.bld(grt_overlaps)");
}

TEST_F(CatalogFixture, SystablesCountsRows) {
  MustExec("CREATE TABLE people (name text)");
  MustExec("INSERT INTO people VALUES ('a')");
  MustExec("INSERT INTO people VALUES ('b')");
  MustExec("SELECT nrows FROM systables WHERE tabname = 'people'");
  EXPECT_EQ(result_.rows[0][0], "2");
}

TEST_F(CatalogFixture, SystemTablesAreReadOnly) {
  Status insert = Exec("INSERT INTO sysams VALUES ('x','S','y','z')");
  EXPECT_TRUE(insert.IsInvalidArgument()) << insert.ToString();
  EXPECT_NE(insert.message().find("read-only"), std::string::npos);
  Status del = Exec("DELETE FROM sysams");
  EXPECT_TRUE(del.IsInvalidArgument()) << del.ToString();
  EXPECT_NE(del.message().find("read-only"), std::string::npos);
}

// ----------------------------------------------------------- LOAD/UNLOAD --

TEST_F(CatalogFixture, LoadAndUnloadRoundTripThroughImportExport) {
  const std::string dir = ::testing::TempDir();
  const std::string in_path = dir + "/grtdb_load_test.unl";
  {
    std::ofstream out(in_path);
    out << "alpha|1|10000, UC, 9990, NOW\n";
    out << "beta|2|9000, 9500, 8000, 8200\n";
    out << "\n";  // blank lines are skipped
    out << "gamma|3|10000, UC, 10000, NOW\n";
  }
  MustExec("SET CURRENT_TIME TO 10000");
  MustExec("CREATE TABLE h (name text, id int, e grt_timeextent)");
  MustExec("CREATE INDEX h_idx ON h(e) USING grtree_am");
  MustExec("LOAD FROM '" + in_path + "' INSERT INTO h");
  EXPECT_EQ(result_.affected, 3u);
  // The loaded rows are indexed (LOAD goes through am_insert).
  MustExec("SELECT name FROM h WHERE Overlaps(e, '10000, UC, 9995, NOW')");
  EXPECT_EQ(Column0(), (std::set<std::string>{"alpha", "gamma"}));

  const std::string out_path = dir + "/grtdb_unload_test.unl";
  MustExec("UNLOAD TO '" + out_path + "' SELECT * FROM h WHERE id > 1");
  EXPECT_EQ(result_.affected, 2u);
  std::ifstream in(out_path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "beta|2|08/23/1994, 01/05/1996, 11/27/1991, 06/14/1992");
  std::getline(in, line);
  EXPECT_EQ(line, "gamma|3|05/19/1997, UC, 05/19/1997, NOW");  // day 10000
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST_F(CatalogFixture, LoadRejectsMalformedRows) {
  const std::string path = ::testing::TempDir() + "/grtdb_badload.unl";
  MustExec("CREATE TABLE t (a int, b text)");
  {
    std::ofstream out(path);
    out << "1|x|extra\n";
  }
  Status status = Exec("LOAD FROM '" + path + "' INSERT INTO t");
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find(":1:"), std::string::npos);
  EXPECT_TRUE(Exec("LOAD FROM '/no/such/file' INSERT INTO t").IsIOError());
  std::remove(path.c_str());
}

// A number field that is not wholly a number, or does not fit its column,
// is rejected with its file and line, not clamped or cut short.
TEST_F(CatalogFixture, LoadRejectsMalformedNumbers) {
  const std::string path = ::testing::TempDir() + "/grtdb_badnumber.unl";
  MustExec("CREATE TABLE t (a int, b float)");
  for (const std::string& line : std::vector<std::string>{
           "abc|1.0", "12x|1.0", "-99999999999999999999|1.0", "|1.0",
           "1|zz", "1|2.5y", "1|" + std::string(400, '9')}) {
    {
      std::ofstream out(path);
      out << "7|0.5\n" << line << "\n";
    }
    const Status status = Exec("LOAD FROM '" + path + "' INSERT INTO t");
    EXPECT_TRUE(status.IsInvalidArgument()) << line << " -> "
                                            << status.ToString();
    EXPECT_NE(status.message().find(path + ":2:"), std::string::npos)
        << status.message();
  }
  std::remove(path.c_str());
}

// ---------------------------------------------- negator / commutator ----

TEST_F(CatalogFixture, NegatorEnablesIndexUnderNot) {
  // NotEqualInt declares Equal (a B-tree strategy) as its negator, so
  // WHERE NOT NotEqualInt(k, c) plans as an Equal index scan.
  BladeLibrary* library =
      server_.blade_libraries().Load("usr/functions/extra.bld");
  library->Export(
      "not_equal_int",
      std::any(UdrFunction([](MiCallContext&, std::span<const Value> args)
                               -> StatusOr<Value> {
        return Value::Boolean(args[0].integer() != args[1].integer());
      })));
  MustExec("CREATE FUNCTION NotEqualInt(int, int) RETURNING boolean "
           "EXTERNAL NAME 'usr/functions/extra.bld(not_equal_int)' "
           "LANGUAGE c NEGATOR = Equal");
  MustExec("CREATE TABLE nums (k int)");
  MustExec("CREATE INDEX k_idx ON nums(k) USING btree_am");
  for (int i = 0; i < 10; ++i) {
    MustExec("INSERT INTO nums VALUES (" + std::to_string(i % 5) + ")");
  }
  MustExec("SET EXPLAIN ON");
  MustExec("SELECT k FROM nums WHERE NOT NotEqualInt(k, 3)");
  ASSERT_FALSE(result_.messages.empty());
  EXPECT_NE(result_.messages[0].find("index scan on k_idx"),
            std::string::npos);
  EXPECT_EQ(result_.rows.size(), 2u);
}

TEST_F(CatalogFixture, CommutatorEnablesIndexForSwappedArguments) {
  // Below(a, b) = a < b is not a strategy function, but it declares
  // GreaterThan as its commutator: Below(5, k) rewrites to
  // GreaterThan(k, 5) and uses the index.
  BladeLibrary* library =
      server_.blade_libraries().Load("usr/functions/extra.bld");
  library->Export(
      "below_int",
      std::any(UdrFunction([](MiCallContext&, std::span<const Value> args)
                               -> StatusOr<Value> {
        return Value::Boolean(args[0].integer() < args[1].integer());
      })));
  MustExec("CREATE FUNCTION Below(int, int) RETURNING boolean "
           "EXTERNAL NAME 'usr/functions/extra.bld(below_int)' "
           "LANGUAGE c COMMUTATOR = GreaterThan");
  MustExec("CREATE TABLE nums (k int)");
  MustExec("CREATE INDEX k_idx ON nums(k) USING btree_am");
  for (int i = 0; i < 10; ++i) {
    MustExec("INSERT INTO nums VALUES (" + std::to_string(i) + ")");
  }
  MustExec("SET EXPLAIN ON");
  MustExec("SELECT k FROM nums WHERE Below(6, k)");
  ASSERT_FALSE(result_.messages.empty());
  EXPECT_NE(result_.messages[0].find("index scan on k_idx"),
            std::string::npos);
  EXPECT_EQ(Column0(), (std::set<std::string>{"7", "8", "9"}));
}

TEST_F(CatalogFixture, NoImplicationMechanismExists) {
  // §5.2's complaint, reproduced: an index whose operator class declares
  // only Overlaps cannot serve an Equal query, even though "if two regions
  // do not overlap, they cannot be equal" — there is no way to declare
  // the implication, only NEGATOR and COMMUTATOR.
  MustExec("CREATE OPCLASS grt_ovl_only FOR grtree_am "
           "STRATEGIES(Overlaps) "
           "SUPPORT(grt_union, grt_size, grt_intersection)");
  MustExec("SET CURRENT_TIME TO 10000");
  MustExec("CREATE TABLE t (e grt_timeextent)");
  MustExec("CREATE INDEX t_idx ON t(e grt_ovl_only) USING grtree_am");
  // Enough rows that the cost model prefers the index over the seq scan.
  for (int i = 0; i < 60; ++i) {
    MustExec("INSERT INTO t VALUES ('10000, UC, " +
             std::to_string(9990 - i) + ", NOW')");
  }
  MustExec("SET EXPLAIN ON");
  MustExec(
      "SELECT e FROM t WHERE Overlaps(e, '10000, 10000, 9930, 9931')");
  EXPECT_NE(result_.messages[0].find("index scan"), std::string::npos);
  // The Equal query falls back to a sequential scan.
  MustExec("SELECT e FROM t WHERE Equal(e, '10000, UC, 9990, NOW')");
  EXPECT_EQ(result_.messages[0], "PLAN: sequential scan");
  EXPECT_EQ(result_.rows.size(), 1u);  // still answered, just without help
}

TEST_F(CatalogFixture, DropFunctionRemovesItFromPlans) {
  MustExec("CREATE TABLE nums (k int)");
  MustExec("CREATE INDEX k_idx ON nums(k) USING btree_am");
  MustExec("INSERT INTO nums VALUES (1)");
  MustExec("DROP FUNCTION GreaterThan");
  EXPECT_TRUE(Exec("SELECT k FROM nums WHERE GreaterThan(k, 0)")
                  .IsNotFound());
}

}  // namespace
}  // namespace grtdb
