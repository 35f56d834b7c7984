#include "gist/gist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "blades/gist_blade.h"
#include "common/random.h"
#include "server/server.h"
#include "storage/layout.h"
#include "storage/pager.h"
#include "storage/space.h"

namespace grtdb {
namespace {

// A reference extension over integer intervals for core tests.
GistKey Range(int64_t lo, int64_t hi) {
  GistKey key(16);
  StoreI64(key.data(), lo);
  StoreI64(key.data() + 8, hi);
  return key;
}
int64_t Lo(const GistKey& key) { return LoadI64(key.data()); }
int64_t Hi(const GistKey& key) { return LoadI64(key.data() + 8); }

GistExtension RangeExtension() {
  GistExtension ext;
  ext.consistent = [](const GistKey& key, const GistKey& query, int strategy,
                      bool) {
    if (strategy == 0) {
      return Lo(key) <= Lo(query) && Hi(query) <= Hi(key);
    }
    return Lo(key) <= Hi(query) && Lo(query) <= Hi(key);  // overlap
  };
  ext.unite = [](std::span<const GistKey> keys) {
    int64_t lo = Lo(keys[0]);
    int64_t hi = Hi(keys[0]);
    for (const GistKey& key : keys.subspan(1)) {
      lo = std::min(lo, Lo(key));
      hi = std::max(hi, Hi(key));
    }
    return Range(lo, hi);
  };
  ext.penalty = [](const GistKey& existing, const GistKey& key) {
    const int64_t lo = std::min(Lo(existing), Lo(key));
    const int64_t hi = std::max(Hi(existing), Hi(key));
    return static_cast<double>((hi - lo) - (Hi(existing) - Lo(existing)));
  };
  ext.pick_split = [](std::span<const GistKey> keys) {
    std::vector<size_t> order(keys.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return Lo(keys[a]) < Lo(keys[b]); });
    return std::vector<size_t>(order.begin() + order.size() / 2, order.end());
  };
  return ext;
}

struct TreeFixture {
  MemorySpace space;
  Pager pager{&space, 512};
  PagerNodeStore store{&pager};
  std::unique_ptr<GistTree> tree;
  NodeId anchor = kInvalidNodeId;
  GistExtension ext = RangeExtension();

  TreeFixture() {
    auto tree_or = GistTree::Create(&store, &anchor);
    EXPECT_TRUE(tree_or.ok());
    tree = std::move(tree_or).value();
  }
};

TEST(GistTree, InsertAndOverlapSearch) {
  TreeFixture fx;
  Random rng(3);
  std::vector<std::pair<GistKey, uint64_t>> reference;
  for (uint64_t i = 1; i <= 1500; ++i) {
    const int64_t lo = rng.UniformRange(0, 10000);
    const GistKey key = Range(lo, lo + rng.UniformRange(0, 100));
    reference.emplace_back(key, i);
    ASSERT_TRUE(fx.tree->Insert(key, i, fx.ext).ok());
  }
  EXPECT_GT(fx.tree->height(), 1u);
  ASSERT_TRUE(fx.tree->CheckConsistency(fx.ext).ok());
  for (int q = 0; q < 30; ++q) {
    const int64_t lo = rng.UniformRange(0, 10000);
    const GistKey query = Range(lo, lo + rng.UniformRange(0, 200));
    std::set<uint64_t> expected;
    for (const auto& [key, payload] : reference) {
      if (Lo(key) <= Hi(query) && Lo(query) <= Hi(key)) {
        expected.insert(payload);
      }
    }
    std::vector<GistTree::Entry> results;
    ASSERT_TRUE(fx.tree->SearchAll(query, 1, fx.ext, &results).ok());
    std::set<uint64_t> actual;
    for (const auto& entry : results) actual.insert(entry.payload);
    EXPECT_EQ(actual, expected);
  }
}

TEST(GistTree, DeleteCondensesAndStaysConsistent) {
  TreeFixture fx;
  Random rng(5);
  std::vector<std::pair<GistKey, uint64_t>> kept;
  for (uint64_t i = 1; i <= 800; ++i) {
    const int64_t lo = rng.UniformRange(0, 3000);
    const GistKey key = Range(lo, lo + 10);
    ASSERT_TRUE(fx.tree->Insert(key, i, fx.ext).ok());
    if (i % 2 == 1) kept.emplace_back(key, i);
  }
  Random rng2(5);
  for (uint64_t i = 1; i <= 800; ++i) {
    const int64_t lo = rng2.UniformRange(0, 3000);
    const GistKey key = Range(lo, lo + 10);
    if (i % 2 == 0) {
      bool found = false;
      ASSERT_TRUE(fx.tree->Delete(key, i, fx.ext, &found).ok());
      ASSERT_TRUE(found) << i;
    }
  }
  EXPECT_EQ(fx.tree->size(), kept.size());
  ASSERT_TRUE(fx.tree->CheckConsistency(fx.ext).ok());
  std::vector<GistTree::Entry> results;
  ASSERT_TRUE(
      fx.tree->SearchAll(Range(-1, 4000), 1, fx.ext, &results).ok());
  EXPECT_EQ(results.size(), kept.size());
  bool found = true;
  ASSERT_TRUE(fx.tree->Delete(Range(-9, -9), 1, fx.ext, &found).ok());
  EXPECT_FALSE(found);
}

TEST(GistTree, PersistsThroughAnchor) {
  MemorySpace space;
  Pager pager(&space, 512);
  PagerNodeStore store(&pager);
  GistExtension ext = RangeExtension();
  NodeId anchor;
  {
    auto tree_or = GistTree::Create(&store, &anchor);
    ASSERT_TRUE(tree_or.ok());
    auto tree = std::move(tree_or).value();
    for (uint64_t i = 1; i <= 300; ++i) {
      ASSERT_TRUE(
          tree->Insert(Range(static_cast<int64_t>(i), i + 5), i, ext).ok());
    }
  }
  auto tree_or = GistTree::Open(&store, anchor);
  ASSERT_TRUE(tree_or.ok());
  auto tree = std::move(tree_or).value();
  EXPECT_EQ(tree->size(), 300u);
  ASSERT_TRUE(tree->CheckConsistency(ext).ok());
}

TEST(GistTree, RejectsOversizedKeys) {
  TreeFixture fx;
  GistKey huge(GistTree::kMaxKeySize + 1, 0);
  EXPECT_FALSE(fx.tree->Insert(huge, 1, fx.ext).ok());
}

// --------------------------------------------------------- blade + SQL ---

class GistBladeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(RegisterGistBlade(&server_).ok());
    ASSERT_TRUE(RegisterIntRangeOpclass(&server_).ok());
    ASSERT_TRUE(RegisterPrefixOpclass(&server_).ok());
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

TEST_F(GistBladeTest, IntRangeIndexThroughSql) {
  MustExec("CREATE TABLE bookings (room text, slot intrange)");
  MustExec("CREATE INDEX slot_idx ON bookings(slot ir_opclass) "
           "USING gist_am");
  MustExec("INSERT INTO bookings VALUES ('red', '[100,200]')");
  MustExec("INSERT INTO bookings VALUES ('blue', '[150,300]')");
  MustExec("INSERT INTO bookings VALUES ('green', '[400,500]')");
  for (int i = 0; i < 200; ++i) {
    MustExec("INSERT INTO bookings VALUES ('bulk', '[" +
             std::to_string(1000 + i * 10) + "," +
             std::to_string(1005 + i * 10) + "]')");
  }
  MustExec("SET EXPLAIN ON");
  MustExec("SELECT room FROM bookings "
           "WHERE RangeOverlaps(slot, '[180,250]')");
  ASSERT_FALSE(result_.messages.empty());
  EXPECT_NE(result_.messages[0].find("index scan on slot_idx"),
            std::string::npos);
  EXPECT_EQ(Column0(), (std::set<std::string>{"red", "blue"}));
  MustExec("SELECT room FROM bookings "
           "WHERE RangeContains(slot, '[410,420]')");
  EXPECT_EQ(Column0(), (std::set<std::string>{"green"}));
  MustExec("CHECK INDEX slot_idx");
}

TEST_F(GistBladeTest, IntRangeMaintenanceOnDeleteUpdate) {
  MustExec("CREATE TABLE t (id int, r intrange)");
  MustExec("CREATE INDEX r_idx ON t(r ir_opclass) USING gist_am");
  for (int i = 0; i < 100; ++i) {
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", '[" +
             std::to_string(i * 10) + "," + std::to_string(i * 10 + 5) +
             "]')");
  }
  MustExec("DELETE FROM t WHERE RangeOverlaps(r, '[0,495]')");
  EXPECT_EQ(result_.affected, 50u);
  MustExec("SELECT COUNT(*) FROM t WHERE RangeOverlaps(r, '[0,10000]')");
  EXPECT_EQ(result_.rows[0][0], "50");
  MustExec("UPDATE t SET r = '[9999,9999]' WHERE id = 99");
  MustExec("SELECT id FROM t WHERE RangeContains(r, '[9999,9999]')");
  EXPECT_EQ(Column0(), (std::set<std::string>{"99"}));
  MustExec("CHECK INDEX r_idx");
}

// intrange's text input rejects bounds that are not 64-bit integers
// instead of storing what strtoll made of them ([0,0] for '[abc,def]').
TEST_F(GistBladeTest, IntRangeInputRejectsBadBounds) {
  MustExec("CREATE TABLE t (r intrange)");
  for (const char* text :
       {"[abc,def]", "[1x,2]", "[1,2y]", "[,2]",
        "[1,99999999999999999999]", "[-99999999999999999999,1]"}) {
    EXPECT_TRUE(Exec(std::string("INSERT INTO t VALUES ('") + text + "')")
                    .IsInvalidArgument())
        << text;
  }
  MustExec("SELECT COUNT(*) FROM t");
  EXPECT_EQ(result_.rows[0][0], "0");
  MustExec("INSERT INTO t VALUES ('[-5, 7]')");
  MustExec("SELECT r FROM t");
  EXPECT_EQ(result_.rows[0][0], "[-5,7]");
}

TEST_F(GistBladeTest, TwoDataTypesThroughOnePurposeFunctionSet) {
  // The §7 payoff: the SAME access method indexes text via a second
  // operator class, no new purpose functions.
  MustExec("CREATE TABLE words (w text)");
  MustExec("CREATE INDEX w_idx ON words(w px_opclass) USING gist_am");
  for (const char* word :
       {"data", "database", "datablade", "index", "indices", "informix",
        "temporal", "tempo", "temperature"}) {
    MustExec(std::string("INSERT INTO words VALUES ('") + word + "')");
  }
  MustExec("SET EXPLAIN ON");
  MustExec("SELECT w FROM words WHERE PrefixMatch(w, 'data')");
  ASSERT_FALSE(result_.messages.empty());
  EXPECT_NE(result_.messages[0].find("index scan on w_idx"),
            std::string::npos);
  EXPECT_EQ(Column0(),
            (std::set<std::string>{"data", "database", "datablade"}));
  MustExec("SELECT w FROM words WHERE TextEquals(w, 'tempo')");
  EXPECT_EQ(Column0(), (std::set<std::string>{"tempo"}));
  MustExec("SELECT w FROM words WHERE PrefixMatch(w, 'xyz')");
  EXPECT_TRUE(result_.rows.empty());
  MustExec("CHECK INDEX w_idx");
}

TEST_F(GistBladeTest, IndexAgreesWithSequentialScan) {
  MustExec("CREATE TABLE t (id int, r intrange)");
  MustExec("CREATE INDEX r_idx ON t(r ir_opclass) USING gist_am");
  Random rng(9);
  for (int i = 0; i < 400; ++i) {
    const int64_t lo = rng.UniformRange(0, 5000);
    MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", '[" +
             std::to_string(lo) + "," +
             std::to_string(lo + rng.UniformRange(0, 50)) + "]')");
  }
  MustExec("SELECT COUNT(*) FROM t WHERE RangeOverlaps(r, '[2000,2500]')");
  const std::string with_index = result_.rows[0][0];
  MustExec("DROP INDEX r_idx");
  MustExec("SELECT COUNT(*) FROM t WHERE RangeOverlaps(r, '[2000,2500]')");
  EXPECT_EQ(result_.rows[0][0], with_index);
}

TEST_F(GistBladeTest, OpclassWithoutFiveSupportsIsRejected) {
  MustExec("CREATE OPCLASS broken_opclass FOR gist_am "
           "STRATEGIES(RangeOverlaps) SUPPORT(ir_consistent)");
  MustExec("CREATE TABLE t (r intrange)");
  EXPECT_FALSE(
      Exec("CREATE INDEX broken ON t(r broken_opclass) USING gist_am").ok());
}

}  // namespace
}  // namespace grtdb
