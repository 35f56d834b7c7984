#include "core/grtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "storage/layout.h"
#include "storage/pager.h"
#include "storage/space.h"
#include "temporal/predicates.h"
#include "workload/workload.h"

namespace grtdb {
namespace {

struct TreeFixture {
  MemorySpace space;
  Pager pager{&space, 512};
  PagerNodeStore store{&pager};
  std::unique_ptr<GRTree> tree;
  NodeId anchor = kInvalidNodeId;

  explicit TreeFixture(GRTree::Options options = {}) {
    if (options.max_entries == 0) options.max_entries = 8;
    auto tree_or = GRTree::Create(&store, options, &anchor);
    EXPECT_TRUE(tree_or.ok());
    tree = std::move(tree_or).value();
  }
};

std::set<uint64_t> TreeQuery(GRTree& tree, PredicateOp op,
                             const TimeExtent& query, int64_t ct) {
  std::vector<GRTree::Entry> results;
  EXPECT_TRUE(tree.SearchAll(op, query, ct, &results).ok());
  std::set<uint64_t> out;
  for (const auto& entry : results) out.insert(entry.payload);
  return out;
}

// One Crc32 over every page `space` holds, in page order, read through
// `store`.
uint32_t PagesCrc(const MemorySpace& space, NodeStore* store) {
  uint32_t crc = Crc32Init();
  uint8_t page[kPageSize];
  for (PageId id = 0; id < space.page_count(); ++id) {
    EXPECT_TRUE(store->ReadNode(id, page).ok());
    crc = Crc32Feed(crc, page, kPageSize);
  }
  return Crc32Final(crc);
}

std::set<uint64_t> BruteQuery(
    const std::unordered_map<uint64_t, TimeExtent>& live, PredicateOp op,
    const TimeExtent& query, int64_t ct) {
  std::set<uint64_t> out;
  const Region query_region = ResolveExtent(query, ct);
  for (const auto& [payload, extent] : live) {
    if (GRTree::LeafTest(op, ResolveExtent(extent, ct), query_region)) {
      out.insert(payload);
    }
  }
  return out;
}

TEST(GRTree, EmptyTree) {
  TreeFixture fx;
  EXPECT_EQ(fx.tree->size(), 0u);
  EXPECT_TRUE(fx.tree->CheckConsistency(1000).ok());
  EXPECT_TRUE(TreeQuery(*fx.tree, PredicateOp::kOverlaps,
                        TimeExtent::Ground(0, 10000, 0, 10000), 1000)
                  .empty());
}

TEST(GRTree, RejectsMalformedExtent) {
  TreeFixture fx;
  EXPECT_FALSE(fx.tree->Insert(TimeExtent::Ground(10, 5, 0, 1), 1, 20).ok());
}

TEST(GRTree, SingleGrowingStair) {
  TreeFixture fx;
  TimeExtent extent(Timestamp::FromChronon(100), Timestamp::UC(),
                    Timestamp::FromChronon(100), Timestamp::NOW());
  ASSERT_TRUE(fx.tree->Insert(extent, 1, 100).ok());
  // Visible at a later current time in the grown area...
  EXPECT_EQ(TreeQuery(*fx.tree, PredicateOp::kOverlaps,
                      TimeExtent::Ground(150, 150, 150, 150), 200),
            (std::set<uint64_t>{1}));
  // ...but not above the diagonal.
  EXPECT_TRUE(TreeQuery(*fx.tree, PredicateOp::kOverlaps,
                        TimeExtent::Ground(120, 120, 150, 150), 200)
                  .empty());
}

// Differential test: evolve a now-relative bitemporal relation and compare
// every predicate against brute force at several current times.
class GRTreeWorkloadTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GRTreeWorkloadTest, AllPredicatesMatchBruteForce) {
  TreeFixture fx;
  WorkloadOptions wopts;
  wopts.seed = GetParam();
  BitemporalWorkload workload(wopts);
  for (int action = 0; action < 1200; ++action) {
    for (const IndexOp& op : workload.NextAction()) {
      if (op.kind == IndexOp::Kind::kInsert) {
        ASSERT_TRUE(fx.tree->Insert(op.extent, op.payload, op.ct).ok());
      } else {
        bool found = false;
        ASSERT_TRUE(
            fx.tree->Delete(op.extent, op.payload, op.ct, &found).ok());
        ASSERT_TRUE(found) << "payload " << op.payload;
      }
    }
    if (action % 400 == 399) {
      ASSERT_TRUE(fx.tree->CheckConsistency(workload.current_time()).ok());
    }
  }
  EXPECT_EQ(fx.tree->size(), workload.live().size());
  ASSERT_TRUE(fx.tree->CheckConsistency(workload.current_time()).ok());

  const int64_t ct = workload.current_time();
  for (int q = 0; q < 25; ++q) {
    const TimeExtent query = workload.GroundRectQuery(120);
    for (PredicateOp op :
         {PredicateOp::kOverlaps, PredicateOp::kContains,
          PredicateOp::kContainedIn, PredicateOp::kEqual}) {
      EXPECT_EQ(TreeQuery(*fx.tree, op, query, ct),
                BruteQuery(workload.live(), op, query, ct))
          << "op " << static_cast<int>(op) << " query "
          << query.ToChrononString();
    }
  }
  // Now-relative queries (stair-shaped query regions).
  const TimeExtent stair_query = workload.CurrentStairQuery();
  EXPECT_EQ(TreeQuery(*fx.tree, PredicateOp::kOverlaps, stair_query, ct),
            BruteQuery(workload.live(), PredicateOp::kOverlaps, stair_query,
                       ct));
  // Queries keep matching brute force as the clock advances further with
  // no index maintenance at all — the point of the GR-tree.
  for (int64_t later : {ct + 50, ct + 500, ct + 5000}) {
    const TimeExtent query = workload.GroundRectQuery(200);
    EXPECT_EQ(TreeQuery(*fx.tree, PredicateOp::kOverlaps, query, later),
              BruteQuery(workload.live(), PredicateOp::kOverlaps, query,
                         later));
    ASSERT_TRUE(fx.tree->CheckConsistency(later).ok());
  }
}

TEST_P(GRTreeWorkloadTest, AblationRectangleOnlyBoundsStayCorrect) {
  GRTree::Options options;
  options.max_entries = 8;
  options.stair_bounds = false;  // force rectangle bounds everywhere
  TreeFixture fx(options);
  WorkloadOptions wopts;
  wopts.seed = GetParam() ^ 0x77;
  BitemporalWorkload workload(wopts);
  for (int action = 0; action < 600; ++action) {
    for (const IndexOp& op : workload.NextAction()) {
      if (op.kind == IndexOp::Kind::kInsert) {
        ASSERT_TRUE(fx.tree->Insert(op.extent, op.payload, op.ct).ok());
      } else {
        bool found = false;
        ASSERT_TRUE(
            fx.tree->Delete(op.extent, op.payload, op.ct, &found).ok());
        ASSERT_TRUE(found);
      }
    }
  }
  const int64_t ct = workload.current_time();
  ASSERT_TRUE(fx.tree->CheckConsistency(ct).ok());
  GRTreeStats stats;
  ASSERT_TRUE(fx.tree->ComputeStats(ct, 0, &stats).ok());
  for (const auto& level : stats.levels) {
    EXPECT_EQ(level.stair_bounds, 0u);
  }
  for (int q = 0; q < 15; ++q) {
    const TimeExtent query = workload.GroundRectQuery(150);
    EXPECT_EQ(TreeQuery(*fx.tree, PredicateOp::kOverlaps, query, ct),
              BruteQuery(workload.live(), PredicateOp::kOverlaps, query, ct));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GRTreeWorkloadTest,
                         ::testing::Values(101, 202, 303));

TEST(GRTree, StatsReflectStairAndGrowingBounds) {
  TreeFixture fx;
  // A purely now-relative workload: internal bounds should be stairs and
  // growing.
  int64_t ct = 1000;
  for (uint64_t i = 0; i < 300; ++i) {
    TimeExtent extent(Timestamp::FromChronon(ct), Timestamp::UC(),
                      Timestamp::FromChronon(ct - 5), Timestamp::NOW());
    ASSERT_TRUE(fx.tree->Insert(extent, i + 1, ct).ok());
    if (i % 3 == 2) ++ct;
  }
  GRTreeStats stats;
  ASSERT_TRUE(fx.tree->ComputeStats(ct, 200, &stats).ok());
  EXPECT_EQ(stats.size, 300u);
  ASSERT_GT(stats.levels.size(), 1u);
  uint64_t stair_bounds = 0;
  uint64_t rect_bounds = 0;
  for (const auto& level : stats.levels) {
    stair_bounds += level.stair_bounds;
    rect_bounds += level.rect_bounds;
  }
  EXPECT_GT(stair_bounds, 0u);
  EXPECT_EQ(rect_bounds, 0u);  // everything lies under the diagonal
}

TEST(GRTree, HiddenBoundsAppearInMixedWorkloads) {
  TreeFixture fx;
  Random rng(9);
  int64_t ct = 1000;
  for (uint64_t i = 0; i < 400; ++i) {
    TimeExtent extent;
    if (rng.Bernoulli(0.5)) {
      extent = TimeExtent(Timestamp::FromChronon(ct), Timestamp::UC(),
                          Timestamp::FromChronon(ct), Timestamp::NOW());
    } else {
      // Static rectangles with far-future valid time hide the stairs.
      const int64_t vt1 = ct - rng.UniformRange(0, 50);
      extent = TimeExtent(Timestamp::FromChronon(ct), Timestamp::UC(),
                          Timestamp::FromChronon(vt1),
                          Timestamp::FromChronon(ct + 2000));
    }
    ASSERT_TRUE(fx.tree->Insert(extent, i + 1, ct).ok());
    if (i % 4 == 3) ++ct;
  }
  GRTreeStats stats;
  ASSERT_TRUE(fx.tree->ComputeStats(ct, 0, &stats).ok());
  uint64_t hidden = 0;
  for (const auto& level : stats.levels) hidden += level.hidden_bounds;
  EXPECT_GT(hidden, 0u);
  // The hidden flags must keep bounds valid far into the future.
  ASSERT_TRUE(fx.tree->CheckConsistency(ct + 5000).ok());
}

// §5.5 deletion policies: a cursor-driven scan deleting every returned
// entry must deliver every qualifying entry exactly once under each policy.
class DeletionPolicyTest : public ::testing::TestWithParam<DeletionPolicy> {};

TEST_P(DeletionPolicyTest, ScanAndDeleteVisitsEverything) {
  GRTree::Options options;
  options.max_entries = 8;
  options.deletion_policy = GetParam();
  TreeFixture fx(options);
  Random rng(77);
  const int64_t ct = 2000;
  std::set<uint64_t> qualifying;
  for (uint64_t i = 1; i <= 400; ++i) {
    const int64_t tt1 = rng.UniformRange(1000, 1999);
    const int64_t vt1 = rng.UniformRange(900, 1900);
    TimeExtent extent = TimeExtent::Ground(
        tt1, tt1 + rng.UniformRange(0, 50), vt1, vt1 + rng.UniformRange(0, 50));
    ASSERT_TRUE(fx.tree->Insert(extent, i, ct).ok());
    if (ExtentsOverlap(extent, TimeExtent::Ground(1000, 1500, 900, 1500),
                       ct)) {
      qualifying.insert(i);
    }
  }
  ASSERT_FALSE(qualifying.empty());

  // Retrieve-and-delete, as the server's DELETE statement drives it.
  auto cursor_or =
      fx.tree->Search(PredicateOp::kOverlaps,
                      TimeExtent::Ground(1000, 1500, 900, 1500), ct);
  ASSERT_TRUE(cursor_or.ok());
  auto cursor = std::move(cursor_or).value();
  std::set<uint64_t> deleted;
  while (true) {
    bool has = false;
    GRTree::Entry entry;
    ASSERT_TRUE(cursor->Next(&has, &entry).ok());
    if (!has) break;
    EXPECT_TRUE(deleted.insert(entry.payload).second)
        << "duplicate delivery of " << entry.payload;
    bool found = false;
    ASSERT_TRUE(fx.tree->Delete(entry.extent, entry.payload, ct, &found).ok());
    ASSERT_TRUE(found);
    if (GetParam() == DeletionPolicy::kRestartAlways) cursor->Reset();
  }
  EXPECT_EQ(deleted, qualifying);
  ASSERT_TRUE(fx.tree->FlushPending(ct).ok());
  ASSERT_TRUE(fx.tree->CheckConsistency(ct).ok());
  EXPECT_EQ(fx.tree->size(), 400u - qualifying.size());
  // Remaining entries are still all reachable.
  EXPECT_EQ(TreeQuery(*fx.tree, PredicateOp::kOverlaps,
                      TimeExtent::Ground(0, 10000, 0, 10000), ct)
                .size(),
            400u - qualifying.size());
}

INSTANTIATE_TEST_SUITE_P(Policies, DeletionPolicyTest,
                         ::testing::Values(DeletionPolicy::kRestartAlways,
                                           DeletionPolicy::kRestartOnCondense,
                                           DeletionPolicy::kPostponeReinsert));

TEST(GRTree, PostponePolicyAvoidsRestarts) {
  GRTree::Options postpone;
  postpone.max_entries = 8;
  postpone.deletion_policy = DeletionPolicy::kPostponeReinsert;
  GRTree::Options restart;
  restart.max_entries = 8;
  restart.deletion_policy = DeletionPolicy::kRestartOnCondense;

  auto run = [](auto& fx) {
    Random rng(5);
    const int64_t ct = 2000;
    for (uint64_t i = 1; i <= 300; ++i) {
      const int64_t tt1 = rng.UniformRange(1000, 1999);
      ASSERT_TRUE(fx.tree
                      ->Insert(TimeExtent::Ground(tt1, tt1 + 10, tt1 - 50,
                                                  tt1 - 20),
                               i, ct)
                      .ok());
    }
    auto cursor_or = fx.tree->Search(
        PredicateOp::kOverlaps, TimeExtent::Ground(0, 10000, 0, 10000), ct);
    ASSERT_TRUE(cursor_or.ok());
    auto cursor = std::move(cursor_or).value();
    while (true) {
      bool has = false;
      GRTree::Entry entry;
      ASSERT_TRUE(cursor->Next(&has, &entry).ok());
      if (!has) break;
      bool found = false;
      ASSERT_TRUE(
          fx.tree->Delete(entry.extent, entry.payload, ct, &found).ok());
    }
    fx.restarts = cursor->restarts();
  };

  struct FixtureWithRestarts : TreeFixture {
    using TreeFixture::TreeFixture;
    uint64_t restarts = 0;
  };
  FixtureWithRestarts fx_postpone(postpone);
  FixtureWithRestarts fx_restart(restart);
  run(fx_postpone);
  run(fx_restart);
  EXPECT_EQ(fx_postpone.restarts, 0u);
  EXPECT_GT(fx_restart.restarts, 0u);
  ASSERT_TRUE(fx_postpone.tree->FlushPending(2000).ok());
  ASSERT_TRUE(fx_postpone.tree->CheckConsistency(2000).ok());
}

TEST(GRTree, PersistsThroughAnchor) {
  MemorySpace space;
  Pager pager(&space, 512);
  PagerNodeStore store(&pager);
  GRTree::Options options;
  options.max_entries = 8;
  NodeId anchor;
  WorkloadOptions wopts;
  wopts.seed = 404;
  BitemporalWorkload workload(wopts);
  {
    auto tree_or = GRTree::Create(&store, options, &anchor);
    ASSERT_TRUE(tree_or.ok());
    auto tree = std::move(tree_or).value();
    for (int action = 0; action < 500; ++action) {
      for (const IndexOp& op : workload.NextAction()) {
        if (op.kind == IndexOp::Kind::kInsert) {
          ASSERT_TRUE(tree->Insert(op.extent, op.payload, op.ct).ok());
        } else {
          bool found = false;
          ASSERT_TRUE(tree->Delete(op.extent, op.payload, op.ct, &found).ok());
        }
      }
    }
  }
  {
    auto tree_or = GRTree::Open(&store, anchor, options);
    ASSERT_TRUE(tree_or.ok());
    auto tree = std::move(tree_or).value();
    const int64_t ct = workload.current_time();
    EXPECT_EQ(tree->size(), workload.live().size());
    ASSERT_TRUE(tree->CheckConsistency(ct).ok());
    const TimeExtent query = workload.GroundRectQuery(200);
    EXPECT_EQ(TreeQuery(*tree, PredicateOp::kOverlaps, query, ct),
              BruteQuery(workload.live(), PredicateOp::kOverlaps, query, ct));
  }
}

TEST(GRTree, BulkLoadMatchesIncremental) {
  TreeFixture incremental;
  TreeFixture bulk;
  WorkloadOptions wopts;
  wopts.seed = 512;
  BitemporalWorkload workload(wopts);
  std::vector<GRTree::Entry> entries;
  for (int action = 0; action < 700; ++action) {
    for (const IndexOp& op : workload.NextAction()) {
      if (op.kind == IndexOp::Kind::kInsert) {
        ASSERT_TRUE(
            incremental.tree->Insert(op.extent, op.payload, op.ct).ok());
      } else {
        bool found = false;
        ASSERT_TRUE(incremental.tree
                        ->Delete(op.extent, op.payload, op.ct, &found)
                        .ok());
      }
    }
  }
  const int64_t ct = workload.current_time();
  for (const auto& [payload, extent] : workload.live()) {
    entries.push_back(GRTree::Entry{extent, payload});
  }
  ASSERT_TRUE(bulk.tree->BulkLoad(entries, ct).ok());
  ASSERT_TRUE(bulk.tree->CheckConsistency(ct).ok());
  EXPECT_EQ(bulk.tree->size(), incremental.tree->size());
  for (int q = 0; q < 20; ++q) {
    const TimeExtent query = workload.GroundRectQuery(150);
    EXPECT_EQ(TreeQuery(*bulk.tree, PredicateOp::kOverlaps, query, ct),
              TreeQuery(*incremental.tree, PredicateOp::kOverlaps, query,
                        ct));
  }
}

TEST(GRTree, ScanCostTracksSelectivity) {
  TreeFixture fx;
  WorkloadOptions wopts;
  wopts.seed = 606;
  BitemporalWorkload workload(wopts);
  for (int action = 0; action < 800; ++action) {
    for (const IndexOp& op : workload.NextAction()) {
      if (op.kind == IndexOp::Kind::kInsert) {
        ASSERT_TRUE(fx.tree->Insert(op.extent, op.payload, op.ct).ok());
      } else {
        bool found = false;
        ASSERT_TRUE(
            fx.tree->Delete(op.extent, op.payload, op.ct, &found).ok());
      }
    }
  }
  const int64_t ct = workload.current_time();
  auto tiny = fx.tree->EstimateScanCost(
      PredicateOp::kOverlaps, workload.TimeSliceQuery(ct - 1, ct - 1), ct);
  auto huge = fx.tree->EstimateScanCost(
      PredicateOp::kOverlaps, TimeExtent::Ground(0, 100000, 0, 100000), ct);
  ASSERT_TRUE(tiny.ok());
  ASSERT_TRUE(huge.ok());
  EXPECT_LE(tiny.value(), huge.value());
}

TEST(GRTree, CursorRescanAfterResetSkipsNothingNew) {
  TreeFixture fx;
  const int64_t ct = 1000;
  for (uint64_t i = 1; i <= 50; ++i) {
    ASSERT_TRUE(fx.tree
                    ->Insert(TimeExtent::Ground(500 + i, 510 + i, 400, 450),
                             i, ct)
                    .ok());
  }
  auto cursor_or = fx.tree->Search(
      PredicateOp::kOverlaps, TimeExtent::Ground(0, 10000, 0, 10000), ct);
  ASSERT_TRUE(cursor_or.ok());
  auto cursor = std::move(cursor_or).value();
  std::set<uint64_t> seen;
  for (int i = 0; i < 20; ++i) {
    bool has = false;
    GRTree::Entry entry;
    ASSERT_TRUE(cursor->Next(&has, &entry).ok());
    ASSERT_TRUE(has);
    seen.insert(entry.payload);
  }
  cursor->Reset();  // mid-scan restart must not produce duplicates
  while (true) {
    bool has = false;
    GRTree::Entry entry;
    ASSERT_TRUE(cursor->Next(&has, &entry).ok());
    if (!has) break;
    EXPECT_TRUE(seen.insert(entry.payload).second);
  }
  EXPECT_EQ(seen.size(), 50u);
}

// §5.5 restarts as often as they can come: Reset after every answer, and
// after every k-th, with and without the scan deleting what it returns,
// under each policy. A restarted cursor returns each qualifying entry
// exactly once, and what the scan left stays reachable.
TEST(GRTree, RestartStormReturnsEveryAnswerOnce) {
  const int64_t ct = 2000;
  const TimeExtent query = TimeExtent::Ground(1000, 1500, 900, 1500);
  for (size_t max_entries : {4, 8}) {
    for (DeletionPolicy policy : {DeletionPolicy::kRestartAlways,
                                  DeletionPolicy::kRestartOnCondense,
                                  DeletionPolicy::kPostponeReinsert}) {
      for (bool deletes : {false, true}) {
        for (uint64_t stride : {1, 2, 3, 5, 8, 13, 1000}) {
          SCOPED_TRACE("max_entries " + std::to_string(max_entries) +
                       ", policy " + std::to_string(static_cast<int>(policy)) +
                       (deletes ? ", deleting" : "") + ", Reset every " +
                       std::to_string(stride));
          GRTree::Options options;
          options.max_entries = max_entries;
          options.deletion_policy = policy;
          TreeFixture fx(options);
          Random rng(max_entries * 100 + stride);
          std::unordered_map<uint64_t, TimeExtent> live;
          for (uint64_t i = 1; i <= 300; ++i) {
            const int64_t tt1 = rng.UniformRange(1000, 1999);
            const int64_t vt1 = rng.UniformRange(900, 1900);
            const TimeExtent extent =
                TimeExtent::Ground(tt1, tt1 + rng.UniformRange(0, 50), vt1,
                                   vt1 + rng.UniformRange(0, 50));
            ASSERT_TRUE(fx.tree->Insert(extent, i, ct).ok());
            live[i] = extent;
          }
          const std::set<uint64_t> qualifying =
              BruteQuery(live, PredicateOp::kOverlaps, query, ct);
          ASSERT_FALSE(qualifying.empty());

          auto cursor_or = fx.tree->Search(PredicateOp::kOverlaps, query, ct);
          ASSERT_TRUE(cursor_or.ok());
          auto cursor = std::move(cursor_or).value();
          std::set<uint64_t> seen;
          uint64_t answers = 0;
          while (true) {
            bool has = false;
            GRTree::Entry entry;
            ASSERT_TRUE(cursor->Next(&has, &entry).ok());
            if (!has) break;
            // The first duplicate ends the scan: a cursor that repeats
            // answers across restarts would never finish.
            ASSERT_TRUE(seen.insert(entry.payload).second)
                << "duplicate delivery of " << entry.payload;
            if (deletes) {
              bool found = false;
              ASSERT_TRUE(
                  fx.tree->Delete(entry.extent, entry.payload, ct, &found)
                      .ok());
              ASSERT_TRUE(found);
              live.erase(entry.payload);
            }
            if (++answers % stride == 0) cursor->Reset();
          }
          EXPECT_EQ(seen, qualifying);
          EXPECT_GE(cursor->restarts(), answers / stride);
          ASSERT_TRUE(fx.tree->FlushPending(ct).ok());
          ASSERT_TRUE(fx.tree->CheckConsistency(ct).ok());
          const TimeExtent everything = TimeExtent::Ground(0, 10000, 0, 10000);
          EXPECT_EQ(TreeQuery(*fx.tree, PredicateOp::kOverlaps, everything, ct),
                    BruteQuery(live, PredicateOp::kOverlaps, everything, ct));
        }
      }
    }
  }
}

// Every insert decision, pinned: a seeded op stream (inserts, and the
// deletes of logical updates and deletions, at advancing current time),
// then one Crc32 over every page the store holds, in page order.
// ChooseSubtree, forced reinsert and split all show in those bytes, so a
// change that keeps every decision keeps the constants.
TEST(GRTree, InsertDecisionsGolden) {
  struct Case {
    size_t max_entries;  // 0: a full page
    int actions;
    uint64_t seed;
    uint32_t height;
    uint32_t crc;
  };
  for (const Case& c : {Case{0, 9000, 2121, 3, 0xada8561cu},
                        Case{8, 1500, 808, 4, 0xfb4078f4u}}) {
    SCOPED_TRACE("max_entries " + std::to_string(c.max_entries));
    MemorySpace space;
    Pager pager(&space, 512);
    PagerNodeStore store(&pager);
    GRTree::Options options;
    options.max_entries = c.max_entries;
    NodeId anchor;
    auto tree_or = GRTree::Create(&store, options, &anchor);
    ASSERT_TRUE(tree_or.ok());
    std::unique_ptr<GRTree> tree = std::move(tree_or).value();
    WorkloadOptions wopts;
    wopts.seed = c.seed;
    BitemporalWorkload workload(wopts);
    for (int action = 0; action < c.actions; ++action) {
      for (const IndexOp& op : workload.NextAction()) {
        if (op.kind == IndexOp::Kind::kInsert) {
          ASSERT_TRUE(tree->Insert(op.extent, op.payload, op.ct).ok());
        } else {
          bool found = false;
          ASSERT_TRUE(tree->Delete(op.extent, op.payload, op.ct, &found).ok());
          ASSERT_TRUE(found);
        }
      }
    }
    EXPECT_EQ(tree->height(), c.height);
    const uint32_t crc = PagesCrc(space, &store);
    EXPECT_EQ(crc, c.crc) << std::hex << crc;
  }
}

// Feeds every node read, in order, into a running Crc32 shared with the
// scan that drives it (which adds its answers and restarts).
class ScanRecorder final : public NodeStore {
 public:
  ScanRecorder(NodeStore* inner, uint32_t* crc) : inner_(inner), crc_(crc) {}

  Status AllocateNode(NodeId* id) override { return inner_->AllocateNode(id); }
  Status FreeNode(NodeId id) override { return inner_->FreeNode(id); }
  Status ReadNode(NodeId id, uint8_t* out) override {
    Feed('r', id);
    return inner_->ReadNode(id, out);
  }
  Status ViewNode(NodeId id, NodeView* view) override {
    Feed('r', id);
    return inner_->ViewNode(id, view);
  }
  Status WriteNode(NodeId id, const uint8_t* data) override {
    return inner_->WriteNode(id, data);
  }
  uint64_t LoOfNode(NodeId id) const override { return inner_->LoOfNode(id); }
  Status Flush() override { return inner_->Flush(); }

  // One tagged value: 'r' a node read, 'a' an answer, 's' restarts.
  void Feed(uint8_t tag, uint64_t value) {
    uint8_t bytes[9] = {tag};
    StoreU64(bytes + 1, value);
    *crc_ = Crc32Feed(*crc_, bytes, sizeof(bytes));
  }

 private:
  NodeStore* inner_;
  uint32_t* crc_;
};

// A tree grown by a seeded workload, then reopened over a ScanRecorder.
struct RecordedTree {
  MemorySpace space;
  Pager pager{&space, 512};
  PagerNodeStore store{&pager};
  ScanRecorder recorder;
  BitemporalWorkload workload;
  std::unique_ptr<GRTree> tree;

  RecordedTree(const GRTree::Options& options, int actions, uint64_t seed,
               uint32_t* crc)
      : recorder(&store, crc), workload([seed] {
          WorkloadOptions wopts;
          wopts.seed = seed;
          return wopts;
        }()) {
    NodeId anchor;
    auto built_or = GRTree::Create(&store, options, &anchor);
    EXPECT_TRUE(built_or.ok());
    std::unique_ptr<GRTree> built = std::move(built_or).value();
    for (int action = 0; action < actions; ++action) {
      for (const IndexOp& op : workload.NextAction()) {
        if (op.kind == IndexOp::Kind::kInsert) {
          EXPECT_TRUE(built->Insert(op.extent, op.payload, op.ct).ok());
        } else {
          bool found = false;
          EXPECT_TRUE(
              built->Delete(op.extent, op.payload, op.ct, &found).ok());
          EXPECT_TRUE(found);
        }
      }
    }
    auto tree_or = GRTree::Open(&recorder, anchor, options);
    EXPECT_TRUE(tree_or.ok());
    tree = std::move(tree_or).value();
  }

  // Drains a scan into the record; returns its answer count.
  size_t Scan(PredicateOp op, const TimeExtent& query, int64_t ct) {
    auto cursor_or = tree->Search(op, query, ct);
    EXPECT_TRUE(cursor_or.ok());
    if (!cursor_or.ok()) return 0;
    auto cursor = std::move(cursor_or).value();
    size_t answers = 0;
    while (true) {
      bool has = false;
      GRTree::Entry entry;
      EXPECT_TRUE(cursor->Next(&has, &entry).ok());
      if (!has) break;
      recorder.Feed('a', entry.payload);
      ++answers;
    }
    return answers;
  }
};

// The scan order, pinned: one Crc32 over every node read in order, every
// answer in order and the restarts, for scans of all four predicates at two
// current times and for cursor-driven deletes under the three §5.5
// policies. A change to the cursor that keeps what it visits and returns,
// and when, keeps the constants.
TEST(GRTree, ScanOrderGolden) {
  struct Case {
    size_t max_entries;  // 0: a full page
    int actions;
    uint64_t seed;
    uint32_t crc;
  };
  for (const Case& c : {Case{0, 3000, 4242, 0xf56cb262u},
                        Case{8, 1200, 2424, 0xe0124599u}}) {
    SCOPED_TRACE("max_entries " + std::to_string(c.max_entries));
    uint32_t crc = Crc32Init();
    {
      GRTree::Options options;
      options.max_entries = c.max_entries;
      RecordedTree t(options, c.actions, c.seed, &crc);
      ASSERT_GE(t.tree->height(), 2u);
      // The live versions, in payload order, for Equal probes.
      std::vector<std::pair<uint64_t, TimeExtent>> live(
          t.workload.live().begin(), t.workload.live().end());
      std::sort(live.begin(), live.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      const int64_t now = t.workload.current_time();
      size_t answers = 0;
      for (int64_t ct : {now, now + 400}) {
        for (int i = 0; i < 3; ++i) {
          const TimeExtent rect = t.workload.GroundRectQuery(150);
          const TimeExtent point = t.workload.TimeSliceQuery(
              rect.tt_begin.chronon(), rect.vt_begin.chronon());
          answers += t.Scan(PredicateOp::kOverlaps, rect, ct);
          answers += t.Scan(PredicateOp::kContainedIn, rect, ct);
          answers += t.Scan(PredicateOp::kContains, point, ct);
        }
        const TimeExtent stair = t.workload.CurrentStairQuery();
        answers += t.Scan(PredicateOp::kOverlaps, stair, ct);
        answers += t.Scan(PredicateOp::kContainedIn, stair, ct);
        for (size_t i = 0; i < live.size(); i += live.size() / 7) {
          answers += t.Scan(PredicateOp::kEqual, live[i].second, ct);
        }
      }
      EXPECT_GT(answers, 0u);
    }
    for (DeletionPolicy policy : {DeletionPolicy::kRestartAlways,
                                  DeletionPolicy::kRestartOnCondense,
                                  DeletionPolicy::kPostponeReinsert}) {
      GRTree::Options options;
      options.max_entries = c.max_entries;
      options.deletion_policy = policy;
      RecordedTree t(options, c.actions, c.seed, &crc);
      const int64_t ct = t.workload.current_time();
      // DELETE ... WHERE Overlaps(e, q) through the index, as the blade
      // drives it: each answer deleted, the cursor reset after a delete
      // under kRestartAlways, the postponed condense flushed at the end.
      const TimeExtent query =
          TimeExtent::Ground(10000, (10000 + ct) / 2, 9800, ct + 400);
      auto cursor_or = t.tree->Search(PredicateOp::kOverlaps, query, ct);
      ASSERT_TRUE(cursor_or.ok());
      auto cursor = std::move(cursor_or).value();
      size_t deleted = 0;
      while (true) {
        bool has = false;
        GRTree::Entry entry;
        ASSERT_TRUE(cursor->Next(&has, &entry).ok());
        if (!has) break;
        t.recorder.Feed('a', entry.payload);
        const uint64_t epoch = t.tree->condense_epoch();
        bool found = false;
        ASSERT_TRUE(
            t.tree->Delete(entry.extent, entry.payload, ct, &found).ok());
        ASSERT_TRUE(found);
        ++deleted;
        if (policy == DeletionPolicy::kRestartAlways &&
            epoch == t.tree->condense_epoch()) {
          cursor->Reset();
        }
      }
      t.recorder.Feed('s', cursor->restarts());
      EXPECT_GT(deleted, 0u);
      EXPECT_EQ(cursor->restarts() == 0,
                policy == DeletionPolicy::kPostponeReinsert);
      ASSERT_TRUE(t.tree->FlushPending(ct).ok());
      ASSERT_TRUE(t.tree->CheckConsistency(ct).ok());
      // What the DELETE left, scanned once more.
      EXPECT_EQ(t.Scan(PredicateOp::kOverlaps,
                       TimeExtent::Ground(0, 100000, 0, 100000), ct),
                t.tree->size());
    }
    EXPECT_EQ(Crc32Final(crc), c.crc) << std::hex << Crc32Final(crc);
  }
}

// The compiled entry test against the reference. For every predicate, a
// Filter over a page of seeded bounds passes exactly the entries LeafTest
// or InternalTest passes on the bound resolved at the same time, and
// Matches agrees with LeafTest on data extents. The bounds are leaf
// encodings of the six Fig. 2 cases, Enclose bounds with and without the
// Hidden flag, a drained node's empty bound, degenerate stairs and bounds
// with arbitrary flags; the queries include empty ones and stored extents
// (so Equal passes too); the current times fall before TTbegin as well as
// after.
TEST(GRTree, CompiledTestMatchesReference) {
  Random rng(2505);
  // Small coordinates make shared boundaries and equal regions common.
  auto chronon = [&] {
    return Timestamp::FromChronon(rng.UniformRange(0, 40));
  };
  // A data extent of Fig. 2 case `fig`.
  auto case_extent = [&](int fig) {
    const int64_t tt1 = rng.UniformRange(0, 40);
    const Timestamp tt_end =
        fig % 2 == 1 ? Timestamp::UC()
                     : Timestamp::FromChronon(tt1 + rng.UniformRange(0, 20));
    if (fig <= 2) {
      const int64_t vt1 = rng.UniformRange(0, 40);
      return TimeExtent(Timestamp::FromChronon(tt1), tt_end,
                        Timestamp::FromChronon(vt1),
                        Timestamp::FromChronon(vt1 + rng.UniformRange(0, 20)));
    }
    const int64_t vt1 = fig <= 4 ? tt1 : tt1 - rng.UniformRange(1, 20);
    return TimeExtent(Timestamp::FromChronon(tt1), tt_end,
                      Timestamp::FromChronon(vt1), Timestamp::NOW());
  };
  auto any_extent = [&] {
    return case_extent(1 + static_cast<int>(rng.Uniform(6)));
  };

  std::vector<TimeExtent> data;
  std::vector<BoundSpec> bounds;
  for (int fig = 1; fig <= 6; ++fig) {
    for (int i = 0; i < 20; ++i) {
      data.push_back(case_extent(fig));
      ASSERT_EQ(static_cast<int>(data.back().Classify()), fig);
      bounds.push_back(BoundSpec::FromExtent(data.back()));
    }
  }
  size_t hidden = 0;
  size_t stairs = 0;
  for (int i = 0; i < 300; ++i) {
    std::vector<BoundSpec> children;
    for (uint64_t c = 1 + rng.Uniform(4); c > 0; --c) {
      children.push_back(BoundSpec::FromExtent(any_extent()));
    }
    bounds.push_back(BoundSpec::Enclose(children, rng.UniformRange(0, 60)));
    hidden += bounds.back().hidden;
    stairs += !bounds.back().rectangle;
  }
  EXPECT_GT(hidden, 0u);
  EXPECT_GT(stairs, 0u);
  EXPECT_GT(300 - hidden - stairs, 0u);
  // A drained node's bound: empty at every time.
  BoundSpec drained;
  drained.tt_begin = Timestamp::FromChronon(1);
  drained.tt_end = Timestamp::FromChronon(0);
  drained.vt_begin = Timestamp::FromChronon(1);
  drained.vt_end = Timestamp::FromChronon(0);
  bounds.push_back(drained);
  for (int i = 0; i < 40; ++i) {
    // Degenerate stairs: VTbegin past TTbegin, vertical segments (the
    // populated start equal to TTend) and stairs empty at some times.
    BoundSpec stair;
    stair.tt_begin = chronon();
    stair.vt_begin = i % 4 == 0 ? stair.tt_begin : chronon();
    stair.tt_end = i % 3 == 0 ? Timestamp::UC()
                   : i % 3 == 1
                       ? Timestamp::FromChronon(std::max(
                             stair.tt_begin.chronon(),
                             stair.vt_begin.chronon()))
                       : chronon();
    stair.vt_end = Timestamp::NOW();
    stair.rectangle = false;
    bounds.push_back(stair);
    // Arbitrary timestamps and flags.
    BoundSpec any;
    any.tt_begin = chronon();
    any.tt_end = rng.Bernoulli(0.3) ? Timestamp::UC() : chronon();
    any.vt_begin = chronon();
    any.vt_end = rng.Bernoulli(0.3) ? Timestamp::NOW() : chronon();
    any.rectangle = rng.Bernoulli(0.7);
    any.hidden = rng.Bernoulli(0.4);
    bounds.push_back(any);
  }

  constexpr size_t kStride = GRTree::EntryTest::kEntryBytes;
  std::vector<uint8_t> page(bounds.size() * kStride);
  for (size_t i = 0; i < bounds.size(); ++i) {
    bounds[i].EncodeTo(page.data() + i * kStride);
    StoreU64(page.data() + i * kStride + BoundSpec::kBinarySize, i);
  }

  std::vector<TimeExtent> queries;
  for (int i = 0; i < 40; ++i) queries.push_back(any_extent());
  for (int i = 0; i < 20; ++i) {
    queries.push_back(data[rng.Uniform(data.size())]);
  }
  // Empty at every time: TTbegin past TTend, and a stair whose VTbegin is
  // past its TTend.
  queries.push_back(TimeExtent::Ground(30, 20, 5, 10));
  queries.push_back(TimeExtent(Timestamp::FromChronon(10),
                               Timestamp::FromChronon(12),
                               Timestamp::FromChronon(20), Timestamp::NOW()));

  const uint32_t count = static_cast<uint32_t>(bounds.size());
  std::vector<uint32_t> out(count);
  size_t empty_queries = 0;
  size_t passes[4][2] = {};
  size_t fails[4][2] = {};
  for (const TimeExtent& query : queries) {
    for (int64_t ct : {-5, 0, 7, 15, 23, 31, 40, 52, 75}) {
      const Region region = ResolveExtent(query, ct);
      empty_queries += region.IsEmpty();
      for (PredicateOp op :
           {PredicateOp::kOverlaps, PredicateOp::kContains,
            PredicateOp::kContainedIn, PredicateOp::kEqual}) {
        const GRTree::EntryTest test(op, query, ct);
        for (bool leaf : {true, false}) {
          std::vector<uint32_t> expected;
          for (uint32_t i = 0; i < count; ++i) {
            const Region bound = bounds[i].Resolve(ct);
            if (leaf ? GRTree::LeafTest(op, bound, region)
                     : GRTree::InternalTest(op, bound, region)) {
              expected.push_back(i);
            }
          }
          const uint32_t n = test.Filter(leaf, page.data(), count, out.data());
          ASSERT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + n),
                    expected)
              << "op " << static_cast<int>(op) << (leaf ? " leaf" : " internal")
              << ", query " << query.ToChrononString() << " at ct " << ct;
          passes[static_cast<int>(op)][leaf] += n;
          fails[static_cast<int>(op)][leaf] += count - n;
        }
        for (const TimeExtent& extent : data) {
          ASSERT_EQ(test.Matches(extent),
                    GRTree::LeafTest(op, ResolveExtent(extent, ct), region))
              << "op " << static_cast<int>(op) << ", data "
              << extent.ToChrononString() << ", query "
              << query.ToChrononString() << " at ct " << ct;
        }
      }
    }
  }
  EXPECT_GT(empty_queries, 2u * 9u);  // the two always-empty ones, and more
  for (int op = 0; op < 4; ++op) {
    for (int leaf = 0; leaf < 2; ++leaf) {
      EXPECT_GT(passes[op][leaf], 0u) << "op " << op << " leaf " << leaf;
      EXPECT_GT(fails[op][leaf], 0u) << "op " << op << " leaf " << leaf;
    }
  }
}

// Extents spread over far more than 2^22 chronons, some near +-2^45, where
// region arithmetic rounds: the tree stays consistent and its answers match
// brute force.
TEST(GRTree, ExtentsBeyondTheExactWindowStayCorrect) {
  TreeFixture fx;
  Random rng(31);
  std::unordered_map<uint64_t, TimeExtent> live;
  const int64_t kFar = int64_t{1} << 45;
  const int64_t ct = kFar;
  for (uint64_t i = 1; i <= 400; ++i) {
    const int64_t spread = i % 3 == 0 ? kFar : int64_t{1} << 30;
    const int64_t tt1 = rng.UniformRange(-spread, spread - 1000);
    const int64_t vt1 = tt1 - rng.UniformRange(0, 1 << 20);
    TimeExtent extent;
    if (rng.Bernoulli(0.5)) {
      extent = TimeExtent(Timestamp::FromChronon(tt1), Timestamp::UC(),
                          Timestamp::FromChronon(vt1), Timestamp::NOW());
    } else {
      extent = TimeExtent::Ground(tt1, tt1 + rng.UniformRange(0, 1 << 24),
                                  vt1, vt1 + rng.UniformRange(0, 1 << 24));
    }
    ASSERT_TRUE(fx.tree->Insert(extent, i, ct).ok());
    live[i] = extent;
  }
  ASSERT_TRUE(fx.tree->CheckConsistency(ct).ok());
  EXPECT_GE(fx.tree->height(), 3u);
  for (int q = 0; q < 20; ++q) {
    const int64_t tt = rng.UniformRange(-kFar, kFar);
    const int64_t vt = tt - rng.UniformRange(0, 1 << 28);
    const TimeExtent query =
        TimeExtent::Ground(tt, tt + (int64_t{1} << 29), vt, vt + (1 << 29));
    for (PredicateOp op : {PredicateOp::kOverlaps, PredicateOp::kContainedIn}) {
      EXPECT_EQ(TreeQuery(*fx.tree, op, query, ct),
                BruteQuery(live, op, query, ct));
    }
  }
}

// Postponed re-insertion over the inputs of PostponePolicyAvoidsRestarts:
// `n` ground extents at ct 2000, then the first `deletes` answers of a full
// Overlaps scan deleted through the cursor, as a DELETE statement runs.
struct PostponedDeletes {
  static constexpr int64_t kCt = 2000;
  TreeFixture fx;
  std::unordered_map<uint64_t, TimeExtent> live;

  PostponedDeletes(size_t max_entries, uint64_t n, size_t deletes)
      : fx([&] {
          GRTree::Options options;
          options.max_entries = max_entries;
          options.deletion_policy = DeletionPolicy::kPostponeReinsert;
          return options;
        }()) {
    Random rng(5);
    for (uint64_t i = 1; i <= n; ++i) {
      const int64_t tt1 = rng.UniformRange(1000, 1999);
      const TimeExtent extent =
          TimeExtent::Ground(tt1, tt1 + 10, tt1 - 50, tt1 - 20);
      EXPECT_TRUE(fx.tree->Insert(extent, i, kCt).ok());
      live[i] = extent;
    }
    auto cursor_or = fx.tree->Search(PredicateOp::kOverlaps, Everything(), kCt);
    EXPECT_TRUE(cursor_or.ok());
    auto cursor = std::move(cursor_or).value();
    for (size_t k = 0; k < deletes; ++k) {
      bool has = false;
      GRTree::Entry entry;
      EXPECT_TRUE(cursor->Next(&has, &entry).ok());
      EXPECT_TRUE(has);
      bool found = false;
      EXPECT_TRUE(
          fx.tree->Delete(entry.extent, entry.payload, kCt, &found).ok());
      EXPECT_TRUE(found);
      live.erase(entry.payload);
    }
  }

  static TimeExtent Everything() {
    return TimeExtent::Ground(0, 10000, 0, 10000);
  }

  // After FlushPending: a consistent tree that answers like brute force.
  void ExpectFlushedAndIntact() {
    ASSERT_TRUE(fx.tree->FlushPending(kCt).ok());
    EXPECT_FALSE(fx.tree->has_pending_condense());
    ASSERT_TRUE(fx.tree->CheckConsistency(kCt).ok());
    EXPECT_EQ(fx.tree->size(), live.size());
    for (const TimeExtent& query :
         {Everything(), TimeExtent::Ground(1200, 1400, 1100, 1300),
          TimeExtent::Ground(1900, 1950, 0, 1890)}) {
      EXPECT_EQ(TreeQuery(*fx.tree, PredicateOp::kOverlaps, query, kCt),
                BruteQuery(live, PredicateOp::kOverlaps, query, kCt));
    }
  }
};

// The deletes leave every child of the root underfull, so FlushPending's
// pass removes them all: the orphans must still find their way back in.
TEST(GRTree, FlushPendingRefillsADrainedRoot) {
  PostponedDeletes run(8, 300, 200);
  run.ExpectFlushedAndIntact();
  // The tree takes inserts again.
  ASSERT_TRUE(run.fx.tree
                  ->Insert(TimeExtent::Ground(1500, 1510, 1450, 1480), 301,
                           PostponedDeletes::kCt)
                  .ok());
  ASSERT_TRUE(run.fx.tree->CheckConsistency(PostponedDeletes::kCt).ok());
}

// Every prefix of a scan's answers, deleted, then flushed.
TEST(GRTree, FlushPendingAfterAnyPrefixOfDeletes) {
  constexpr uint64_t kRows = 150;
  for (size_t max_entries : {4, 8}) {
    for (size_t deletes = 0; deletes <= kRows; deletes += 5) {
      SCOPED_TRACE("max_entries " + std::to_string(max_entries) +
                   ", deletes " + std::to_string(deletes));
      PostponedDeletes run(max_entries, kRows, deletes);
      run.ExpectFlushedAndIntact();
    }
  }
}

// A node the deletes drained bounds nothing: until FlushPending its
// ancestors' bounds must not stretch to cover chronon 1, or scans far from
// the data descend into them.
TEST(GRTree, DrainedNodesDoNotStretchTheirAncestors) {
  PostponedDeletes run(8, 300, 200);
  ASSERT_TRUE(run.fx.tree->has_pending_condense());
  const TimeExtent empty_corner = TimeExtent::Ground(0, 500, 0, 500);
  run.fx.store.ResetStats();
  EXPECT_TRUE(TreeQuery(*run.fx.tree, PredicateOp::kOverlaps, empty_corner,
                        PostponedDeletes::kCt)
                  .empty());
  EXPECT_EQ(run.fx.store.stats().node_reads, 1u);  // the root alone
  const StatusOr<double> cost = run.fx.tree->EstimateScanCost(
      PredicateOp::kOverlaps, empty_corner, PostponedDeletes::kCt);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(cost.value(), 1.0);
  run.ExpectFlushedAndIntact();
}

// FlushPending writes only the nodes it changes: a flush after 60 deletes
// leaves the same pages, byte for byte, as rewriting every node it keeps
// did (the Crc32 over every page), for a small share of the writes.
TEST(GRTree, FlushPendingWritesOnlyChangedNodes) {
  PostponedDeletes run(8, 2000, 60);
  GRTreeStats stats;
  ASSERT_TRUE(run.fx.tree->ComputeStats(PostponedDeletes::kCt, 0, &stats).ok());
  run.fx.store.ResetStats();
  run.ExpectFlushedAndIntact();
  const uint64_t flush_writes = run.fx.store.stats().node_writes;
  EXPECT_GT(flush_writes, 0u);
  EXPECT_LT(flush_writes * 4, stats.nodes) << stats.nodes << " nodes";
  const uint32_t crc = PagesCrc(run.fx.space, &run.fx.store);
  EXPECT_EQ(crc, 0xa090685fu) << std::hex << crc;
}

// Serves every node page of one level with a garbled entry count, as a torn
// or bit-rotted page would hold. A node page starts with its level (u32)
// and its entry count (u32); the anchor page starts with a magic number,
// never a level.
class BadCountStore final : public NodeStore {
 public:
  BadCountStore(NodeStore* inner, uint32_t level, uint32_t count)
      : inner_(inner), level_(level), count_(count) {}

  Status AllocateNode(NodeId* id) override { return inner_->AllocateNode(id); }
  Status FreeNode(NodeId id) override { return inner_->FreeNode(id); }
  Status ReadNode(NodeId id, uint8_t* out) override {
    GRTDB_RETURN_IF_ERROR(inner_->ReadNode(id, out));
    if (LoadU32(out) == level_) StoreU32(out + 4, count_);
    return Status::OK();
  }
  Status WriteNode(NodeId id, const uint8_t* data) override {
    return inner_->WriteNode(id, data);
  }
  uint64_t LoOfNode(NodeId id) const override { return inner_->LoOfNode(id); }
  Status Flush() override { return inner_->Flush(); }

 private:
  NodeStore* inner_;
  uint32_t level_;
  uint32_t count_;
};

// A count past what a page holds must stop every reader before it decodes
// past the page: the scan, the cost estimate and the checker.
TEST(GRTree, EntryCountPastPageCapacityIsCorruption) {
  MemorySpace space;
  Pager pager(&space, 512);
  PagerNodeStore store(&pager);
  GRTree::Options options;  // max_entries 0: nodes hold a full page
  NodeId anchor;
  auto tree_or = GRTree::Create(&store, options, &anchor);
  ASSERT_TRUE(tree_or.ok());
  std::unique_ptr<GRTree> tree = std::move(tree_or).value();
  const int64_t ct = 5000;
  for (uint64_t i = 0; i < 300; ++i) {
    const int64_t t = 1000 + static_cast<int64_t>(i);
    ASSERT_TRUE(
        tree->Insert(TimeExtent::Ground(t, t + 5, t - 100, t), i, ct).ok());
  }
  ASSERT_EQ(tree->height(), 2u);
  const TimeExtent everything = TimeExtent::Ground(0, 10000, 0, 10000);
  const uint32_t capacity = static_cast<uint32_t>(tree->max_entries());

  for (uint32_t count : {capacity + 1, UINT32_MAX}) {
    for (uint32_t level : {0u, 1u}) {
      SCOPED_TRACE("count " + std::to_string(count) + " on level " +
                   std::to_string(level));
      BadCountStore bad(&store, level, count);
      auto opened_or = GRTree::Open(&bad, anchor, options);
      ASSERT_TRUE(opened_or.ok());
      std::unique_ptr<GRTree> opened = std::move(opened_or).value();

      auto cursor_or = opened->Search(PredicateOp::kOverlaps, everything, ct);
      ASSERT_TRUE(cursor_or.ok());
      auto cursor = std::move(cursor_or).value();
      Status status;
      bool has = true;
      GRTree::Entry entry;
      while (has && status.ok()) status = cursor->Next(&has, &entry);
      EXPECT_TRUE(status.IsCorruption()) << status.ToString();

      EXPECT_TRUE(opened->CheckConsistency(ct).IsCorruption());

      // The estimate reads the internal levels only.
      const StatusOr<double> cost =
          opened->EstimateScanCost(PredicateOp::kOverlaps, everything, ct);
      if (level == 0) {
        EXPECT_TRUE(cost.ok());
      } else {
        EXPECT_TRUE(cost.status().IsCorruption());
      }
    }
  }
}

}  // namespace
}  // namespace grtdb
