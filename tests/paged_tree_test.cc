// The storage-facing lifecycle the four index cores share (anchor page,
// Create/Open, Drop): pinned for the GR-tree, R*-tree, B+-tree and GiST
// alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>

#include "btree/btree.h"
#include "common/bytes.h"
#include "core/grtree.h"
#include "gist/gist.h"
#include "rstar/rstar_tree.h"
#include "storage/pager.h"
#include "storage/space.h"

namespace grtdb {
namespace {

constexpr int kGrowBy = 100;
constexpr int64_t kCt = 5000;
// The anchor fields the trees write: magic, root, height, size, and the
// GR-tree's condense epoch and pending-reinsert flag. The rest is zero.
constexpr size_t kAnchorBytes = 33;

struct Harness {
  MemorySpace space;
  Pager pager{&space, 512};
  PagerNodeStore store{&pager};
};

// Runs `fn` on the tree an Open call returned.
template <typename Tree, typename Fn>
Status WithTree(StatusOr<std::unique_ptr<Tree>> tree_or, Fn fn) {
  if (!tree_or.ok()) return tree_or.status();
  return fn(*tree_or.value());
}

// Small fanouts, so kGrowBy entries make a tree of several levels.
GRTree::Options GrtOptions() {
  GRTree::Options options;
  options.max_entries = 8;
  return options;
}
RStarTree::Options RstOptions() {
  RStarTree::Options options;
  options.max_entries = 8;
  return options;
}
BtreeIndex::Options BtOptions() {
  BtreeIndex::Options options;
  options.max_entries = 6;
  return options;
}

// Interval keys padded to 300 bytes, so a GiST leaf holds 13 of them.
GistKey PaddedRange(int64_t lo, int64_t hi) {
  GistKey key(300, 0);
  StoreI64(key.data(), lo);
  StoreI64(key.data() + 8, hi);
  return key;
}
GistExtension RangeExtension() {
  auto lo = [](const GistKey& key) { return LoadI64(key.data()); };
  auto hi = [](const GistKey& key) { return LoadI64(key.data() + 8); };
  GistExtension ext;
  ext.consistent = [=](const GistKey& key, const GistKey& query, int, bool) {
    return lo(key) <= lo(query) && hi(query) <= hi(key);
  };
  ext.unite = [=](std::span<const GistKey> keys) {
    GistKey out(16);
    int64_t l = lo(keys[0]);
    int64_t h = hi(keys[0]);
    for (const GistKey& key : keys) {
      l = std::min(l, lo(key));
      h = std::max(h, hi(key));
    }
    StoreI64(out.data(), l);
    StoreI64(out.data() + 8, h);
    return out;
  };
  ext.penalty = [=](const GistKey& existing, const GistKey& key) {
    return static_cast<double>(std::max(hi(existing), hi(key)) -
                               std::min(lo(existing), lo(key)));
  };
  ext.pick_split = [=](std::span<const GistKey> keys) {
    std::vector<size_t> order(keys.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return lo(keys[a]) < lo(keys[b]); });
    return std::vector<size_t>(order.begin() + order.size() / 2, order.end());
  };
  return ext;
}

// One tree kind: how to create, open, grow and drop it, and its anchor
// bytes [0, kAnchorBytes) after Create and after growing by kGrowBy.
struct TreeKind {
  const char* name;
  std::function<Status(NodeStore*, NodeId*)> create;
  std::function<Status(NodeStore*, NodeId)> open;
  // Opens the tree at the anchor and inserts entries 1..n.
  std::function<Status(NodeStore*, NodeId, int)> grow;
  std::function<Status(NodeStore*, NodeId)> drop;
  const char* created;
  const char* grown;
};

void PrintTo(const TreeKind& kind, std::ostream* os) { *os << kind.name; }

TreeKind GRTreeKind() {
  auto open = [](NodeStore* store, NodeId anchor) {
    return GRTree::Open(store, anchor, GrtOptions());
  };
  return {
      "GRTree",
      [](NodeStore* store, NodeId* anchor) {
        return GRTree::Create(store, GrtOptions(), anchor).status();
      },
      [=](NodeStore* store, NodeId anchor) {
        return open(store, anchor).status();
      },
      [=](NodeStore* store, NodeId anchor, int n) {
        return WithTree(open(store, anchor), [n](GRTree& tree) {
          for (int i = 1; i <= n; ++i) {
            const int64_t t = 1000 + (i * 37) % 400;
            const TimeExtent extent =
                i % 3 == 0 ? TimeExtent(Timestamp::FromChronon(t),
                                        Timestamp::UC(),
                                        Timestamp::FromChronon(t - 50),
                                        Timestamp::NOW())
                           : TimeExtent::Ground(t, t + 5, t - 100, t);
            GRTDB_RETURN_IF_ERROR(tree.Insert(extent, i, kCt));
          }
          return Status::OK();
        });
      },
      [=](NodeStore* store, NodeId anchor) {
        return WithTree(open(store, anchor),
                        [](GRTree& tree) { return tree.Drop(); });
      },
      "52545247"
      "0100000000000000"
      "01000000"
      "0000000000000000"
      "0000000000000000"
      "00",
      "52545247"
      "0c00000000000000"
      "03000000"
      "6400000000000000"
      "1600000000000000"
      "00",
  };
}

TreeKind RStarKind() {
  auto open = [](NodeStore* store, NodeId anchor) {
    return RStarTree::Open(store, anchor, RstOptions());
  };
  return {
      "RStar",
      [](NodeStore* store, NodeId* anchor) {
        return RStarTree::Create(store, RstOptions(), anchor).status();
      },
      [=](NodeStore* store, NodeId anchor) {
        return open(store, anchor).status();
      },
      [=](NodeStore* store, NodeId anchor, int n) {
        return WithTree(open(store, anchor), [n](RStarTree& tree) {
          for (int i = 1; i <= n; ++i) {
            const int64_t x = (i * 37) % 200;
            const int64_t y = (i * 91) % 200;
            GRTDB_RETURN_IF_ERROR(
                tree.Insert(Rect::Of(x, x + 3, y, y + 3), i));
          }
          return Status::OK();
        });
      },
      [=](NodeStore* store, NodeId anchor) {
        return WithTree(open(store, anchor),
                        [](RStarTree& tree) { return tree.Drop(); });
      },
      "52545352"
      "0100000000000000"
      "01000000"
      "0000000000000000"
      "0000000000000000"
      "00",
      "52545352"
      "0c00000000000000"
      "03000000"
      "6400000000000000"
      "0000000000000000"
      "00",
  };
}

TreeKind BtreeKind() {
  auto open = [](NodeStore* store, NodeId anchor) {
    return BtreeIndex::Open(store, anchor, BtOptions());
  };
  return {
      "Btree",
      [](NodeStore* store, NodeId* anchor) {
        return BtreeIndex::Create(store, BtOptions(), anchor).status();
      },
      [=](NodeStore* store, NodeId anchor) {
        return open(store, anchor).status();
      },
      [=](NodeStore* store, NodeId anchor, int n) {
        return WithTree(open(store, anchor), [n](BtreeIndex& tree) {
          for (int i = 1; i <= n; ++i) {
            GRTDB_RETURN_IF_ERROR(
                tree.Insert((i * 37) % 1000, i, NaturalCompare));
          }
          return Status::OK();
        });
      },
      [=](NodeStore* store, NodeId anchor) {
        return WithTree(open(store, anchor),
                        [](BtreeIndex& tree) { return tree.Drop(); });
      },
      "45525442"
      "0100000000000000"
      "01000000"
      "0000000000000000"
      "0000000000000000"
      "00",
      "45525442"
      "0b00000000000000"
      "03000000"
      "6400000000000000"
      "0000000000000000"
      "00",
  };
}

TreeKind GistKind() {
  return {
      "Gist",
      [](NodeStore* store, NodeId* anchor) {
        return GistTree::Create(store, anchor).status();
      },
      [](NodeStore* store, NodeId anchor) {
        return GistTree::Open(store, anchor).status();
      },
      [](NodeStore* store, NodeId anchor, int n) {
        return WithTree(GistTree::Open(store, anchor), [n](GistTree& tree) {
          const GistExtension ext = RangeExtension();
          for (int i = 1; i <= n; ++i) {
            const int64_t lo = (i * 37) % 400;
            GRTDB_RETURN_IF_ERROR(tree.Insert(PaddedRange(lo, lo + 9), i, ext));
          }
          return Status::OK();
        });
      },
      [](NodeStore* store, NodeId anchor) {
        return WithTree(GistTree::Open(store, anchor),
                        [](GistTree& tree) { return tree.Drop(); });
      },
      "54534947"
      "0100000000000000"
      "01000000"
      "0000000000000000"
      "0000000000000000"
      "00",
      "54534947"
      "0300000000000000"
      "02000000"
      "6400000000000000"
      "0000000000000000"
      "00",
  };
}

std::string AnchorHex(NodeStore* store, NodeId anchor) {
  uint8_t page[kPageSize];
  EXPECT_TRUE(store->ReadNode(anchor, page).ok());
  for (size_t i = kAnchorBytes; i < kPageSize; ++i) {
    EXPECT_EQ(page[i], 0) << "anchor byte " << i;
  }
  std::string hex;
  char buf[3];
  for (size_t i = 0; i < kAnchorBytes; ++i) {
    std::snprintf(buf, sizeof(buf), "%02x", page[i]);
    hex += buf;
  }
  return hex;
}

class PagedTreeTest : public ::testing::TestWithParam<TreeKind> {};

// The anchor page's bytes are the on-disk format every index file and LO
// already holds: Create writes the anchor first (node 0), then the empty
// root (node 1), and the fields sit at fixed offsets.
TEST_P(PagedTreeTest, AnchorGoldenBytes) {
  Harness h;
  NodeId anchor = kInvalidNodeId;
  ASSERT_TRUE(GetParam().create(&h.store, &anchor).ok());
  EXPECT_EQ(anchor, 0u);
  EXPECT_EQ(AnchorHex(&h.store, anchor), GetParam().created);
  ASSERT_TRUE(GetParam().grow(&h.store, anchor, kGrowBy).ok());
  EXPECT_EQ(AnchorHex(&h.store, anchor), GetParam().grown);
}

// Drop frees every node the tree ever held plus the anchor: afterwards
// every page the store allocated is on its free list, once.
TEST_P(PagedTreeTest, DropFreesEveryNodeAndTheAnchor) {
  Harness h;
  NodeId anchor = kInvalidNodeId;
  ASSERT_TRUE(GetParam().create(&h.store, &anchor).ok());
  ASSERT_TRUE(GetParam().grow(&h.store, anchor, kGrowBy).ok());
  EXPECT_EQ(h.store.FreeListLength(), 0u);
  ASSERT_TRUE(GetParam().drop(&h.store, anchor).ok());
  EXPECT_GT(h.space.page_count(), 10u);
  EXPECT_EQ(h.store.FreeListLength(), h.space.page_count());
}

TEST_P(PagedTreeTest, BadAnchorMagicIsCorruption) {
  Harness h;
  NodeId anchor = kInvalidNodeId;
  ASSERT_TRUE(GetParam().create(&h.store, &anchor).ok());
  ASSERT_TRUE(GetParam().grow(&h.store, anchor, 10).ok());
  ASSERT_TRUE(GetParam().open(&h.store, anchor).ok());
  uint8_t page[kPageSize];
  ASSERT_TRUE(h.store.ReadNode(anchor, page).ok());
  StoreU32(page, LoadU32(page) ^ 0x100);
  ASSERT_TRUE(h.store.WriteNode(anchor, page).ok());
  EXPECT_TRUE(GetParam().open(&h.store, anchor).IsCorruption());
  // A node page is no anchor either.
  EXPECT_TRUE(GetParam().open(&h.store, anchor + 1).IsCorruption());
}

INSTANTIATE_TEST_SUITE_P(Trees, PagedTreeTest,
                         ::testing::Values(GRTreeKind(), RStarKind(),
                                           BtreeKind(), GistKind()),
                         [](const auto& info) { return info.param.name; });

// The GR-tree's anchor tail: a postponed condense sets the pending flag
// (byte 32) and bumps nothing else; Open reads both tail fields back.
TEST(PagedTree, GRTreeAnchorTailRoundTrips) {
  Harness h;
  GRTree::Options options = GrtOptions();
  options.deletion_policy = DeletionPolicy::kPostponeReinsert;
  NodeId anchor = kInvalidNodeId;
  auto tree_or = GRTree::Create(&h.store, options, &anchor);
  ASSERT_TRUE(tree_or.ok());
  std::unique_ptr<GRTree> tree = std::move(tree_or).value();
  for (int i = 1; i <= 40; ++i) {
    ASSERT_TRUE(
        tree->Insert(TimeExtent::Ground(1000 + i, 1005 + i, 900, 1000 + i), i,
                     kCt)
            .ok());
  }
  const uint64_t epoch = tree->condense_epoch();
  ASSERT_GT(epoch, 0u);
  for (int i = 1; i <= 8; ++i) {
    bool found = false;
    ASSERT_TRUE(tree->Delete(TimeExtent::Ground(1000 + i, 1005 + i, 900,
                                                1000 + i),
                             i, kCt, &found)
                    .ok());
    ASSERT_TRUE(found);
  }
  ASSERT_TRUE(tree->has_pending_condense());
  uint8_t page[kPageSize];
  ASSERT_TRUE(h.store.ReadNode(anchor, page).ok());
  EXPECT_EQ(LoadU64(page + 24), epoch);
  EXPECT_EQ(page[32], 1);
  auto reopened_or = GRTree::Open(&h.store, anchor, options);
  ASSERT_TRUE(reopened_or.ok());
  EXPECT_EQ(reopened_or.value()->condense_epoch(), epoch);
  EXPECT_TRUE(reopened_or.value()->has_pending_condense());
  EXPECT_EQ(reopened_or.value()->size(), 32u);
}

}  // namespace
}  // namespace grtdb
