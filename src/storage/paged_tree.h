#ifndef GRTDB_STORAGE_PAGED_TREE_H_
#define GRTDB_STORAGE_PAGED_TREE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "storage/node_store.h"

namespace grtdb {

// What a paged tree's anchor and node capacity look like: the anchor
// page's magic word, the tree's name for error messages, how many entries
// a node page holds (0 when keys vary in size, so no count applies) and
// the smallest `max_entries` the tree's algorithms accept.
struct PagedTreeFormat {
  uint32_t magic;
  const char* name;
  size_t page_capacity;
  size_t min_capacity;
};

// One level's counts; the trees' stats records extend it. Level 0 is the
// leaf level.
struct TreeLevelStats {
  uint32_t level = 0;
  uint64_t nodes = 0;
  uint64_t entries = 0;
};

// The storage-facing lifecycle the four index cores (GR-tree, R*-tree,
// B+-tree, GiST) share, under their own node formats (paper §7: isolate
// the few primitives a new tree index needs). It owns
//   - the anchor page: magic u32 @0, root u64 @4, height u32 @12, size
//     u64 @16, and the GR-tree's condense epoch u64 @24 and
//     pending-reinsert flag u8 @32 (zero in the other trees), rest zero;
//   - Create (anchor node first, then an empty root leaf) and Open, both
//     behind one node-capacity check;
//   - Drop, the level-by-level stats walk and the R-trees' STR bulk load;
//   - for the R-tree family (GR-tree, R*-tree, GiST), how the root
//     changes: the insert loop that grows a new root over a split
//     (InsertLeaf), and the condense tail that re-inserts orphans and
//     shrinks the root (Condense).
// `Tree` derives from PagedTree<Tree>, befriends it and provides its
// decoded `Node` (default-constructed = an empty root leaf), its node codec
// `ReadNode(NodeId, Node*) const` / `WriteNode(NodeId, const Node&)`, and,
// unless its nodes hold `level` and `entries` whose `payload`s name the
// children, `static AppendChildren(const Node&, std::vector<NodeId>*)`.
// A tree that inserts through InsertLeaf/Condense also provides
// `InsertRecursive(NodeId, const Entry&, uint32_t level, args...,
// Insertion<Entry>*)`. `kRootEpoch`: growing or collapsing the root bumps
// the condense epoch (the GR-tree's open cursors restart on it, §5.5).
// No virtual calls: everything resolves at compile time.
template <typename Tree, bool kRootEpoch = false>
class PagedTree {
 public:
  PagedTree(const PagedTree&) = delete;
  PagedTree& operator=(const PagedTree&) = delete;

  uint64_t size() const { return size_; }
  uint32_t height() const { return height_; }
  NodeId anchor() const { return anchor_; }
  // Entries per node; 0 when keys vary in size.
  size_t max_entries() const { return max_entries_; }

  // Frees every node reachable from the root, then the anchor.
  Status Drop() {
    std::vector<NodeId> stack = {root_};
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      typename Tree::Node node;
      GRTDB_RETURN_IF_ERROR(self().ReadNode(id, &node));
      Tree::AppendChildren(node, &stack);
      GRTDB_RETURN_IF_ERROR(store_->FreeNode(id));
    }
    GRTDB_RETURN_IF_ERROR(store_->FreeNode(anchor_));
    root_ = kInvalidNodeId;
    anchor_ = kInvalidNodeId;
    size_ = 0;
    height_ = 1;
    return Status::OK();
  }

 protected:
  // `max_entries` 0 takes the page capacity; `min_fill` sets min_entries_.
  PagedTree(NodeStore* store, const PagedTreeFormat& format,
            size_t max_entries = 0, double min_fill = 0.0)
      : store_(store),
        max_entries_(max_entries != 0 ? max_entries : format.page_capacity),
        min_entries_(std::max<size_t>(
            1, static_cast<size_t>(min_fill *
                                   static_cast<double>(max_entries_)))),
        format_(format) {}

  // Create: allocates the anchor, then an empty root leaf, and writes both.
  static StatusOr<std::unique_ptr<Tree>> Bootstrap(std::unique_ptr<Tree> tree,
                                                   NodeId* anchor) {
    GRTDB_RETURN_IF_ERROR(tree->CheckCapacity());
    GRTDB_RETURN_IF_ERROR(tree->store_->AllocateNode(&tree->anchor_));
    GRTDB_RETURN_IF_ERROR(tree->store_->AllocateNode(&tree->root_));
    GRTDB_RETURN_IF_ERROR(tree->WriteNode(tree->root_, typename Tree::Node{}));
    GRTDB_RETURN_IF_ERROR(tree->SaveAnchor());
    *anchor = tree->anchor_;
    return tree;
  }

  // Open: reads the anchor; a wrong magic is Corruption.
  static StatusOr<std::unique_ptr<Tree>> Attach(std::unique_ptr<Tree> tree,
                                                NodeId anchor) {
    GRTDB_RETURN_IF_ERROR(tree->CheckCapacity());
    tree->anchor_ = anchor;
    NodeView view;
    GRTDB_RETURN_IF_ERROR(tree->store_->ViewNode(anchor, &view));
    const uint8_t* page = view.data();
    if (LoadU32(page) != tree->format_.magic) {
      return Status::Corruption(std::string("bad ") + tree->format_.name +
                                " anchor magic");
    }
    tree->root_ = LoadU64(page + 4);
    tree->height_ = LoadU32(page + 12);
    tree->size_ = LoadU64(page + 16);
    tree->condense_epoch_ = LoadU64(page + 24);
    tree->has_pending_condense_ = page[32] != 0;
    return tree;
  }

  Status SaveAnchor() {
    uint8_t page[kPageSize] = {};
    StoreU32(page, format_.magic);
    StoreU64(page + 4, root_);
    StoreU32(page + 12, height_);
    StoreU64(page + 16, size_);
    StoreU64(page + 24, condense_epoch_);
    page[32] = has_pending_condense_ ? 1 : 0;
    return store_->WriteNode(anchor_, page);
  }

  template <typename Node>
  static void AppendChildren(const Node& node, std::vector<NodeId>* out) {
    if (node.level == 0) return;
    for (const auto& entry : node.entries) out->push_back(entry.payload);
  }

  // Walks the tree level by level from the root into one `Stats` (a
  // TreeLevelStats) per level: counts each level's nodes, and
  // `add(node, &stats)` adds the rest of what the tree reports.
  template <typename Stats, typename Add>
  Status CollectLevelStats(std::vector<Stats>* out, Add add) const {
    out->assign(height_, Stats{});
    for (uint32_t i = 0; i < height_; ++i) (*out)[i].level = i;
    std::vector<NodeId> frontier = {root_};
    for (uint32_t depth = 0; !frontier.empty(); ++depth) {
      if (depth >= height_) {
        return Status::Corruption(std::string(format_.name) +
                                  " deeper than its anchor height");
      }
      Stats& stats = (*out)[height_ - 1 - depth];
      std::vector<NodeId> next;
      for (NodeId id : frontier) {
        typename Tree::Node node;
        GRTDB_RETURN_IF_ERROR(self().ReadNode(id, &node));
        ++stats.nodes;
        GRTDB_RETURN_IF_ERROR(add(node, &stats));
        Tree::AppendChildren(node, &next);
      }
      frontier = std::move(next);
    }
    return Status::OK();
  }

  // Bulk-loads `entries` into the empty tree bottom-up, Sort-Tile-Recursive:
  // each level is cut into slabs by `key_x`, every slab sorted by `key_y`
  // and packed into nodes 70% full, underfull tail groups merged with a
  // neighbour; `bound(node)` is the bound a parent entry keeps. The new
  // root replaces the empty one; `new_epoch` bumps the condense epoch so
  // the GR-tree's open cursors restart on it.
  template <typename Entry, typename KeyX, typename KeyY, typename Bound>
  Status StrPack(std::vector<Entry> current, KeyX key_x, KeyY key_y,
                 Bound bound, bool new_epoch = false) {
    if (size_ != 0) {
      return Status::InvalidArgument("BulkLoad requires an empty tree");
    }
    if (current.empty()) return Status::OK();
    const size_t fill = std::max<size_t>(
        2, static_cast<size_t>(0.7 * static_cast<double>(max_entries_)));
    size_ = current.size();
    for (uint32_t level = 0;; ++level) {
      const size_t node_count = (current.size() + fill - 1) / fill;
      const size_t slab_size =
          static_cast<size_t>(
              std::ceil(std::sqrt(static_cast<double>(node_count)))) *
          fill;
      std::sort(current.begin(), current.end(),
                [&](const Entry& a, const Entry& b) {
                  return key_x(a) < key_x(b);
                });
      std::vector<std::vector<Entry>> groups;
      for (size_t begin = 0; begin < current.size(); begin += slab_size) {
        const size_t end = std::min(current.size(), begin + slab_size);
        std::sort(current.begin() + begin, current.begin() + end,
                  [&](const Entry& a, const Entry& b) {
                    return key_y(a) < key_y(b);
                  });
        for (size_t i = begin; i < end; i += fill) {
          groups.emplace_back(current.begin() + i,
                              current.begin() + std::min(end, i + fill));
        }
      }
      // STR remainders can leave underfull tail groups; rebalance them
      // with a neighbour so the min-fill invariant holds for every
      // non-root node.
      for (size_t i = 0; groups.size() > 1 && i < groups.size();) {
        if (groups[i].size() >= min_entries_) {
          ++i;
          continue;
        }
        const size_t low = i > 0 ? i - 1 : i;
        std::vector<Entry> merged = std::move(groups[low]);
        merged.insert(merged.end(), groups[low + 1].begin(),
                      groups[low + 1].end());
        groups.erase(groups.begin() + low + 1);
        if (merged.size() <= max_entries_) {
          groups[low] = std::move(merged);
        } else {
          const size_t half = merged.size() / 2;
          groups[low].assign(merged.begin(), merged.begin() + half);
          groups.insert(groups.begin() + low + 1,
                        std::vector<Entry>(merged.begin() + half,
                                           merged.end()));
        }
        i = low;
      }
      std::vector<Entry> next_level;
      NodeId id = kInvalidNodeId;
      for (std::vector<Entry>& group : groups) {
        typename Tree::Node node;
        node.level = level;
        node.entries = std::move(group);
        GRTDB_RETURN_IF_ERROR(store_->AllocateNode(&id));
        GRTDB_RETURN_IF_ERROR(self().WriteNode(id, node));
        next_level.push_back(Entry{bound(node), id});
      }
      if (next_level.size() == 1) {
        GRTDB_RETURN_IF_ERROR(store_->FreeNode(root_));
        root_ = id;
        height_ = level + 1;
        if (new_epoch) ++condense_epoch_;
        return SaveAnchor();
      }
      current = std::move(next_level);
    }
  }

  // One insertion's state, threaded through the tree's InsertRecursive.
  template <typename Entry>
  struct Insertion {
    // (entry, level) pairs still to insert; forced reinsert queues the
    // entries it evicts here.
    std::deque<std::pair<Entry, uint32_t>> queue;
    // Levels where forced reinsert already ran: once per level and
    // insertion (R* OverflowTreatment).
    std::vector<bool> reinserted;
    // What each level hands the level above: the entry the parent keeps
    // for the node (its new bound and its id) and, after a split, the
    // entry of the new sibling.
    Entry entry;
    bool split = false;
    Entry sibling;

    // Whether forced reinsert may run at `level`; marks it as run.
    bool FirstOverflowAt(uint32_t level) {
      if (level >= reinserted.size() || reinserted[level]) return false;
      reinserted[level] = true;
      return true;
    }
  };

  // Inserts one leaf entry; `args` go to the tree's InsertRecursive.
  template <typename Entry, typename... Args>
  Status InsertLeaf(Entry entry, const Args&... args) {
    Insertion<Entry> ins;
    ins.reinserted.assign(height_, false);
    GRTDB_RETURN_IF_ERROR(InsertAt(std::move(entry), 0, &ins, args...));
    ++size_;
    return SaveAnchor();
  }

  // A delete's condense tail: re-inserts the entries of the nodes it
  // removed at their levels, highest first and before the root shrinks so
  // every level still exists, with forced reinsert off to keep the
  // condensation bounded; then shrinks the root and saves the anchor.
  template <typename Entry, typename... Args>
  Status Condense(std::vector<std::pair<Entry, uint32_t>> orphans,
                  const Args&... args) {
    std::stable_sort(
        orphans.begin(), orphans.end(),
        [](const auto& a, const auto& b) { return a.second > b.second; });
    Insertion<Entry> ins;
    ins.reinserted.assign(height_, true);
    for (auto& [entry, level] : orphans) {
      GRTDB_RETURN_IF_ERROR(InsertAt(std::move(entry), level, &ins, args...));
    }
    GRTDB_RETURN_IF_ERROR(ShrinkRoot());
    return SaveAnchor();
  }

  NodeStore* store_;
  size_t max_entries_;
  size_t min_entries_;
  NodeId anchor_ = kInvalidNodeId;
  NodeId root_ = kInvalidNodeId;
  uint32_t height_ = 1;
  uint64_t size_ = 0;
  // The GR-tree's anchor tail (paper §5.5); the other trees keep both at
  // zero.
  uint64_t condense_epoch_ = 0;
  bool has_pending_condense_ = false;

 private:
  // Inserts `entry` at `level`, then every entry forced reinsert evicts on
  // the way; a split of the root grows a new one.
  template <typename Entry, typename... Args>
  Status InsertAt(Entry entry, uint32_t level, Insertion<Entry>* ins,
                  const Args&... args) {
    ins->queue.emplace_back(std::move(entry), level);
    while (!ins->queue.empty()) {
      auto [item, item_level] = std::move(ins->queue.front());
      ins->queue.pop_front();
      GRTDB_RETURN_IF_ERROR(
          self().InsertRecursive(root_, item, item_level, args..., ins));
      if (!ins->split) continue;
      typename Tree::Node root;  // read for the old root's level
      GRTDB_RETURN_IF_ERROR(self().ReadNode(root_, &root));
      ++root.level;
      root.entries = {ins->entry, ins->sibling};
      NodeId id;
      GRTDB_RETURN_IF_ERROR(store_->AllocateNode(&id));
      GRTDB_RETURN_IF_ERROR(self().WriteNode(id, root));
      root_ = id;
      ++height_;
      if constexpr (kRootEpoch) ++condense_epoch_;
      ins->reinserted.resize(height_, false);
      GRTDB_RETURN_IF_ERROR(SaveAnchor());
    }
    return Status::OK();
  }

  // Collapses single-child internal roots.
  Status ShrinkRoot() {
    for (;;) {
      typename Tree::Node root;
      GRTDB_RETURN_IF_ERROR(self().ReadNode(root_, &root));
      if (root.level == 0 || root.entries.size() != 1) return Status::OK();
      GRTDB_RETURN_IF_ERROR(store_->FreeNode(root_));
      root_ = root.entries[0].payload;
      --height_;
      if constexpr (kRootEpoch) ++condense_epoch_;
    }
  }

  Status CheckCapacity() const {
    if (format_.page_capacity == 0) return Status::OK();
    if (max_entries_ > format_.page_capacity) {
      return Status::InvalidArgument("max_entries exceeds page capacity");
    }
    if (max_entries_ < format_.min_capacity) {
      return Status::InvalidArgument("max_entries must be >= " +
                                     std::to_string(format_.min_capacity));
    }
    return Status::OK();
  }

  const Tree& self() const { return static_cast<const Tree&>(*this); }
  Tree& self() { return static_cast<Tree&>(*this); }

  PagedTreeFormat format_;
};

}  // namespace grtdb

#endif  // GRTDB_STORAGE_PAGED_TREE_H_
