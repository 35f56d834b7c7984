#ifndef GRTDB_RSTAR_RSTAR_TREE_H_
#define GRTDB_RSTAR_RSTAR_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "rstar/rect.h"
#include "storage/node_store.h"
#include "storage/paged_tree.h"

namespace grtdb {

// Per-level structure statistics (bench T3 reports these).
struct RStarLevelStats : TreeLevelStats {
  double total_area = 0.0;
  double overlap_area = 0.0;  // sum of pairwise entry-overlap per node
};

// A disk-based R*-tree [BEC90] over a NodeStore: ChooseSubtree with
// minimum-overlap enlargement at the leaf level, margin-driven topological
// split, forced reinsertion on first overflow per level, and deletion with
// tree condensation. This is both the substrate the GR-tree derives from
// (paper §3) and the comparison baseline (via the maximum-timestamp
// transform, bench T5).
class RStarTree : public PagedTree<RStarTree> {
 public:
  struct Options {
    // 0 derives the maximum from the page size.
    size_t max_entries = 0;
    double min_fill = 0.4;
    double reinsert_fraction = 0.3;
    bool forced_reinsert = true;
  };

  struct Entry {
    Rect rect;
    uint64_t payload = 0;
  };

  // Creates an empty tree; `*anchor` receives the node id that persists the
  // tree's root pointer (pass it to Open later).
  static StatusOr<std::unique_ptr<RStarTree>> Create(NodeStore* store,
                                                     const Options& options,
                                                     NodeId* anchor);
  static StatusOr<std::unique_ptr<RStarTree>> Open(NodeStore* store,
                                                   NodeId anchor,
                                                   const Options& options);

  Status Insert(const Rect& rect, uint64_t payload);

  // Removes one entry matching (rect, payload); *found reports whether one
  // existed. Underfull nodes are condensed and their entries re-inserted.
  Status Delete(const Rect& rect, uint64_t payload, bool* found);

  // Calls `fn` for every leaf entry whose rect intersects `query`; return
  // false from `fn` to stop early.
  Status Search(const Rect& query,
                const std::function<bool(const Entry&)>& fn) const;
  Status SearchAll(const Rect& query, std::vector<Entry>* out) const;

  // Estimated node reads for an intersection query (am_scancost): walks
  // internal levels counting overlapping branches.
  StatusOr<double> EstimateScanCost(const Rect& query) const;

  // Structural invariants: bounds contain children, fill factors, entry
  // count. Backs am_check.
  Status CheckConsistency() const;

  Status LevelStats(std::vector<RStarLevelStats>* out) const;

  // Bulk-loads `entries` bottom-up (Sort-Tile-Recursive); the tree must be
  // empty. Used by the vacuum/rebuild path of bench T9.
  Status BulkLoad(std::vector<Entry> entries);

 private:
  friend class PagedTree<RStarTree>;

  struct Node {
    uint32_t level = 0;  // 0 = leaf
    std::vector<Entry> entries;
  };

  RStarTree(NodeStore* store, const Options& options);

  Status ReadNode(NodeId id, Node* node) const;
  Status WriteNode(NodeId id, const Node& node);

  Rect NodeBound(const Node& node) const;
  Status ChooseSubtree(const Node& node, const Rect& rect, size_t* best);

  // Inserts `entry` at `level` below `node_id`, splitting or reinserting
  // as needed (R* OverflowTreatment: forced reinsert at the first overflow
  // of each non-root level, else split).
  Status InsertRecursive(NodeId node_id, const Entry& entry, uint32_t level,
                         Insertion<Entry>* ins);
  Status HandleOverflow(NodeId node_id, Node* node, Insertion<Entry>* ins);
  void SplitEntries(std::vector<Entry>* entries, std::vector<Entry>* left,
                    std::vector<Entry>* right) const;

  Status DeleteRecursiveImpl(NodeId node_id, const Rect& rect,
                             uint64_t payload, bool* found,
                             bool* removed_node,
                             std::vector<std::pair<Entry, uint32_t>>* orphans,
                             Rect* new_bound);
  Status SearchRecursive(NodeId node_id, const Rect& query,
                         const std::function<bool(const Entry&)>& fn,
                         bool* keep_going) const;
  Status CheckRecursive(NodeId node_id, uint32_t expected_level,
                        const Rect* parent_bound,
                        uint64_t* leaf_entries) const;

  Options options_;
};

}  // namespace grtdb

#endif  // GRTDB_RSTAR_RSTAR_TREE_H_
