#ifndef GRTDB_GIST_GIST_H_
#define GRTDB_GIST_GIST_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/node_store.h"
#include "storage/paged_tree.h"

namespace grtdb {

// A GiST key: an opaque byte string interpreted only by the extension.
using GistKey = std::vector<uint8_t>;

// Per-level structure statistics (leaf = level 0). Keys are opaque, so
// only structural counts are available — no areas. Backs am_stats.
using GistLevelStats = TreeLevelStats;

// The extension interface of a generalized search tree [HNP95, AOK98] —
// the paper's §7 proposal: "a generic extendible tree-based access method
// ... providing a simple, high-level extension interface that isolates the
// primitive operations required to construct new access methods". The four
// methods below are exactly those primitives; the GiST DataBlade resolves
// them from the operator class, so new data types plug in without touching
// any purpose function.
struct GistExtension {
  // Could an entry with `key` contain matches for `query` under strategy
  // number `strategy` (1-based position in the operator class)? Strategy 0
  // is reserved for maintenance descent: "could the exact key `query` live
  // under `key`?".
  std::function<bool(const GistKey& key, const GistKey& query, int strategy,
                     bool leaf)>
      consistent;
  // The smallest key covering all of `keys`.
  std::function<GistKey(std::span<const GistKey> keys)> unite;
  // Cost of placing `key` under the subtree keyed `existing` (smaller =
  // better).
  std::function<double(const GistKey& existing, const GistKey& key)> penalty;
  // Splits entries into two non-empty groups; returns the indices that go
  // right.
  std::function<std::vector<size_t>(std::span<const GistKey> keys)>
      pick_split;
};

// Disk-resident generalized search tree over a NodeStore. Keys are
// variable-length (up to kMaxKeySize bytes); every operation takes the
// extension, which the caller (the GiST DataBlade) resolves dynamically.
class GistTree : public PagedTree<GistTree> {
 public:
  static constexpr size_t kMaxKeySize = 512;

  struct Entry {
    GistKey key;
    uint64_t payload = 0;
  };

  static StatusOr<std::unique_ptr<GistTree>> Create(NodeStore* store,
                                                    NodeId* anchor);
  static StatusOr<std::unique_ptr<GistTree>> Open(NodeStore* store,
                                                  NodeId anchor);

  Status Insert(const GistKey& key, uint64_t payload,
                const GistExtension& ext);

  // Removes one entry matching (key, payload) exactly; condenses underfull
  // nodes by re-inserting their entries.
  Status Delete(const GistKey& key, uint64_t payload,
                const GistExtension& ext, bool* found);

  // Calls fn for every leaf entry consistent with (query, strategy);
  // return false to stop.
  Status Search(const GistKey& query, int strategy, const GistExtension& ext,
                const std::function<bool(const Entry&)>& fn) const;
  Status SearchAll(const GistKey& query, int strategy,
                   const GistExtension& ext, std::vector<Entry>* out) const;

  // Estimated node reads for a search.
  StatusOr<double> EstimateScanCost(const GistKey& query, int strategy,
                                    const GistExtension& ext) const;

  // Structural invariants: levels, parent keys consistent with children
  // (via strategy 0), entry count.
  Status CheckConsistency(const GistExtension& ext) const;

  Status LevelStats(std::vector<GistLevelStats>* out) const;

 private:
  friend class PagedTree<GistTree>;

  struct NodeEntry {
    GistKey key;
    uint64_t payload = 0;
  };
  struct Node {
    uint32_t level = 0;
    std::vector<NodeEntry> entries;
  };

  explicit GistTree(NodeStore* store);

  Status ReadNode(NodeId id, Node* node) const;
  Status WriteNode(NodeId id, const Node& node);
  static size_t NodeBytes(const Node& node);
  static bool Overflows(const Node& node);

  GistKey NodeUnion(const Node& node, const GistExtension& ext) const;
  Status InsertRecursive(NodeId node_id, const NodeEntry& entry,
                         uint32_t level, const GistExtension& ext,
                         Insertion<NodeEntry>* ins);
  Status DeleteRecursive(NodeId node_id, const GistKey& key,
                         uint64_t payload, const GistExtension& ext,
                         bool* found, bool* removed_node,
                         std::vector<std::pair<NodeEntry, uint32_t>>* orphans,
                         GistKey* new_key);
  Status CheckRecursive(NodeId node_id, uint32_t expected_level,
                        const NodeEntry* parent, const GistExtension& ext,
                        uint64_t* leaf_entries) const;

  // Minimum entries per non-root node (condense threshold).
  static constexpr size_t kMinEntries = 2;
};

}  // namespace grtdb

#endif  // GRTDB_GIST_GIST_H_
