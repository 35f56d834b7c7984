#ifndef GRTDB_BTREE_BTREE_H_
#define GRTDB_BTREE_BTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "storage/node_store.h"
#include "storage/paged_tree.h"

namespace grtdb {

// Key comparator: <0, 0, >0. The B+-tree resolves it dynamically on every
// operation — this is the paper's §4 example of support-function
// extensibility: registering a substitute compare() in a new operator
// class re-orders the whole index (e.g. the 0, -1, 1, -2, 2 ordering).
using BtreeCompare = std::function<int(int64_t, int64_t)>;

// The natural integer order (the default operator class's compare()).
int NaturalCompare(int64_t a, int64_t b);

// Per-level structure statistics (leaf = level 0). Backs am_stats.
using BtreeLevelStats = TreeLevelStats;

// A disk-resident B+-tree over a NodeStore mapping int64 keys to uint64
// payloads (rowids). Duplicate keys are allowed; entries are unique by
// (key, payload). Leaves are chained for range scans.
class BtreeIndex : public PagedTree<BtreeIndex> {
 public:
  struct Options {
    size_t max_entries = 0;  // 0 = derive from the page size
  };

  struct Entry {
    int64_t key = 0;
    uint64_t payload = 0;
  };

  // Scan bounds; unset = open. `lo_strict`/`hi_strict` exclude the bound.
  struct Range {
    std::optional<int64_t> lo;
    bool lo_strict = false;
    std::optional<int64_t> hi;
    bool hi_strict = false;
  };

  static StatusOr<std::unique_ptr<BtreeIndex>> Create(NodeStore* store,
                                                      const Options& options,
                                                      NodeId* anchor);
  static StatusOr<std::unique_ptr<BtreeIndex>> Open(NodeStore* store,
                                                    NodeId anchor,
                                                    const Options& options);

  Status Insert(int64_t key, uint64_t payload, const BtreeCompare& cmp);
  Status Delete(int64_t key, uint64_t payload, const BtreeCompare& cmp,
                bool* found);

  // Calls fn for entries within `range` in comparator order; return false
  // to stop.
  Status Scan(const Range& range, const BtreeCompare& cmp,
              const std::function<bool(const Entry&)>& fn) const;
  Status ScanAll(const Range& range, const BtreeCompare& cmp,
                 std::vector<Entry>* out) const;

  // Estimated node reads for a range scan (am_scancost).
  StatusOr<double> EstimateScanCost(const Range& range,
                                    const BtreeCompare& cmp) const;

  // Structural invariants: key order (per cmp), fill, leaf chaining,
  // entry count.
  Status CheckConsistency(const BtreeCompare& cmp) const;

  Status LevelStats(std::vector<BtreeLevelStats>* out) const;

 private:
  friend class PagedTree<BtreeIndex>;

  // On-disk node: leaves hold (key, payload) pairs plus a next-leaf link;
  // internal nodes hold separator keys and child ids (children.size() ==
  // keys.size() + 1).
  struct Node {
    bool leaf = true;
    std::vector<int64_t> keys;
    std::vector<uint64_t> values;  // payloads (leaf) or child ids (internal)
    // Duplicate tie-break payload carried with each separator (internal).
    std::vector<uint64_t> sep_payloads;
    NodeId next = kInvalidNodeId;  // leaf chain
  };

  BtreeIndex(NodeStore* store, const Options& options);

  Status ReadNode(NodeId id, Node* node) const;
  Status WriteNode(NodeId id, const Node& node);
  static void AppendChildren(const Node& node, std::vector<NodeId>* out);

  // Index of the first entry in a leaf not less than (key, payload).
  static size_t LowerBound(const Node& node, int64_t key, uint64_t payload,
                           const BtreeCompare& cmp);
  // Child to descend into for `key`.
  static size_t ChildIndex(const Node& node, int64_t key, uint64_t payload,
                           const BtreeCompare& cmp);

  Status InsertRecursive(NodeId node_id, int64_t key, uint64_t payload,
                         const BtreeCompare& cmp, bool* split,
                         int64_t* split_key, uint64_t* split_payload,
                         NodeId* split_node);
  Status DeleteRecursive(NodeId node_id, int64_t key, uint64_t payload,
                         const BtreeCompare& cmp, bool* found);
  Status CheckRecursive(NodeId node_id, uint32_t depth,
                        const BtreeCompare& cmp, uint64_t* entries,
                        uint32_t* leaf_depth) const;
};

}  // namespace grtdb

#endif  // GRTDB_BTREE_BTREE_H_
