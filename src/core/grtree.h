#ifndef GRTDB_CORE_GRTREE_H_
#define GRTDB_CORE_GRTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "storage/node_store.h"
#include "storage/paged_tree.h"
#include "temporal/extent.h"
#include "temporal/region.h"

namespace grtdb {

// The bitemporal predicates an index scan can evaluate — the operator
// class's strategy functions (paper §5.2). For each, the tree knows both
// the leaf-exact test and the internal-node pruning test (the hard-coded
// "...Internal()" functions of §5.2).
enum class PredicateOp {
  kOverlaps,
  kContains,     // data region contains the query region
  kContainedIn,  // data region contained in the query region
  kEqual,
};

// How deletions interact with open scans (paper §5.5).
enum class DeletionPolicy {
  // Restart the scan from the root after every deletion.
  kRestartAlways,
  // Restart only when the deletion actually condensed the tree (the
  // compromise the paper's prototype chose).
  kRestartOnCondense,
  // Never condense during the scan: underfull nodes are tolerated until
  // FlushPending() re-balances, so scans keep their position.
  kPostponeReinsert,
};

struct GRTreeLevelStats : TreeLevelStats {
  uint64_t stair_bounds = 0;
  uint64_t rect_bounds = 0;
  uint64_t hidden_bounds = 0;
  // Hidden bounds whose fixed valid-time top the current time has already
  // passed (§3's adjustment resolves their VTend as NOW).
  uint64_t hidden_escaped = 0;
  uint64_t growing_bounds = 0;  // TTend = UC
  double total_area = 0.0;      // at the stats call's current time
  double overlap_area = 0.0;    // pairwise within-node overlap
  double dead_space = 0.0;      // Monte-Carlo sampled, internal levels only
  // Leaf level only: current versions whose region still grows with time
  // (TTend = UC) vs. logically deleted entries whose transaction time
  // closed — the paper keeps both in the same tree, so their ratio is the
  // index-health signal UPDATE STATISTICS surfaces.
  uint64_t growing_entries = 0;
  uint64_t dead_entries = 0;
  double growing_area = 0.0;  // resolved area of the still-growing entries
};

struct GRTreeStats {
  uint64_t size = 0;
  uint32_t height = 0;
  uint64_t nodes = 0;
  std::vector<GRTreeLevelStats> levels;
};

// The GR-tree [BJSS98, paper §3]: an R*-tree-derived disk index for
// now-relative bitemporal data. Node entries carry four timestamps that may
// include the variables UC and NOW plus the "Rectangle" and "Hidden" flags,
// so minimum bounding regions can be growing rectangles or growing
// stair-shapes; all penalty metrics are evaluated at `ct + H`, H being the
// time parameter capturing the development of entries over time (a
// constant, kHorizon in grtree.cc).
//
// Every operation takes the current time `ct` explicitly: the DataBlade
// decides whether that is per-statement or per-transaction time (§5.4).
class GRTree : public PagedTree<GRTree, /*kRootEpoch=*/true> {
 public:
  struct Options {
    size_t max_entries = 0;  // 0 = derive from the page size
    // Ablation switch (bench T4): false forces every internal bounding
    // region to be a rectangle, as a plain R*-tree would.
    bool stair_bounds = true;
    DeletionPolicy deletion_policy = DeletionPolicy::kRestartOnCondense;
  };

  struct Entry {
    TimeExtent extent;
    uint64_t payload = 0;
  };

  // A scan's entry test, compiled once per scan: the query resolved at the
  // scan's current time, and the leaf and internal tests of its predicate
  // as template instances (the hard-coded strategy and ...Internal()
  // functions of §5.2) that run on the raw entry bytes of a pinned page,
  // with no per-entry dispatch. Cursor::PushNode, EstimateScanCost and the
  // blade's residual AND terms all test through it; LeafTest and
  // InternalTest are the reference it agrees with. It belongs to a scan,
  // not to a cached plan: the query and `ct` change with each execution.
  class EntryTest {
   public:
    // Bytes from one node entry to the next: the encoded bound, then the
    // 8-byte payload.
    static constexpr size_t kEntryBytes = BoundSpec::kBinarySize + 8;

    EntryTest(PredicateOp op, const TimeExtent& query, int64_t ct);

    // Of the `count` entries at `entries` (kEntryBytes apart), writes the
    // indices of those passing the leaf test (`leaf`) or the internal test
    // to `out`, ascending, and returns how many passed.
    uint32_t Filter(bool leaf, const uint8_t* entries, uint32_t count,
                    uint32_t* out) const {
      return (leaf ? leaf_ : internal_)(*this, entries, count, out);
    }

    // The leaf test of one data extent (a residual AND term).
    bool Matches(const TimeExtent& data) const {
      return match_(ResolveExtent(data, ct_), query_);
    }

    const Region& query() const { return query_; }
    int64_t ct() const { return ct_; }

   private:
    using FilterFn = uint32_t (*)(const EntryTest&, const uint8_t*, uint32_t,
                                  uint32_t*);
    using MatchFn = bool (*)(const Region& data, const Region& query);

    Region query_;
    int64_t ct_;
    FilterFn leaf_;
    FilterFn internal_;
    MatchFn match_;
  };

  // A scan over qualifying leaf entries (the Cursor object of Table 5:
  // query predicate + tree-traversal state). Created by Search(); stays
  // valid across deletions according to the tree's DeletionPolicy — it
  // restarts itself when the tree's condense epoch moved, skipping entries
  // it already returned.
  class Cursor {
   public:
    // Fetches the next qualifying entry; *has = false at end of scan.
    Status Next(bool* has, Entry* out);

    // Restarts from the root; already-returned entries stay skipped.
    void Reset();

    uint64_t restarts() const { return restarts_; }

   private:
    friend class GRTree;

    // An entry of a visited node that passed the scan's test: an answer
    // (leaf) or a child to descend into (internal; only entry.payload, the
    // child's id, is set).
    struct Pending {
      Entry entry;
      bool answer = false;
    };

    Cursor(GRTree* tree, const EntryTest& test);

    // Tests the entries of node `id` on its pinned page and pushes the
    // ones that pass.
    Status PushNode(NodeId id);

    GRTree* tree_;
    EntryTest test_;
    uint64_t epoch_;
    uint64_t restarts_ = 0;
    bool needs_prime_ = true;
    // Depth-first work list; the next entry to take is at the back.
    std::vector<Pending> pending_;
    // The payload of every answer returned, append-only. The first
    // `sorted_` are those returned before the last restart, sorted; Next
    // skips an answer found among them (see Next for why no other lookup
    // is needed).
    std::vector<uint64_t> returned_;
    size_t sorted_ = 0;
  };

  static StatusOr<std::unique_ptr<GRTree>> Create(NodeStore* store,
                                                  const Options& options,
                                                  NodeId* anchor);
  static StatusOr<std::unique_ptr<GRTree>> Open(NodeStore* store,
                                                NodeId anchor,
                                                const Options& options);

  // Inserts a (validated) extent. `ct` is the operation's current time.
  Status Insert(const TimeExtent& extent, uint64_t payload, int64_t ct);

  // Removes one entry matching (extent, payload) exactly.
  Status Delete(const TimeExtent& extent, uint64_t payload, int64_t ct,
                bool* found);

  // Opens a scan for `op`(data, query) evaluated at current time `ct`.
  StatusOr<std::unique_ptr<Cursor>> Search(PredicateOp op,
                                           const TimeExtent& query,
                                           int64_t ct);

  // Convenience: drains a full scan.
  Status SearchAll(PredicateOp op, const TimeExtent& query, int64_t ct,
                   std::vector<Entry>* out);

  // Estimated node reads for a scan (am_scancost).
  StatusOr<double> EstimateScanCost(PredicateOp op, const TimeExtent& query,
                                    int64_t ct) const;

  // Re-balances nodes left underfull by kPostponeReinsert deletions.
  Status FlushPending(int64_t ct);
  // Whether FlushPending has work to do (and so will write nodes).
  bool has_pending_condense() const { return has_pending_condense_; }

  // Structural invariants (am_check): levels, fill, bound containment at
  // `ct` and at sampled future times (growing bounds must stay valid).
  Status CheckConsistency(int64_t ct) const;

  // Structure statistics (am_stats / benches T4, T5). Dead space is
  // sampled with `dead_space_samples` Monte-Carlo points per node (0
  // disables).
  Status ComputeStats(int64_t ct, uint64_t dead_space_samples,
                      GRTreeStats* out) const;

  // Bulk-loads an empty tree bottom-up (vacuum rebuild path, bench T9).
  Status BulkLoad(std::vector<Entry> entries, int64_t ct);

  uint64_t condense_epoch() const { return condense_epoch_; }
  const Options& options() const { return options_; }

  // Internal-node pruning test for `op` — the hard-coded counterpart of a
  // strategy function (OverlapsInternal() etc., §5.2) — on resolved
  // regions. The reference EntryTest agrees with; exposed for tests.
  static bool InternalTest(PredicateOp op, const Region& bound,
                           const Region& query);
  // Exact leaf test for `op`, likewise.
  static bool LeafTest(PredicateOp op, const Region& data,
                       const Region& query);

 private:
  friend class PagedTree<GRTree, true>;

  struct NodeEntry {
    BoundSpec bound;
    uint64_t payload = 0;
  };
  struct Node {
    uint32_t level = 0;
    std::vector<NodeEntry> entries;
  };

  GRTree(NodeStore* store, const Options& options);

  Status ReadNode(NodeId id, Node* node) const;
  Status WriteNode(NodeId id, const Node& node);

  // Minimum bounding region of a node's entries, honoring the stair_bounds
  // ablation option. Drained children (kPostponeReinsert) bound nothing.
  BoundSpec NodeBound(const Node& node, int64_t ct) const;

  // The child of internal node `node` (at least one entry) an entry with
  // `bound` descends into.
  size_t ChooseSubtree(const Node& node, const BoundSpec& bound,
                       int64_t ct) const;

  Status InsertRecursive(NodeId node_id, const NodeEntry& entry,
                         uint32_t level, int64_t ct,
                         Insertion<NodeEntry>* ins);
  // Forced reinsert at the first overflow of a non-root level, else split.
  Status HandleOverflow(NodeId node_id, Node* node, int64_t ct,
                        Insertion<NodeEntry>* ins);
  void SplitEntries(const std::vector<NodeEntry>& entries, int64_t ct,
                    std::vector<NodeEntry>* left,
                    std::vector<NodeEntry>* right) const;

  Status DeleteRecursive(
      NodeId node_id, const BoundSpec& target, uint64_t payload, int64_t ct,
      bool* found, bool* removed_node,
      std::vector<std::pair<NodeEntry, uint32_t>>* orphans,
      BoundSpec* new_bound, bool* structure_changed);

  Status CheckRecursive(NodeId node_id, uint32_t expected_level,
                        const BoundSpec* parent_bound, int64_t ct,
                        uint64_t* leaf_entries) const;

  Options options_;
};

}  // namespace grtdb

#endif  // GRTDB_CORE_GRTREE_H_
