#include "core/grtree.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"

namespace grtdb {

namespace {

constexpr size_t kNodeHeaderSize = 8;  // level u32 + count u32
constexpr size_t kEntrySize = GRTree::EntryTest::kEntryBytes;
constexpr PagedTreeFormat kFormat{0x47525452 /* "GRTR" */, "GR-tree",
                                  (kPageSize - kNodeHeaderSize) / kEntrySize,
                                  4};

// The time parameter H: insert penalties are evaluated this many chronons
// past the operation's current time. H >= 0 keeps every child's region,
// enlarged by BoundSpec::Enclose (valid from the current time on), a
// superset of its own region at ct + H; ChooseSubtree's skip rests on it.
constexpr int64_t kHorizon = 30;
static_assert(kHorizon >= 0);
// The R* minimum fill and forced-reinsert fraction [BEC90].
constexpr double kMinFill = 0.4;
constexpr double kReinsertFraction = 0.3;

// Encoding of an empty region (used for drained-but-kept nodes under the
// kPostponeReinsert policy): resolves to Region::Empty at every time.
BoundSpec EmptyBound() {
  BoundSpec spec;
  spec.tt_begin = Timestamp::FromChronon(1);
  spec.tt_end = Timestamp::FromChronon(0);
  spec.vt_begin = Timestamp::FromChronon(1);
  spec.vt_end = Timestamp::FromChronon(0);
  spec.rectangle = true;
  spec.hidden = false;
  return spec;
}

// One node page pinned for reading, its entries decoded in place. Holds the
// store's view, and with it a cache frame's read latch, until destroyed:
// keep it to one function and drop it before writing the store.
class NodePage {
 public:
  Status Pin(NodeStore* store, NodeId id) {
    GRTDB_RETURN_IF_ERROR(store->ViewNode(id, &view_));
    count_ = LoadU32(view_.data() + 4);
    if (count_ > kFormat.page_capacity) {
      return Status::Corruption("GR-tree node entry count out of range");
    }
    return Status::OK();
  }

  uint32_t level() const { return LoadU32(view_.data()); }
  uint32_t count() const { return count_; }
  // The first entry; the others follow kEntrySize apart.
  const uint8_t* entries() const { return view_.data() + kNodeHeaderSize; }
  const uint8_t* entry(uint32_t i) const { return entries() + i * kEntrySize; }
  BoundSpec bound(uint32_t i) const { return BoundSpec::DecodeFrom(entry(i)); }
  uint64_t payload(uint32_t i) const {
    return LoadU64(entry(i) + BoundSpec::kBinarySize);
  }

 private:
  NodeView view_;
  uint32_t count_ = 0;
};

// The compiled entry tests: LeafTest or InternalTest with the predicate
// fixed at compile time and every step inline, on a resolved region ...
template <PredicateOp kOp, bool kLeaf>
bool RegionTest(const Region& region, const Region& query) {
  if constexpr (!kLeaf) {
    if constexpr (kOp == PredicateOp::kOverlaps ||
                  kOp == PredicateOp::kContainedIn) {
      return region.Overlaps(query);
    } else {
      return region.Contains(query);
    }
  } else if constexpr (kOp == PredicateOp::kOverlaps) {
    return region.Overlaps(query);
  } else if constexpr (kOp == PredicateOp::kContains) {
    return region.Contains(query);
  } else if constexpr (kOp == PredicateOp::kContainedIn) {
    return query.Contains(region);
  } else {
    return region.Equals(query);
  }
}

// ... and on an encoded entry, BoundSpec::DecodeFrom(entry).Resolve(ct).
template <PredicateOp kOp, bool kLeaf>
bool TestEntry(const uint8_t* entry, const Region& query, int64_t ct) {
  if constexpr (kLeaf && kOp == PredicateOp::kEqual) {
    // Equal regions begin at the same transaction time, so an entry whose
    // resolved TTbegin differs is rejected before it is decoded: a
    // rectangle begins at TTbegin, a stair at max(TTbegin, VTbegin), and
    // an empty region equals no non-empty query.
    if (!query.IsEmpty()) {
      const int64_t tt_begin = LoadI64(entry);
      const bool rectangle = (entry[TimeExtent::kBinarySize] & 1) != 0;
      const int64_t vt_begin = LoadI64(entry + 16);
      const int64_t tt1 = rectangle ? tt_begin : std::max(tt_begin, vt_begin);
      if (tt1 != query.tt1()) return false;
    }
  }
  return RegionTest<kOp, kLeaf>(BoundSpec::DecodeFrom(entry).Resolve(ct),
                                query);
}

template <PredicateOp kOp, bool kLeaf>
uint32_t FilterEntries(const GRTree::EntryTest& test, const uint8_t* entries,
                       uint32_t count, uint32_t* out) {
  const Region query = test.query();
  const int64_t ct = test.ct();
  uint32_t passed = 0;
  for (uint32_t i = 0; i < count; ++i) {
    out[passed] = i;
    passed += TestEntry<kOp, kLeaf>(entries + i * kEntrySize, query, ct);
  }
  return passed;
}

template <bool kLeaf>
auto FilterFor(PredicateOp op) {
  switch (op) {
    case PredicateOp::kOverlaps:
      return &FilterEntries<PredicateOp::kOverlaps, kLeaf>;
    case PredicateOp::kContains:
      return &FilterEntries<PredicateOp::kContains, kLeaf>;
    case PredicateOp::kContainedIn:
      return &FilterEntries<PredicateOp::kContainedIn, kLeaf>;
    case PredicateOp::kEqual:
      break;
  }
  return &FilterEntries<PredicateOp::kEqual, kLeaf>;
}

auto MatchFor(PredicateOp op) {
  switch (op) {
    case PredicateOp::kOverlaps:
      return &RegionTest<PredicateOp::kOverlaps, true>;
    case PredicateOp::kContains:
      return &RegionTest<PredicateOp::kContains, true>;
    case PredicateOp::kContainedIn:
      return &RegionTest<PredicateOp::kContainedIn, true>;
    case PredicateOp::kEqual:
      break;
  }
  return &RegionTest<PredicateOp::kEqual, true>;
}

double CenterDistance2(const Region& a, const Region& b) {
  if (a.IsEmpty() || b.IsEmpty()) return 0.0;
  const double dx = 0.5 * (static_cast<double>(a.tt1() + a.tt2()) -
                           static_cast<double>(b.tt1() + b.tt2()));
  const double dy = 0.5 * (static_cast<double>(a.vt1() + a.vt2()) -
                           static_cast<double>(b.vt1() + b.vt2()));
  return dx * dx + dy * dy;
}

}  // namespace

bool GRTree::InternalTest(PredicateOp op, const Region& bound,
                          const Region& query) {
  switch (op) {
    case PredicateOp::kOverlaps:
    case PredicateOp::kContainedIn:
      return bound.Overlaps(query);
    case PredicateOp::kContains:
    case PredicateOp::kEqual:
      return bound.Contains(query);
  }
  return false;
}

bool GRTree::LeafTest(PredicateOp op, const Region& data,
                      const Region& query) {
  switch (op) {
    case PredicateOp::kOverlaps:
      return data.Overlaps(query);
    case PredicateOp::kContains:
      return data.Contains(query);
    case PredicateOp::kContainedIn:
      return query.Contains(data);
    case PredicateOp::kEqual:
      return data.Equals(query);
  }
  return false;
}

GRTree::EntryTest::EntryTest(PredicateOp op, const TimeExtent& query,
                             int64_t ct)
    : query_(ResolveExtent(query, ct)),
      ct_(ct),
      leaf_(FilterFor<true>(op)),
      internal_(FilterFor<false>(op)),
      match_(MatchFor(op)) {}

// ------------------------------------------------------------ lifecycle ---

GRTree::GRTree(NodeStore* store, const Options& options)
    : PagedTree(store, kFormat, options.max_entries, kMinFill),
      options_(options) {}

StatusOr<std::unique_ptr<GRTree>> GRTree::Create(NodeStore* store,
                                                 const Options& options,
                                                 NodeId* anchor) {
  return Bootstrap(std::unique_ptr<GRTree>(new GRTree(store, options)),
                   anchor);
}

StatusOr<std::unique_ptr<GRTree>> GRTree::Open(NodeStore* store,
                                               NodeId anchor,
                                               const Options& options) {
  return Attach(std::unique_ptr<GRTree>(new GRTree(store, options)), anchor);
}

Status GRTree::ReadNode(NodeId id, Node* node) const {
  NodePage page;
  GRTDB_RETURN_IF_ERROR(page.Pin(store_, id));
  node->level = page.level();
  node->entries.clear();
  node->entries.reserve(page.count());
  for (uint32_t i = 0; i < page.count(); ++i) {
    node->entries.push_back(NodeEntry{page.bound(i), page.payload(i)});
  }
  return Status::OK();
}

Status GRTree::WriteNode(NodeId id, const Node& node) {
  uint8_t page[kPageSize];
  std::memset(page, 0, sizeof(page));
  StoreU32(page, node.level);
  StoreU32(page + 4, static_cast<uint32_t>(node.entries.size()));
  for (size_t i = 0; i < node.entries.size(); ++i) {
    uint8_t* p = page + kNodeHeaderSize + i * kEntrySize;
    node.entries[i].bound.EncodeTo(p);
    StoreU64(p + BoundSpec::kBinarySize, node.entries[i].payload);
  }
  return store_->WriteNode(id, page);
}

BoundSpec GRTree::NodeBound(const Node& node, int64_t ct) const {
  const BoundSpec empty = EmptyBound();
  std::vector<BoundSpec> bounds;
  bounds.reserve(node.entries.size());
  for (const NodeEntry& entry : node.entries) {
    if (!(entry.bound == empty)) bounds.push_back(entry.bound);
  }
  if (bounds.empty()) return empty;
  BoundSpec bound = BoundSpec::Enclose(bounds, ct);
  if (!options_.stair_bounds && !bound.rectangle) {
    // Ablation: degrade the stair to its bounding rectangle (top at the
    // resolved TTend, i.e. VTend = NOW when growing, = TTend when frozen).
    bound.rectangle = true;
    bound.vt_end =
        bound.tt_end.is_uc() ? Timestamp::NOW() : bound.tt_end;
  }
  return bound;
}

// --------------------------------------------------------------- insert ---

// Above the leaves [BEC90 §4.1]: the least overlap enlargement with the
// siblings, then the least area enlargement, then matching growth, then the
// least area. Higher up: the least area enlargement, then the least area.
// All at ct + H; the first child with the least key wins.
//
// The overlap sums cost about 2*M^2 IntersectionArea calls, and almost
// always a child already holds the entry: its enlarged region equals its
// own, so its two sums are bit-identical and its key is (+0, +0, temporal,
// area) unsummed. No child's overlap enlargement is below 0, since its
// enlarged region contains its own (kHorizon). So once a child holds the
// entry, a child whose area grows has a greater key and needs no sums.
// The chosen child is then the one summing every child would pick wherever
// region arithmetic is exact: over coordinates in a window narrower than
// 2^22 chronons within +-2^40, every Area and IntersectionArea is a
// multiple of 1/2 below 2^44 and a sum of up to 99 of them stays below 2^51.
// That covers every chronon Timestamp::Parse accepts (kMinDayNumber ..
// kMaxDayNumber). Beyond it, where only C++ callers of
// Timestamp::FromChronon reach, rounding can give a growing child a
// negative overlap enlargement and the full loop might pick it; the skip
// picks a child whose area does not grow instead, as valid a choice.
size_t GRTree::ChooseSubtree(const Node& node, const BoundSpec& bound,
                             int64_t ct) const {
  const int64_t eval = ct + kHorizon;
  const bool children_are_leaves = node.level == 1;
  const size_t n = node.entries.size();

  // Each child's region, then (at n + i) the region enlarged by the entry.
  std::vector<Region> regions(2 * n);
  bool some_child_holds = false;
  for (size_t i = 0; i < n; ++i) {
    const BoundSpec pair[2] = {node.entries[i].bound, bound};
    regions[i] = node.entries[i].bound.Resolve(eval);
    regions[n + i] = BoundSpec::Enclose(pair, ct).Resolve(eval);
    some_child_holds = some_child_holds || regions[n + i].Equals(regions[i]);
  }
  const bool skip_growing = children_are_leaves && some_child_holds;

  size_t best_index = 0;
  bool have_best = false;
  double best_primary = 0.0;
  double best_secondary = 0.0;
  int best_temporal = 0;
  double best_area = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const Region& own = regions[i];
    const Region& enlarged = regions[n + i];
    const double area = own.Area();
    const double area_delta = enlarged.Area() - area;
    if (skip_growing && area_delta > 0) continue;
    double primary = area_delta;
    if (children_are_leaves) {
      primary = 0.0;
      if (!enlarged.Equals(own)) {
        double overlap_before = 0.0;
        double overlap_after = 0.0;
        for (size_t j = 0; j < n; ++j) {
          if (j == i) continue;
          overlap_before += own.IntersectionArea(regions[j]);
          overlap_after += enlarged.IntersectionArea(regions[j]);
        }
        primary = overlap_after - overlap_before;
      }
    }
    const double secondary = children_are_leaves ? area_delta : area;
    // Temporal tie-break: prefer subtrees whose growth behaviour matches
    // the incoming entry (growing entries go to growing subtrees).
    const int temporal =
        node.entries[i].bound.Grows() == bound.Grows() ? 0 : 1;
    if (!have_best || primary < best_primary ||
        (primary == best_primary && secondary < best_secondary) ||
        (primary == best_primary && secondary == best_secondary &&
         temporal < best_temporal) ||
        (primary == best_primary && secondary == best_secondary &&
         temporal == best_temporal && area < best_area)) {
      best_index = i;
      have_best = true;
      best_primary = primary;
      best_secondary = secondary;
      best_temporal = temporal;
      best_area = area;
    }
  }
  return best_index;
}

Status GRTree::Insert(const TimeExtent& extent, uint64_t payload,
                      int64_t ct) {
  GRTDB_RETURN_IF_ERROR(extent.Validate());
  return InsertLeaf(NodeEntry{BoundSpec::FromExtent(extent), payload}, ct);
}

Status GRTree::InsertRecursive(NodeId node_id, const NodeEntry& entry,
                               uint32_t level, int64_t ct,
                               Insertion<NodeEntry>* ins) {
  Node node;
  GRTDB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  if (node.level == level) {
    node.entries.push_back(entry);
  } else {
    if (node.entries.empty()) {
      return Status::Corruption("GR-tree internal node with no entries");
    }
    const size_t child = ChooseSubtree(node, entry.bound, ct);
    GRTDB_RETURN_IF_ERROR(
        InsertRecursive(node.entries[child].payload, entry, level, ct, ins));
    node.entries[child] = ins->entry;
    if (ins->split) node.entries.push_back(ins->sibling);
  }
  // Only a node that gained an entry here can overflow.
  if ((node.level == level || ins->split) &&
      node.entries.size() > max_entries_) {
    return HandleOverflow(node_id, &node, ct, ins);
  }
  GRTDB_RETURN_IF_ERROR(WriteNode(node_id, node));
  ins->split = false;
  ins->entry = NodeEntry{NodeBound(node, ct), node_id};
  return Status::OK();
}

Status GRTree::HandleOverflow(NodeId node_id, Node* node, int64_t ct,
                              Insertion<NodeEntry>* ins) {
  const int64_t eval = ct + kHorizon;
  if (node_id != root_ && ins->FirstOverflowAt(node->level)) {
    const Region bound_region = NodeBound(*node, ct).Resolve(eval);
    std::vector<size_t> order(node->entries.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::vector<double> distance(node->entries.size());
    for (size_t i = 0; i < node->entries.size(); ++i) {
      distance[i] =
          CenterDistance2(node->entries[i].bound.Resolve(eval), bound_region);
    }
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return distance[a] < distance[b]; });
    const size_t evict_count = std::max<size_t>(
        1, static_cast<size_t>(kReinsertFraction *
                               static_cast<double>(node->entries.size())));
    const size_t keep = node->entries.size() - evict_count;
    std::vector<NodeEntry> kept;
    kept.reserve(keep);
    for (size_t i = 0; i < keep; ++i) kept.push_back(node->entries[order[i]]);
    for (size_t i = keep; i < order.size(); ++i) {
      ins->queue.emplace_back(node->entries[order[i]], node->level);
    }
    node->entries = std::move(kept);
    GRTDB_RETURN_IF_ERROR(WriteNode(node_id, *node));
    ins->split = false;
    ins->entry = NodeEntry{NodeBound(*node, ct), node_id};
    return Status::OK();
  }

  std::vector<NodeEntry> left;
  std::vector<NodeEntry> right;
  SplitEntries(node->entries, ct, &left, &right);
  Node right_node;
  right_node.level = node->level;
  right_node.entries = std::move(right);
  NodeId right_id;
  GRTDB_RETURN_IF_ERROR(store_->AllocateNode(&right_id));
  GRTDB_RETURN_IF_ERROR(WriteNode(right_id, right_node));
  node->entries = std::move(left);
  GRTDB_RETURN_IF_ERROR(WriteNode(node_id, *node));
  ++condense_epoch_;
  ins->split = true;
  ins->sibling = NodeEntry{NodeBound(right_node, ct), right_id};
  ins->entry = NodeEntry{NodeBound(*node, ct), node_id};
  return Status::OK();
}

void GRTree::SplitEntries(const std::vector<NodeEntry>& entries, int64_t ct,
                          std::vector<NodeEntry>* left,
                          std::vector<NodeEntry>* right) const {
  const size_t total = entries.size();
  const size_t m = min_entries_;
  const int64_t eval = ct + kHorizon;

  std::vector<Region> resolved(total);
  for (size_t i = 0; i < total; ++i) {
    resolved[i] = entries[i].bound.Resolve(eval);
  }

  struct Candidate {
    std::vector<size_t> order;
    size_t split_at = 0;
    double overlap = 0.0;
    double area = 0.0;
  };

  auto evaluate_axis = [&](bool tt_axis, double* margin_sum,
                           Candidate* best) {
    for (int by_upper = 0; by_upper < 2; ++by_upper) {
      std::vector<size_t> order(total);
      for (size_t i = 0; i < total; ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const Region& ra = resolved[a];
        const Region& rb = resolved[b];
        const int64_t ka = tt_axis ? (by_upper ? ra.tt2() : ra.tt1())
                                   : (by_upper ? ra.vt2() : ra.vt1());
        const int64_t kb = tt_axis ? (by_upper ? rb.tt2() : rb.tt1())
                                   : (by_upper ? rb.vt2() : rb.vt1());
        return ka < kb;
      });
      // Cumulative encoded bounds, resolved for metric evaluation.
      std::vector<BoundSpec> prefix(total);
      std::vector<BoundSpec> suffix(total);
      for (size_t i = 0; i < total; ++i) {
        const BoundSpec& b = entries[order[i]].bound;
        if (i == 0) {
          prefix[i] = b;
        } else {
          const BoundSpec pair[2] = {prefix[i - 1], b};
          prefix[i] = BoundSpec::Enclose(pair, ct);
        }
      }
      for (size_t i = total; i-- > 0;) {
        const BoundSpec& b = entries[order[i]].bound;
        if (i + 1 == total) {
          suffix[i] = b;
        } else {
          const BoundSpec pair[2] = {suffix[i + 1], b};
          suffix[i] = BoundSpec::Enclose(pair, ct);
        }
      }
      for (size_t k = m; k + m <= total; ++k) {
        const Region lb = prefix[k - 1].Resolve(eval);
        const Region rb = suffix[k].Resolve(eval);
        *margin_sum += lb.Margin() + rb.Margin();
        const double overlap = lb.IntersectionArea(rb);
        const double area = lb.Area() + rb.Area();
        if (best->order.empty() || overlap < best->overlap ||
            (overlap == best->overlap && area < best->area)) {
          best->order = order;
          best->split_at = k;
          best->overlap = overlap;
          best->area = area;
        }
      }
    }
  };

  double tt_margin = 0.0;
  double vt_margin = 0.0;
  Candidate tt_best;
  Candidate vt_best;
  evaluate_axis(true, &tt_margin, &tt_best);
  evaluate_axis(false, &vt_margin, &vt_best);
  const Candidate& chosen = (tt_margin <= vt_margin) ? tt_best : vt_best;

  left->clear();
  right->clear();
  for (size_t i = 0; i < chosen.split_at; ++i) {
    left->push_back(entries[chosen.order[i]]);
  }
  for (size_t i = chosen.split_at; i < total; ++i) {
    right->push_back(entries[chosen.order[i]]);
  }
}

// --------------------------------------------------------------- delete ---

Status GRTree::Delete(const TimeExtent& extent, uint64_t payload, int64_t ct,
                      bool* found) {
  const BoundSpec target = BoundSpec::FromExtent(extent);
  *found = false;
  bool removed_node = false;
  bool structure_changed = false;
  std::vector<std::pair<NodeEntry, uint32_t>> orphans;
  BoundSpec new_bound;
  GRTDB_RETURN_IF_ERROR(DeleteRecursive(root_, target, payload, ct, found,
                                        &removed_node, &orphans, &new_bound,
                                        &structure_changed));
  if (!*found) return Status::OK();
  --size_;
  if (removed_node) {
    return Status::Internal("root unexpectedly removed");
  }
  if (!structure_changed) return SaveAnchor();
  ++condense_epoch_;
  return Condense(std::move(orphans), ct);
}

Status GRTree::DeleteRecursive(
    NodeId node_id, const BoundSpec& target, uint64_t payload, int64_t ct,
    bool* found, bool* removed_node,
    std::vector<std::pair<NodeEntry, uint32_t>>* orphans,
    BoundSpec* new_bound, bool* structure_changed) {
  Node node;
  GRTDB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  *removed_node = false;
  const bool postpone =
      options_.deletion_policy == DeletionPolicy::kPostponeReinsert;

  auto handle_underfull = [&](uint32_t entry_level) -> Status {
    if (node_id != root_ && node.entries.size() < min_entries_) {
      if (postpone) {
        has_pending_condense_ = true;
        GRTDB_RETURN_IF_ERROR(WriteNode(node_id, node));
        *new_bound = NodeBound(node, ct);
        return Status::OK();
      }
      for (const NodeEntry& entry : node.entries) {
        orphans->emplace_back(entry, entry_level);
      }
      GRTDB_RETURN_IF_ERROR(store_->FreeNode(node_id));
      *removed_node = true;
      *structure_changed = true;
      return Status::OK();
    }
    GRTDB_RETURN_IF_ERROR(WriteNode(node_id, node));
    *new_bound = NodeBound(node, ct);
    return Status::OK();
  };

  if (node.level == 0) {
    for (size_t i = 0; i < node.entries.size(); ++i) {
      if (node.entries[i].payload == payload &&
          node.entries[i].bound == target) {
        node.entries.erase(node.entries.begin() + i);
        *found = true;
        break;
      }
    }
    if (!*found) return Status::OK();
    return handle_underfull(0);
  }

  const Region target_region = target.Resolve(ct);
  for (size_t i = 0; i < node.entries.size(); ++i) {
    if (!node.entries[i].bound.Resolve(ct).Contains(target_region)) continue;
    bool child_removed = false;
    BoundSpec child_bound;
    GRTDB_RETURN_IF_ERROR(DeleteRecursive(
        node.entries[i].payload, target, payload, ct, found, &child_removed,
        orphans, &child_bound, structure_changed));
    if (!*found) continue;
    if (child_removed) {
      node.entries.erase(node.entries.begin() + i);
    } else {
      node.entries[i].bound = child_bound;
    }
    return handle_underfull(node.level);
  }
  return Status::OK();
}

Status GRTree::FlushPending(int64_t ct) {
  if (!has_pending_condense_) return Status::OK();

  std::vector<std::pair<NodeEntry, uint32_t>> orphans;
  // Post-order condense: collect entries of underfull non-root nodes. A
  // kept node is written only if it changed; the others would re-encode to
  // the bytes they hold.
  std::function<Status(NodeId, bool, bool*, BoundSpec*)> condense =
      [&](NodeId node_id, bool is_root, bool* removed,
          BoundSpec* bound) -> Status {
    Node node;
    GRTDB_RETURN_IF_ERROR(ReadNode(node_id, &node));
    *removed = false;
    bool changed = false;
    if (node.level > 0) {
      for (size_t i = 0; i < node.entries.size();) {
        bool child_removed = false;
        BoundSpec child_bound;
        GRTDB_RETURN_IF_ERROR(condense(node.entries[i].payload, false,
                                       &child_removed, &child_bound));
        if (child_removed) {
          node.entries.erase(node.entries.begin() + i);
          changed = true;
        } else {
          changed = changed || !(node.entries[i].bound == child_bound);
          node.entries[i].bound = child_bound;
          ++i;
        }
      }
    }
    if (!is_root && node.entries.size() < min_entries_) {
      for (const NodeEntry& entry : node.entries) {
        orphans.emplace_back(entry, node.level);
      }
      GRTDB_RETURN_IF_ERROR(store_->FreeNode(node_id));
      *removed = true;
      return Status::OK();
    }
    if (is_root && node.entries.empty() && node.level > 0) {
      // No child is left, so no path leads down to the orphans' levels:
      // the root starts over as an empty leaf.
      node.level = 0;
      height_ = 1;
      changed = true;
    }
    if (changed) GRTDB_RETURN_IF_ERROR(WriteNode(node_id, node));
    *bound = NodeBound(node, ct);
    return Status::OK();
  };

  bool removed = false;
  BoundSpec bound;
  GRTDB_RETURN_IF_ERROR(condense(root_, /*is_root=*/true, &removed, &bound));
  if (height_ == 1) {
    // Into a leaf root only leaf entries go: those of the orphaned
    // subtrees replace the subtrees, whose nodes are freed.
    std::vector<NodeId> subtrees;
    std::vector<std::pair<NodeEntry, uint32_t>> leaves;
    for (const auto& [entry, level] : orphans) {
      if (level == 0) {
        leaves.emplace_back(entry, 0);
      } else {
        subtrees.push_back(entry.payload);
      }
    }
    while (!subtrees.empty()) {
      Node node;
      GRTDB_RETURN_IF_ERROR(ReadNode(subtrees.back(), &node));
      GRTDB_RETURN_IF_ERROR(store_->FreeNode(subtrees.back()));
      subtrees.pop_back();
      for (const NodeEntry& entry : node.entries) {
        if (node.level == 0) {
          leaves.emplace_back(entry, 0);
        } else {
          subtrees.push_back(entry.payload);
        }
      }
    }
    orphans = std::move(leaves);
  }
  ++condense_epoch_;
  has_pending_condense_ = false;
  return Condense(std::move(orphans), ct);
}

// --------------------------------------------------------------- search ---

GRTree::Cursor::Cursor(GRTree* tree, const EntryTest& test)
    : tree_(tree), test_(test), epoch_(tree->condense_epoch()) {}

Status GRTree::Cursor::PushNode(NodeId id) {
  NodePage node;
  GRTDB_RETURN_IF_ERROR(node.Pin(tree_->store_, id));
  const bool leaf = node.level() == 0;
  uint32_t passed[kFormat.page_capacity];
  const uint32_t n = test_.Filter(leaf, node.entries(), node.count(), passed);
  // Last qualifier first, so the first ends on top: nodes are visited and
  // answers returned in entry order, depth first. A child is pushed by its
  // id alone.
  for (uint32_t k = n; k-- > 0;) {
    const uint32_t i = passed[k];
    Pending& pending = pending_.emplace_back();
    pending.entry.payload = node.payload(i);
    pending.answer = leaf;
    if (leaf) pending.entry.extent = TimeExtent::DecodeFrom(node.entry(i));
  }
  return Status::OK();
}

void GRTree::Cursor::Reset() {
  // The answers since the last restart join the sorted prefix. Sorting
  // only them keeps a restart after every delete (kRestartAlways) linear.
  const auto fresh = returned_.begin() + static_cast<ptrdiff_t>(sorted_);
  std::sort(fresh, returned_.end());
  std::inplace_merge(returned_.begin(), fresh, returned_.end());
  sorted_ = returned_.size();
  pending_.clear();
  epoch_ = tree_->condense_epoch();
  needs_prime_ = true;
  ++restarts_;
}

// No entry is returned twice, restart or not, yet between restarts an
// answer is only appended to returned_, never looked up: a depth-first
// pass over one condense epoch reaches each leaf entry at most once. Within
// an epoch the only change this cursor's tree sees is the removal of the
// entry just returned (a DELETE through the index). Delete's condense,
// FlushPending and splits bump the epoch before they move entries between
// nodes. An insert, whose forced reinsert moves entries within an epoch,
// never runs under an open scan: INSERT scans nothing, and UPDATE collects
// its rows by sequential scan before it writes. The table lock keeps other
// statements' writes out. So only the answers returned before the last
// restart, the sorted prefix, can come back.
Status GRTree::Cursor::Next(bool* has, Entry* out) {
  *has = false;
  if (tree_->condense_epoch() != epoch_) {
    // The tree condensed under us (paper §5.5): restart from the root.
    Reset();
  }
  if (needs_prime_) {
    needs_prime_ = false;
    GRTDB_RETURN_IF_ERROR(PushNode(tree_->root_));
  }
  const auto before_restart =
      returned_.begin() + static_cast<ptrdiff_t>(sorted_);
  while (!pending_.empty()) {
    const Pending top = pending_.back();
    pending_.pop_back();
    if (!top.answer) {
      GRTDB_RETURN_IF_ERROR(PushNode(top.entry.payload));
    } else if (!std::binary_search(returned_.begin(), before_restart,
                                   top.entry.payload)) {
      returned_.push_back(top.entry.payload);
      *out = top.entry;
      *has = true;
      return Status::OK();
    }
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<GRTree::Cursor>> GRTree::Search(
    PredicateOp op, const TimeExtent& query, int64_t ct) {
  return std::unique_ptr<Cursor>(new Cursor(this, EntryTest(op, query, ct)));
}

Status GRTree::SearchAll(PredicateOp op, const TimeExtent& query, int64_t ct,
                         std::vector<Entry>* out) {
  out->clear();
  auto cursor_or = Search(op, query, ct);
  if (!cursor_or.ok()) return cursor_or.status();
  std::unique_ptr<Cursor> cursor = std::move(cursor_or).value();
  while (true) {
    bool has = false;
    Entry entry;
    GRTDB_RETURN_IF_ERROR(cursor->Next(&has, &entry));
    if (!has) break;
    out->push_back(entry);
  }
  return Status::OK();
}

StatusOr<double> GRTree::EstimateScanCost(PredicateOp op,
                                          const TimeExtent& query,
                                          int64_t ct) const {
  const EntryTest test(op, query, ct);
  double cost = 1.0;
  std::vector<NodeId> frontier = {root_};
  uint32_t passed[kFormat.page_capacity];
  while (!frontier.empty()) {
    std::vector<NodeId> next;
    uint64_t overlapping = 0;
    bool children_are_leaves = false;
    for (NodeId id : frontier) {
      NodePage node;
      GRTDB_RETURN_IF_ERROR(node.Pin(store_, id));
      if (node.level() == 0) return cost;
      children_are_leaves = node.level() == 1;
      const uint32_t n =
          test.Filter(/*leaf=*/false, node.entries(), node.count(), passed);
      overlapping += n;
      if (!children_are_leaves) {
        for (uint32_t k = 0; k < n; ++k) {
          next.push_back(node.payload(passed[k]));
        }
      }
    }
    cost += static_cast<double>(overlapping);
    if (children_are_leaves) break;
    frontier = std::move(next);
  }
  return cost;
}

// ---------------------------------------------------------------- check ---

Status GRTree::CheckConsistency(int64_t ct) const {
  uint64_t leaf_entries = 0;
  GRTDB_RETURN_IF_ERROR(
      CheckRecursive(root_, height_ - 1, nullptr, ct, &leaf_entries));
  if (leaf_entries != size_) {
    return Status::Corruption("size mismatch: anchor says " +
                              std::to_string(size_) + ", tree holds " +
                              std::to_string(leaf_entries));
  }
  return Status::OK();
}

Status GRTree::CheckRecursive(NodeId node_id, uint32_t expected_level,
                              const BoundSpec* parent_bound, int64_t ct,
                              uint64_t* leaf_entries) const {
  Node node;
  GRTDB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  if (node.level != expected_level) {
    return Status::Corruption("node level mismatch");
  }
  if (node_id != root_ && node.entries.size() < min_entries_ &&
      !has_pending_condense_) {
    return Status::Corruption("underfull node");
  }
  if (node.entries.size() > max_entries_) {
    return Status::Corruption("overfull node");
  }
  if (parent_bound != nullptr) {
    // The minimum bounding region must contain each entry now and at every
    // later time; sample the future (growing regions are monotone, so
    // violations show up at sampled horizons).
    const int64_t samples[4] = {ct, ct + 1, ct + kHorizon, ct + 10 * kHorizon};
    for (const NodeEntry& entry : node.entries) {
      for (int64_t t : samples) {
        if (!parent_bound->ContainsAt(entry.bound, t)) {
          return Status::Corruption(
              "bound " + parent_bound->ToString() + " does not contain " +
              entry.bound.ToString() + " at t=" + std::to_string(t));
        }
      }
    }
  }
  if (node.level == 0) {
    *leaf_entries += node.entries.size();
    return Status::OK();
  }
  for (const NodeEntry& entry : node.entries) {
    GRTDB_RETURN_IF_ERROR(CheckRecursive(entry.payload, node.level - 1,
                                         &entry.bound, ct, leaf_entries));
  }
  return Status::OK();
}

// ---------------------------------------------------------------- stats ---

Status GRTree::ComputeStats(int64_t ct, uint64_t dead_space_samples,
                            GRTreeStats* out) const {
  out->size = size_;
  out->height = height_;
  out->nodes = 0;
  uint64_t seed = 0x9d2c5680;
  return CollectLevelStats(&out->levels, [&](const Node& node,
                                             GRTreeLevelStats* stats) {
    ++out->nodes;
    stats->entries += node.entries.size();
    std::vector<Region> resolved(node.entries.size());
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const BoundSpec& bound = node.entries[i].bound;
      resolved[i] = bound.Resolve(ct);
      if (node.level > 0) {
        if (bound.rectangle) {
          ++stats->rect_bounds;
        } else {
          ++stats->stair_bounds;
        }
        if (bound.hidden) {
          ++stats->hidden_bounds;
          if (bound.vt_end.IsGround() && bound.vt_end.chronon() < ct) {
            ++stats->hidden_escaped;
          }
        }
        if (bound.Grows()) ++stats->growing_bounds;
      } else if (bound.Grows()) {
        ++stats->growing_entries;
        stats->growing_area += resolved[i].Area();
      } else {
        ++stats->dead_entries;
      }
      stats->total_area += resolved[i].Area();
      for (size_t j = 0; j < i; ++j) {
        stats->overlap_area += resolved[i].IntersectionArea(resolved[j]);
      }
    }
    if (node.level == 0 || dead_space_samples == 0) return Status::OK();
    // Dead space of each child bound w.r.t. the grandchild regions.
    for (const NodeEntry& entry : node.entries) {
      Node child;
      GRTDB_RETURN_IF_ERROR(ReadNode(entry.payload, &child));
      std::vector<Region> child_regions;
      child_regions.reserve(child.entries.size());
      for (const NodeEntry& child_entry : child.entries) {
        child_regions.push_back(child_entry.bound.Resolve(ct));
      }
      stats->dead_space += Region::DeadSpaceSampled(
          entry.bound.Resolve(ct), child_regions, dead_space_samples, ++seed);
    }
    return Status::OK();
  });
}

// ------------------------------------------------------------- bulkload ---

Status GRTree::BulkLoad(std::vector<Entry> entries, int64_t ct) {
  std::vector<NodeEntry> leaves;
  leaves.reserve(entries.size());
  for (const Entry& entry : entries) {
    leaves.push_back(
        NodeEntry{BoundSpec::FromExtent(entry.extent), entry.payload});
  }
  // STR keys: twice the center of each entry's region at `ct`.
  auto center = [ct](const NodeEntry& entry, bool tt) {
    const Region r = entry.bound.Resolve(ct);
    return tt ? r.tt1() + r.tt2() : r.vt1() + r.vt2();
  };
  return StrPack(
      std::move(leaves), [&](const NodeEntry& e) { return center(e, true); },
      [&](const NodeEntry& e) { return center(e, false); },
      [&](const Node& node) { return NodeBound(node, ct); },
      /*new_epoch=*/true);
}

}  // namespace grtdb
