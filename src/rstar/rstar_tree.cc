#include "rstar/rstar_tree.h"

#include <algorithm>
#include <cstring>

namespace grtdb {

namespace {

constexpr size_t kNodeHeaderSize = 8;  // level u32 + count u32
constexpr size_t kEntrySize = 40;      // 4 x i64 + payload u64
constexpr PagedTreeFormat kFormat{0x52535452 /* "RSTR" */, "R*-tree",
                                  (kPageSize - kNodeHeaderSize) / kEntrySize,
                                  4};

}  // namespace

RStarTree::RStarTree(NodeStore* store, const Options& options)
    : PagedTree(store, kFormat, options.max_entries, options.min_fill),
      options_(options) {}

StatusOr<std::unique_ptr<RStarTree>> RStarTree::Create(NodeStore* store,
                                                       const Options& options,
                                                       NodeId* anchor) {
  return Bootstrap(std::unique_ptr<RStarTree>(new RStarTree(store, options)),
                   anchor);
}

StatusOr<std::unique_ptr<RStarTree>> RStarTree::Open(NodeStore* store,
                                                     NodeId anchor,
                                                     const Options& options) {
  return Attach(std::unique_ptr<RStarTree>(new RStarTree(store, options)),
                anchor);
}

Status RStarTree::ReadNode(NodeId id, Node* node) const {
  // Zero-copy on cached stores: decode straight out of the pinned frame.
  NodeView view;
  GRTDB_RETURN_IF_ERROR(store_->ViewNode(id, &view));
  const uint8_t* page = view.data();
  node->level = LoadU32(page);
  const uint32_t count = LoadU32(page + 4);
  if (count > kFormat.page_capacity) {
    return Status::Corruption("node entry count out of range");
  }
  node->entries.clear();
  node->entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint8_t* p = page + kNodeHeaderSize + i * kEntrySize;
    Entry entry;
    entry.rect.x1 = LoadI64(p);
    entry.rect.x2 = LoadI64(p + 8);
    entry.rect.y1 = LoadI64(p + 16);
    entry.rect.y2 = LoadI64(p + 24);
    entry.payload = LoadU64(p + 32);
    node->entries.push_back(entry);
  }
  return Status::OK();
}

Status RStarTree::WriteNode(NodeId id, const Node& node) {
  uint8_t page[kPageSize];
  std::memset(page, 0, sizeof(page));
  StoreU32(page, node.level);
  StoreU32(page + 4, static_cast<uint32_t>(node.entries.size()));
  for (size_t i = 0; i < node.entries.size(); ++i) {
    uint8_t* p = page + kNodeHeaderSize + i * kEntrySize;
    const Entry& entry = node.entries[i];
    StoreI64(p, entry.rect.x1);
    StoreI64(p + 8, entry.rect.x2);
    StoreI64(p + 16, entry.rect.y1);
    StoreI64(p + 24, entry.rect.y2);
    StoreU64(p + 32, entry.payload);
  }
  return store_->WriteNode(id, page);
}

Rect RStarTree::NodeBound(const Node& node) const {
  Rect bound;
  for (const Entry& entry : node.entries) {
    bound = Rect::Enclose(bound, entry.rect);
  }
  return bound;
}

Status RStarTree::ChooseSubtree(const Node& node, const Rect& rect,
                                size_t* best) {
  const bool children_are_leaves = node.level == 1;
  double best_primary = 0.0;
  double best_secondary = 0.0;
  double best_area = 0.0;
  size_t best_index = 0;
  for (size_t i = 0; i < node.entries.size(); ++i) {
    const Rect& child = node.entries[i].rect;
    const Rect enlarged = Rect::Enclose(child, rect);
    const double area = child.Area();
    const double area_enlargement = enlarged.Area() - area;
    double primary;
    if (children_are_leaves) {
      // Minimum overlap enlargement [BEC90 §4.1].
      double overlap_before = 0.0;
      double overlap_after = 0.0;
      for (size_t j = 0; j < node.entries.size(); ++j) {
        if (j == i) continue;
        overlap_before += child.IntersectionArea(node.entries[j].rect);
        overlap_after += enlarged.IntersectionArea(node.entries[j].rect);
      }
      primary = overlap_after - overlap_before;
    } else {
      primary = area_enlargement;
    }
    const double secondary = children_are_leaves ? area_enlargement : area;
    if (i == 0 || primary < best_primary ||
        (primary == best_primary && secondary < best_secondary) ||
        (primary == best_primary && secondary == best_secondary &&
         area < best_area)) {
      best_primary = primary;
      best_secondary = secondary;
      best_area = area;
      best_index = i;
    }
  }
  *best = best_index;
  return Status::OK();
}

Status RStarTree::Insert(const Rect& rect, uint64_t payload) {
  if (rect.IsEmpty()) {
    return Status::InvalidArgument("cannot index an empty rectangle");
  }
  return InsertLeaf(Entry{rect, payload});
}

Status RStarTree::InsertRecursive(NodeId node_id, const Entry& entry,
                                  uint32_t level, Insertion<Entry>* ins) {
  Node node;
  GRTDB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  if (node.level == level) {
    node.entries.push_back(entry);
  } else {
    size_t child_index;
    GRTDB_RETURN_IF_ERROR(ChooseSubtree(node, entry.rect, &child_index));
    GRTDB_RETURN_IF_ERROR(InsertRecursive(node.entries[child_index].payload,
                                          entry, level, ins));
    node.entries[child_index] = ins->entry;
    if (ins->split) node.entries.push_back(ins->sibling);
  }
  // Only a node that gained an entry here can overflow.
  if ((node.level == level || ins->split) &&
      node.entries.size() > max_entries_) {
    return HandleOverflow(node_id, &node, ins);
  }
  GRTDB_RETURN_IF_ERROR(WriteNode(node_id, node));
  ins->split = false;
  ins->entry = Entry{NodeBound(node), node_id};
  return Status::OK();
}

Status RStarTree::HandleOverflow(NodeId node_id, Node* node,
                                 Insertion<Entry>* ins) {
  if (options_.forced_reinsert && node_id != root_ &&
      ins->FirstOverflowAt(node->level)) {
    // Evict the reinsert_fraction entries farthest from the node center and
    // defer their reinsertion (close-reinsert order: nearest first).
    const Rect bound = NodeBound(*node);
    std::vector<size_t> order(node->entries.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return node->entries[a].rect.CenterDistance2(bound) <
             node->entries[b].rect.CenterDistance2(bound);
    });
    const size_t evict_count = std::max<size_t>(
        1, static_cast<size_t>(options_.reinsert_fraction *
                               static_cast<double>(node->entries.size())));
    const size_t keep = node->entries.size() - evict_count;
    std::vector<Entry> kept;
    kept.reserve(keep);
    for (size_t i = 0; i < keep; ++i) kept.push_back(node->entries[order[i]]);
    for (size_t i = keep; i < order.size(); ++i) {
      ins->queue.emplace_back(node->entries[order[i]], node->level);
    }
    node->entries = std::move(kept);
    GRTDB_RETURN_IF_ERROR(WriteNode(node_id, *node));
    ins->split = false;
    ins->entry = Entry{NodeBound(*node), node_id};
    return Status::OK();
  }

  // Topological split.
  std::vector<Entry> left;
  std::vector<Entry> right;
  SplitEntries(&node->entries, &left, &right);
  Node right_node;
  right_node.level = node->level;
  right_node.entries = std::move(right);
  NodeId right_id;
  GRTDB_RETURN_IF_ERROR(store_->AllocateNode(&right_id));
  GRTDB_RETURN_IF_ERROR(WriteNode(right_id, right_node));
  node->entries = std::move(left);
  GRTDB_RETURN_IF_ERROR(WriteNode(node_id, *node));
  ins->split = true;
  ins->sibling = Entry{NodeBound(right_node), right_id};
  ins->entry = Entry{NodeBound(*node), node_id};
  return Status::OK();
}

void RStarTree::SplitEntries(std::vector<Entry>* entries,
                             std::vector<Entry>* left,
                             std::vector<Entry>* right) const {
  const size_t total = entries->size();
  const size_t m = min_entries_;

  struct Candidate {
    std::vector<size_t> order;
    size_t split_at = 0;  // left gets order[0 .. split_at)
    double overlap = 0.0;
    double area = 0.0;
  };

  auto evaluate_axis = [&](bool x_axis, double* margin_sum,
                           Candidate* best_candidate) {
    for (int by_upper = 0; by_upper < 2; ++by_upper) {
      std::vector<size_t> order(total);
      for (size_t i = 0; i < total; ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const Rect& ra = (*entries)[a].rect;
        const Rect& rb = (*entries)[b].rect;
        const int64_t ka = x_axis ? (by_upper ? ra.x2 : ra.x1)
                                  : (by_upper ? ra.y2 : ra.y1);
        const int64_t kb = x_axis ? (by_upper ? rb.x2 : rb.x1)
                                  : (by_upper ? rb.y2 : rb.y1);
        return ka < kb;
      });
      // Prefix/suffix bounds.
      std::vector<Rect> prefix(total);
      std::vector<Rect> suffix(total);
      Rect acc;
      for (size_t i = 0; i < total; ++i) {
        acc = Rect::Enclose(acc, (*entries)[order[i]].rect);
        prefix[i] = acc;
      }
      acc = Rect();
      for (size_t i = total; i-- > 0;) {
        acc = Rect::Enclose(acc, (*entries)[order[i]].rect);
        suffix[i] = acc;
      }
      for (size_t k = m; k + m <= total; ++k) {
        const Rect& lb = prefix[k - 1];
        const Rect& rb = suffix[k];
        *margin_sum += lb.Margin() + rb.Margin();
        const double overlap = lb.IntersectionArea(rb);
        const double area = lb.Area() + rb.Area();
        if (best_candidate->order.empty() ||
            overlap < best_candidate->overlap ||
            (overlap == best_candidate->overlap &&
             area < best_candidate->area)) {
          best_candidate->order = order;
          best_candidate->split_at = k;
          best_candidate->overlap = overlap;
          best_candidate->area = area;
        }
      }
    }
  };

  double x_margin = 0.0;
  double y_margin = 0.0;
  Candidate x_best;
  Candidate y_best;
  evaluate_axis(true, &x_margin, &x_best);
  evaluate_axis(false, &y_margin, &y_best);
  const Candidate& chosen = (x_margin <= y_margin) ? x_best : y_best;

  left->clear();
  right->clear();
  for (size_t i = 0; i < chosen.split_at; ++i) {
    left->push_back((*entries)[chosen.order[i]]);
  }
  for (size_t i = chosen.split_at; i < total; ++i) {
    right->push_back((*entries)[chosen.order[i]]);
  }
}

Status RStarTree::Delete(const Rect& rect, uint64_t payload, bool* found) {
  *found = false;
  bool removed_node = false;
  std::vector<std::pair<Entry, uint32_t>> orphans;
  Rect new_bound;
  GRTDB_RETURN_IF_ERROR(DeleteRecursiveImpl(root_, rect, payload, found,
                                            &removed_node, &orphans,
                                            &new_bound));
  if (!*found) return Status::OK();
  --size_;
  if (removed_node) {
    // The root itself went underfull only in the leaf-root case, which we
    // never remove; removed_node true here would be a logic error.
    return Status::Internal("root unexpectedly removed");
  }
  return Condense(std::move(orphans));
}

Status RStarTree::DeleteRecursiveImpl(
    NodeId node_id, const Rect& rect, uint64_t payload, bool* found,
    bool* removed_node, std::vector<std::pair<Entry, uint32_t>>* orphans,
    Rect* new_bound) {
  Node node;
  GRTDB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  *removed_node = false;
  if (node.level == 0) {
    for (size_t i = 0; i < node.entries.size(); ++i) {
      if (node.entries[i].rect == rect && node.entries[i].payload == payload) {
        node.entries.erase(node.entries.begin() + i);
        *found = true;
        break;
      }
    }
    if (!*found) return Status::OK();
    if (node_id != root_ && node.entries.size() < min_entries_) {
      for (const Entry& entry : node.entries) {
        orphans->emplace_back(entry, 0);
      }
      GRTDB_RETURN_IF_ERROR(store_->FreeNode(node_id));
      *removed_node = true;
      return Status::OK();
    }
    GRTDB_RETURN_IF_ERROR(WriteNode(node_id, node));
    *new_bound = NodeBound(node);
    return Status::OK();
  }

  for (size_t i = 0; i < node.entries.size(); ++i) {
    if (!node.entries[i].rect.Contains(rect)) continue;
    bool child_removed = false;
    Rect child_bound;
    GRTDB_RETURN_IF_ERROR(DeleteRecursiveImpl(node.entries[i].payload, rect,
                                              payload, found, &child_removed,
                                              orphans, &child_bound));
    if (!*found) continue;
    if (child_removed) {
      node.entries.erase(node.entries.begin() + i);
    } else {
      node.entries[i].rect = child_bound;
    }
    if (node_id != root_ && node.entries.size() < min_entries_) {
      for (const Entry& entry : node.entries) {
        orphans->emplace_back(entry, node.level);
      }
      GRTDB_RETURN_IF_ERROR(store_->FreeNode(node_id));
      *removed_node = true;
      return Status::OK();
    }
    GRTDB_RETURN_IF_ERROR(WriteNode(node_id, node));
    *new_bound = NodeBound(node);
    return Status::OK();
  }
  return Status::OK();
}

Status RStarTree::Search(const Rect& query,
                         const std::function<bool(const Entry&)>& fn) const {
  bool keep_going = true;
  return SearchRecursive(root_, query, fn, &keep_going);
}

Status RStarTree::SearchRecursive(NodeId node_id, const Rect& query,
                                  const std::function<bool(const Entry&)>& fn,
                                  bool* keep_going) const {
  Node node;
  GRTDB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  for (const Entry& entry : node.entries) {
    if (!*keep_going) return Status::OK();
    if (!entry.rect.Intersects(query)) continue;
    if (node.level == 0) {
      if (!fn(entry)) {
        *keep_going = false;
        return Status::OK();
      }
    } else {
      GRTDB_RETURN_IF_ERROR(
          SearchRecursive(entry.payload, query, fn, keep_going));
    }
  }
  return Status::OK();
}

Status RStarTree::SearchAll(const Rect& query, std::vector<Entry>* out) const {
  out->clear();
  return Search(query, [out](const Entry& entry) {
    out->push_back(entry);
    return true;
  });
}

StatusOr<double> RStarTree::EstimateScanCost(const Rect& query) const {
  // Walk the internal levels, counting every node whose bound intersects
  // the query; leaf visits are estimated from the last internal level.
  double cost = 1.0;  // root
  std::vector<NodeId> frontier = {root_};
  while (!frontier.empty()) {
    std::vector<NodeId> next;
    uint64_t overlapping_children = 0;
    bool children_are_leaves = false;
    for (NodeId id : frontier) {
      Node node;
      GRTDB_RETURN_IF_ERROR(ReadNode(id, &node));
      if (node.level == 0) return cost;
      children_are_leaves = node.level == 1;
      for (const Entry& entry : node.entries) {
        if (entry.rect.Intersects(query)) {
          ++overlapping_children;
          if (!children_are_leaves) next.push_back(entry.payload);
        }
      }
    }
    cost += static_cast<double>(overlapping_children);
    if (children_are_leaves) break;
    frontier = std::move(next);
  }
  return cost;
}

Status RStarTree::CheckConsistency() const {
  uint64_t leaf_entries = 0;
  GRTDB_RETURN_IF_ERROR(
      CheckRecursive(root_, height_ - 1, nullptr, &leaf_entries));
  if (leaf_entries != size_) {
    return Status::Corruption("size mismatch: anchor says " +
                              std::to_string(size_) + ", tree holds " +
                              std::to_string(leaf_entries));
  }
  return Status::OK();
}

Status RStarTree::CheckRecursive(NodeId node_id, uint32_t expected_level,
                                 const Rect* parent_bound,
                                 uint64_t* leaf_entries) const {
  Node node;
  GRTDB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  if (node.level != expected_level) {
    return Status::Corruption("node level mismatch");
  }
  if (node_id != root_ && node.entries.size() < min_entries_) {
    return Status::Corruption("underfull node");
  }
  if (node.entries.size() > max_entries_) {
    return Status::Corruption("overfull node");
  }
  if (parent_bound != nullptr) {
    for (const Entry& entry : node.entries) {
      if (!parent_bound->Contains(entry.rect)) {
        return Status::Corruption("parent bound does not contain entry");
      }
    }
  }
  if (node.level == 0) {
    *leaf_entries += node.entries.size();
    return Status::OK();
  }
  for (const Entry& entry : node.entries) {
    GRTDB_RETURN_IF_ERROR(CheckRecursive(entry.payload, node.level - 1,
                                         &entry.rect, leaf_entries));
  }
  return Status::OK();
}

Status RStarTree::LevelStats(std::vector<RStarLevelStats>* out) const {
  return CollectLevelStats(out, [](const Node& node, RStarLevelStats* stats) {
    stats->entries += node.entries.size();
    for (size_t i = 0; i < node.entries.size(); ++i) {
      stats->total_area += node.entries[i].rect.Area();
      for (size_t j = i + 1; j < node.entries.size(); ++j) {
        stats->overlap_area +=
            node.entries[i].rect.IntersectionArea(node.entries[j].rect);
      }
    }
    return Status::OK();
  });
}

Status RStarTree::BulkLoad(std::vector<Entry> entries) {
  return StrPack(
      std::move(entries),
      [](const Entry& entry) { return entry.rect.x1 + entry.rect.x2; },
      [](const Entry& entry) { return entry.rect.y1 + entry.rect.y2; },
      [this](const Node& node) { return NodeBound(node); });
}

}  // namespace grtdb
