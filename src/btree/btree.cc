#include "btree/btree.h"

#include <algorithm>
#include <cstring>

namespace grtdb {

int NaturalCompare(int64_t a, int64_t b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

namespace {

constexpr size_t kHeaderSize = 12;  // leaf u8 + pad u8 + count u16 + next u64

// Leaf entry: key i64 + payload u64. Internal: per key also a separator
// payload (duplicate tie-break) and one extra child pointer.
constexpr size_t kLeafEntrySize = 16;
constexpr size_t kInternalKeySize = 24;  // key + sep payload + child

constexpr PagedTreeFormat kFormat{
    0x42545245 /* "BTRE" */, "B+-tree",
    std::min((kPageSize - kHeaderSize) / kLeafEntrySize,
             (kPageSize - kHeaderSize - 8) / kInternalKeySize),
    3};

// (key, payload) pair order under `cmp`.
int PairCompare(int64_t key_a, uint64_t payload_a, int64_t key_b,
                uint64_t payload_b, const BtreeCompare& cmp) {
  const int by_key = cmp(key_a, key_b);
  if (by_key != 0) return by_key;
  if (payload_a < payload_b) return -1;
  if (payload_a > payload_b) return 1;
  return 0;
}

}  // namespace

BtreeIndex::BtreeIndex(NodeStore* store, const Options& options)
    : PagedTree(store, kFormat, options.max_entries) {}

StatusOr<std::unique_ptr<BtreeIndex>> BtreeIndex::Create(
    NodeStore* store, const Options& options, NodeId* anchor) {
  return Bootstrap(std::unique_ptr<BtreeIndex>(new BtreeIndex(store, options)),
                   anchor);
}

StatusOr<std::unique_ptr<BtreeIndex>> BtreeIndex::Open(
    NodeStore* store, NodeId anchor, const Options& options) {
  return Attach(std::unique_ptr<BtreeIndex>(new BtreeIndex(store, options)),
                anchor);
}

Status BtreeIndex::ReadNode(NodeId id, Node* node) const {
  uint8_t page[kPageSize];
  GRTDB_RETURN_IF_ERROR(store_->ReadNode(id, page));
  node->leaf = page[0] != 0;
  const uint16_t count = static_cast<uint16_t>(LoadU32(page + 2) & 0xFFFF);
  node->next = LoadU64(page + 4);
  node->keys.clear();
  node->values.clear();
  if (node->leaf) {
    node->keys.reserve(count);
    node->values.reserve(count);
    for (uint16_t i = 0; i < count; ++i) {
      const uint8_t* p = page + kHeaderSize + i * kLeafEntrySize;
      node->keys.push_back(LoadI64(p));
      node->values.push_back(LoadU64(p + 8));
    }
  } else {
    // count separator keys (+payloads), count+1 children.
    node->keys.reserve(count);
    node->sep_payloads.clear();
    node->sep_payloads.reserve(count);
    node->values.reserve(count + 1u);
    const uint8_t* p = page + kHeaderSize;
    for (uint16_t i = 0; i < count; ++i) {
      node->keys.push_back(LoadI64(p));
      p += 8;
      node->sep_payloads.push_back(LoadU64(p));
      p += 8;
    }
    for (uint16_t i = 0; i <= count; ++i) {
      node->values.push_back(LoadU64(p));
      p += 8;
    }
  }
  return Status::OK();
}

Status BtreeIndex::WriteNode(NodeId id, const Node& node) {
  uint8_t page[kPageSize];
  std::memset(page, 0, sizeof(page));
  page[0] = node.leaf ? 1 : 0;
  StoreU32(page + 2, static_cast<uint32_t>(node.keys.size()) & 0xFFFF);
  StoreU64(page + 4, node.next);
  if (node.leaf) {
    for (size_t i = 0; i < node.keys.size(); ++i) {
      uint8_t* p = page + kHeaderSize + i * kLeafEntrySize;
      StoreI64(p, node.keys[i]);
      StoreU64(p + 8, node.values[i]);
    }
  } else {
    uint8_t* p = page + kHeaderSize;
    for (size_t i = 0; i < node.keys.size(); ++i) {
      StoreI64(p, node.keys[i]);
      p += 8;
      StoreU64(p, node.sep_payloads[i]);
      p += 8;
    }
    for (uint64_t child : node.values) {
      StoreU64(p, child);
      p += 8;
    }
  }
  return store_->WriteNode(id, page);
}

void BtreeIndex::AppendChildren(const Node& node, std::vector<NodeId>* out) {
  if (node.leaf) return;
  out->insert(out->end(), node.values.begin(), node.values.end());
}

size_t BtreeIndex::LowerBound(const Node& node, int64_t key,
                              uint64_t payload, const BtreeCompare& cmp) {
  size_t lo = 0;
  size_t hi = node.keys.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (PairCompare(node.keys[mid], node.values[mid], key, payload, cmp) <
        0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t BtreeIndex::ChildIndex(const Node& node, int64_t key,
                              uint64_t payload, const BtreeCompare& cmp) {
  // First separator strictly greater than (key, payload) determines the
  // child; separators mark the smallest pair of the following child.
  size_t lo = 0;
  size_t hi = node.keys.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (PairCompare(node.keys[mid], node.sep_payloads[mid], key, payload,
                    cmp) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status BtreeIndex::Insert(int64_t key, uint64_t payload,
                          const BtreeCompare& cmp) {
  bool split = false;
  int64_t split_key = 0;
  uint64_t split_payload = 0;
  NodeId split_node = kInvalidNodeId;
  GRTDB_RETURN_IF_ERROR(InsertRecursive(root_, key, payload, cmp, &split,
                                        &split_key, &split_payload,
                                        &split_node));
  if (split) {
    Node new_root;
    new_root.leaf = false;
    new_root.keys.push_back(split_key);
    new_root.sep_payloads.push_back(split_payload);
    new_root.values.push_back(root_);
    new_root.values.push_back(split_node);
    NodeId new_root_id;
    GRTDB_RETURN_IF_ERROR(store_->AllocateNode(&new_root_id));
    GRTDB_RETURN_IF_ERROR(WriteNode(new_root_id, new_root));
    root_ = new_root_id;
    ++height_;
  }
  ++size_;
  return SaveAnchor();
}

Status BtreeIndex::InsertRecursive(NodeId node_id, int64_t key,
                                   uint64_t payload, const BtreeCompare& cmp,
                                   bool* split, int64_t* split_key,
                                   uint64_t* split_payload,
                                   NodeId* split_node) {
  Node node;
  GRTDB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  *split = false;
  if (node.leaf) {
    const size_t pos = LowerBound(node, key, payload, cmp);
    if (pos < node.keys.size() &&
        PairCompare(node.keys[pos], node.values[pos], key, payload, cmp) ==
            0) {
      return Status::AlreadyExists("duplicate (key, rowid) in B+-tree");
    }
    node.keys.insert(node.keys.begin() + pos, key);
    node.values.insert(node.values.begin() + pos, payload);
    if (node.keys.size() <= max_entries_) {
      return WriteNode(node_id, node);
    }
    // Split the leaf; the right node's first pair becomes the separator.
    const size_t half = node.keys.size() / 2;
    Node right;
    right.leaf = true;
    right.keys.assign(node.keys.begin() + half, node.keys.end());
    right.values.assign(node.values.begin() + half, node.values.end());
    right.next = node.next;
    node.keys.resize(half);
    node.values.resize(half);
    NodeId right_id;
    GRTDB_RETURN_IF_ERROR(store_->AllocateNode(&right_id));
    node.next = right_id;
    GRTDB_RETURN_IF_ERROR(WriteNode(right_id, right));
    GRTDB_RETURN_IF_ERROR(WriteNode(node_id, node));
    *split = true;
    *split_key = right.keys.front();
    *split_payload = right.values.front();
    *split_node = right_id;
    return Status::OK();
  }

  const size_t child_index = ChildIndex(node, key, payload, cmp);
  bool child_split = false;
  int64_t child_key = 0;
  uint64_t child_payload = 0;
  NodeId child_node = kInvalidNodeId;
  GRTDB_RETURN_IF_ERROR(InsertRecursive(node.values[child_index], key,
                                        payload, cmp, &child_split,
                                        &child_key, &child_payload,
                                        &child_node));
  if (!child_split) return Status::OK();
  node.keys.insert(node.keys.begin() + child_index, child_key);
  node.sep_payloads.insert(node.sep_payloads.begin() + child_index,
                           child_payload);
  node.values.insert(node.values.begin() + child_index + 1, child_node);
  if (node.keys.size() <= max_entries_) {
    return WriteNode(node_id, node);
  }
  // Split the internal node; the middle separator moves up.
  const size_t mid = node.keys.size() / 2;
  Node right;
  right.leaf = false;
  right.keys.assign(node.keys.begin() + mid + 1, node.keys.end());
  right.sep_payloads.assign(node.sep_payloads.begin() + mid + 1,
                            node.sep_payloads.end());
  right.values.assign(node.values.begin() + mid + 1, node.values.end());
  *split_key = node.keys[mid];
  *split_payload = node.sep_payloads[mid];
  node.keys.resize(mid);
  node.sep_payloads.resize(mid);
  node.values.resize(mid + 1);
  NodeId right_id;
  GRTDB_RETURN_IF_ERROR(store_->AllocateNode(&right_id));
  GRTDB_RETURN_IF_ERROR(WriteNode(right_id, right));
  GRTDB_RETURN_IF_ERROR(WriteNode(node_id, node));
  *split = true;
  *split_node = right_id;
  return Status::OK();
}

Status BtreeIndex::Delete(int64_t key, uint64_t payload,
                          const BtreeCompare& cmp, bool* found) {
  *found = false;
  GRTDB_RETURN_IF_ERROR(DeleteRecursive(root_, key, payload, cmp, found));
  if (!*found) return Status::OK();
  --size_;
  return SaveAnchor();
}

Status BtreeIndex::DeleteRecursive(NodeId node_id, int64_t key,
                                   uint64_t payload, const BtreeCompare& cmp,
                                   bool* found) {
  // Lazy deletion: entries are removed from leaves; nodes are not merged.
  // (Scans skip sparse leaves; the paper's own deletion discussion — §5.5 —
  // concerns the R-tree family, where condensation interacts with scans.)
  Node node;
  GRTDB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  if (node.leaf) {
    const size_t pos = LowerBound(node, key, payload, cmp);
    if (pos < node.keys.size() &&
        PairCompare(node.keys[pos], node.values[pos], key, payload, cmp) ==
            0) {
      node.keys.erase(node.keys.begin() + pos);
      node.values.erase(node.values.begin() + pos);
      *found = true;
      return WriteNode(node_id, node);
    }
    return Status::OK();
  }
  return DeleteRecursive(node.values[ChildIndex(node, key, payload, cmp)],
                         key, payload, cmp, found);
}

Status BtreeIndex::Scan(const Range& range, const BtreeCompare& cmp,
                        const std::function<bool(const Entry&)>& fn) const {
  // Descend to the first candidate leaf.
  NodeId current = root_;
  while (true) {
    Node node;
    GRTDB_RETURN_IF_ERROR(ReadNode(current, &node));
    if (node.leaf) break;
    const size_t child = range.lo.has_value()
                             ? ChildIndex(node, *range.lo, 0, cmp)
                             : 0;
    current = node.values[child];
  }
  while (current != kInvalidNodeId) {
    Node node;
    GRTDB_RETURN_IF_ERROR(ReadNode(current, &node));
    size_t start = 0;
    if (range.lo.has_value()) {
      start = LowerBound(node, *range.lo, 0, cmp);
    }
    for (size_t i = start; i < node.keys.size(); ++i) {
      if (range.lo.has_value()) {
        const int versus_lo = cmp(node.keys[i], *range.lo);
        if (versus_lo < 0 || (range.lo_strict && versus_lo == 0)) continue;
      }
      if (range.hi.has_value()) {
        const int versus_hi = cmp(node.keys[i], *range.hi);
        if (versus_hi > 0 || (range.hi_strict && versus_hi == 0)) {
          return Status::OK();
        }
      }
      if (!fn(Entry{node.keys[i], node.values[i]})) return Status::OK();
    }
    current = node.next;
  }
  return Status::OK();
}

Status BtreeIndex::ScanAll(const Range& range, const BtreeCompare& cmp,
                           std::vector<Entry>* out) const {
  out->clear();
  return Scan(range, cmp, [out](const Entry& entry) {
    out->push_back(entry);
    return true;
  });
}

StatusOr<double> BtreeIndex::EstimateScanCost(const Range& range,
                                              const BtreeCompare& cmp) const {
  // Height (descent) plus the number of leaves the range touches.
  double cost = height_;
  NodeId current = root_;
  while (true) {
    Node node;
    GRTDB_RETURN_IF_ERROR(ReadNode(current, &node));
    if (node.leaf) break;
    const size_t child = range.lo.has_value()
                             ? ChildIndex(node, *range.lo, 0, cmp)
                             : 0;
    current = node.values[child];
  }
  while (current != kInvalidNodeId) {
    Node node;
    GRTDB_RETURN_IF_ERROR(ReadNode(current, &node));
    cost += 1.0;
    if (range.hi.has_value() && !node.keys.empty()) {
      const int versus_hi = cmp(node.keys.front(), *range.hi);
      if (versus_hi > 0 || (range.hi_strict && versus_hi == 0)) break;
    }
    current = node.next;
  }
  return cost;
}

Status BtreeIndex::CheckConsistency(const BtreeCompare& cmp) const {
  uint64_t entries = 0;
  uint32_t leaf_depth = 0;
  GRTDB_RETURN_IF_ERROR(
      CheckRecursive(root_, 1, cmp, &entries, &leaf_depth));
  if (entries != size_) {
    return Status::Corruption("B+-tree size mismatch: anchor " +
                              std::to_string(size_) + " vs counted " +
                              std::to_string(entries));
  }
  // Leaf chain must deliver every entry in order.
  NodeId current = root_;
  while (true) {
    Node node;
    GRTDB_RETURN_IF_ERROR(ReadNode(current, &node));
    if (node.leaf) break;
    current = node.values.front();
  }
  uint64_t chained = 0;
  bool have_prev = false;
  int64_t prev_key = 0;
  uint64_t prev_payload = 0;
  while (current != kInvalidNodeId) {
    Node node;
    GRTDB_RETURN_IF_ERROR(ReadNode(current, &node));
    for (size_t i = 0; i < node.keys.size(); ++i) {
      if (have_prev &&
          PairCompare(prev_key, prev_payload, node.keys[i], node.values[i],
                      cmp) >= 0) {
        return Status::Corruption("leaf chain out of order");
      }
      prev_key = node.keys[i];
      prev_payload = node.values[i];
      have_prev = true;
      ++chained;
    }
    current = node.next;
  }
  if (chained != size_) {
    return Status::Corruption("leaf chain misses entries");
  }
  return Status::OK();
}

Status BtreeIndex::CheckRecursive(NodeId node_id, uint32_t depth,
                                  const BtreeCompare& cmp, uint64_t* entries,
                                  uint32_t* leaf_depth) const {
  Node node;
  GRTDB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  if (node.leaf) {
    if (*leaf_depth == 0) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Corruption("leaves at different depths");
    }
    *entries += node.keys.size();
    return Status::OK();
  }
  if (node.values.size() != node.keys.size() + 1 ||
      node.sep_payloads.size() != node.keys.size()) {
    return Status::Corruption("internal node shape broken");
  }
  for (size_t i = 1; i < node.keys.size(); ++i) {
    if (PairCompare(node.keys[i - 1], node.sep_payloads[i - 1], node.keys[i],
                    node.sep_payloads[i], cmp) >= 0) {
      return Status::Corruption("separators out of order");
    }
  }
  for (uint64_t child : node.values) {
    GRTDB_RETURN_IF_ERROR(
        CheckRecursive(child, depth + 1, cmp, entries, leaf_depth));
  }
  return Status::OK();
}

Status BtreeIndex::LevelStats(std::vector<BtreeLevelStats>* out) const {
  // Nodes carry no level field: the walk's depth gives it.
  return CollectLevelStats(out, [](const Node& node, BtreeLevelStats* stats) {
    stats->entries += node.keys.size();
    return Status::OK();
  });
}

}  // namespace grtdb
