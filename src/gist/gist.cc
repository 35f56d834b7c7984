#include "gist/gist.h"

#include <cstring>

namespace grtdb {

namespace {

constexpr size_t kNodeHeaderSize = 8;     // level u32 + count u32
constexpr size_t kEntryOverhead = 2 + 8;  // key length u16 + payload u64
// Keys vary in size, so no entry count bounds a node.
constexpr PagedTreeFormat kFormat{0x47495354 /* "GIST" */, "GiST", 0, 0};

}  // namespace

GistTree::GistTree(NodeStore* store) : PagedTree(store, kFormat) {}

StatusOr<std::unique_ptr<GistTree>> GistTree::Create(NodeStore* store,
                                                     NodeId* anchor) {
  return Bootstrap(std::unique_ptr<GistTree>(new GistTree(store)), anchor);
}

StatusOr<std::unique_ptr<GistTree>> GistTree::Open(NodeStore* store,
                                                   NodeId anchor) {
  return Attach(std::unique_ptr<GistTree>(new GistTree(store)), anchor);
}

size_t GistTree::NodeBytes(const Node& node) {
  size_t bytes = kNodeHeaderSize;
  for (const NodeEntry& entry : node.entries) {
    bytes += kEntryOverhead + entry.key.size();
  }
  return bytes;
}

bool GistTree::Overflows(const Node& node) {
  return NodeBytes(node) > kPageSize;
}

Status GistTree::ReadNode(NodeId id, Node* node) const {
  uint8_t page[kPageSize];
  GRTDB_RETURN_IF_ERROR(store_->ReadNode(id, page));
  node->level = LoadU32(page);
  const uint32_t count = LoadU32(page + 4);
  node->entries.clear();
  node->entries.reserve(count);
  size_t offset = kNodeHeaderSize;
  for (uint32_t i = 0; i < count; ++i) {
    if (offset + kEntryOverhead > kPageSize) {
      return Status::Corruption("GiST entry runs off the page");
    }
    uint16_t key_len;
    std::memcpy(&key_len, page + offset, 2);
    if (offset + kEntryOverhead + key_len > kPageSize) {
      return Status::Corruption("GiST key runs off the page");
    }
    NodeEntry entry;
    entry.key.assign(page + offset + 2, page + offset + 2 + key_len);
    entry.payload = LoadU64(page + offset + 2 + key_len);
    node->entries.push_back(std::move(entry));
    offset += kEntryOverhead + key_len;
  }
  return Status::OK();
}

Status GistTree::WriteNode(NodeId id, const Node& node) {
  if (NodeBytes(node) > kPageSize) {
    return Status::Internal("GiST node exceeds page size");
  }
  uint8_t page[kPageSize];
  std::memset(page, 0, sizeof(page));
  StoreU32(page, node.level);
  StoreU32(page + 4, static_cast<uint32_t>(node.entries.size()));
  size_t offset = kNodeHeaderSize;
  for (const NodeEntry& entry : node.entries) {
    const uint16_t key_len = static_cast<uint16_t>(entry.key.size());
    std::memcpy(page + offset, &key_len, 2);
    std::memcpy(page + offset + 2, entry.key.data(), key_len);
    StoreU64(page + offset + 2 + key_len, entry.payload);
    offset += kEntryOverhead + key_len;
  }
  return store_->WriteNode(id, page);
}

GistKey GistTree::NodeUnion(const Node& node, const GistExtension& ext) const {
  std::vector<GistKey> keys;
  keys.reserve(node.entries.size());
  for (const NodeEntry& entry : node.entries) keys.push_back(entry.key);
  return ext.unite(keys);
}

Status GistTree::Insert(const GistKey& key, uint64_t payload,
                        const GistExtension& ext) {
  if (key.size() > kMaxKeySize) {
    return Status::InvalidArgument("GiST key exceeds kMaxKeySize");
  }
  return InsertLeaf(NodeEntry{key, payload}, ext);
}

Status GistTree::InsertRecursive(NodeId node_id, const NodeEntry& entry,
                                 uint32_t level, const GistExtension& ext,
                                 Insertion<NodeEntry>* ins) {
  Node node;
  GRTDB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  if (node.level != level) {
    // ChooseSubtree: minimal penalty.
    size_t best = 0;
    double best_penalty = 0.0;
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const double candidate = ext.penalty(node.entries[i].key, entry.key);
      if (i == 0 || candidate < best_penalty) {
        best = i;
        best_penalty = candidate;
      }
    }
    GRTDB_RETURN_IF_ERROR(InsertRecursive(node.entries[best].payload, entry,
                                          level, ext, ins));
    node.entries[best] = std::move(ins->entry);
    if (ins->split) node.entries.push_back(std::move(ins->sibling));
  } else {
    node.entries.push_back(entry);
  }
  if (!Overflows(node)) {
    GRTDB_RETURN_IF_ERROR(WriteNode(node_id, node));
    ins->split = false;
    ins->entry = NodeEntry{NodeUnion(node, ext), node_id};
    return Status::OK();
  }

  // PickSplit.
  std::vector<GistKey> keys;
  keys.reserve(node.entries.size());
  for (const NodeEntry& e : node.entries) keys.push_back(e.key);
  std::vector<size_t> right_indices = ext.pick_split(keys);
  if (right_indices.empty() || right_indices.size() >= node.entries.size()) {
    return Status::Internal("pick_split produced an empty side");
  }
  std::vector<bool> goes_right(node.entries.size(), false);
  for (size_t index : right_indices) {
    if (index >= node.entries.size()) {
      return Status::Internal("pick_split index out of range");
    }
    goes_right[index] = true;
  }
  Node right;
  right.level = node.level;
  std::vector<NodeEntry> left_entries;
  for (size_t i = 0; i < node.entries.size(); ++i) {
    if (goes_right[i]) {
      right.entries.push_back(std::move(node.entries[i]));
    } else {
      left_entries.push_back(std::move(node.entries[i]));
    }
  }
  node.entries = std::move(left_entries);
  if (Overflows(node) || Overflows(right)) {
    return Status::Internal("pick_split left an overfull side");
  }
  NodeId right_id;
  GRTDB_RETURN_IF_ERROR(store_->AllocateNode(&right_id));
  GRTDB_RETURN_IF_ERROR(WriteNode(right_id, right));
  GRTDB_RETURN_IF_ERROR(WriteNode(node_id, node));
  ins->split = true;
  ins->sibling = NodeEntry{NodeUnion(right, ext), right_id};
  ins->entry = NodeEntry{NodeUnion(node, ext), node_id};
  return Status::OK();
}

Status GistTree::Delete(const GistKey& key, uint64_t payload,
                        const GistExtension& ext, bool* found) {
  *found = false;
  bool removed_node = false;
  std::vector<std::pair<NodeEntry, uint32_t>> orphans;
  GistKey new_key;
  GRTDB_RETURN_IF_ERROR(DeleteRecursive(root_, key, payload, ext, found,
                                        &removed_node, &orphans, &new_key));
  if (!*found) return Status::OK();
  --size_;
  return Condense(std::move(orphans), ext);
}

Status GistTree::DeleteRecursive(
    NodeId node_id, const GistKey& key, uint64_t payload,
    const GistExtension& ext, bool* found, bool* removed_node,
    std::vector<std::pair<NodeEntry, uint32_t>>* orphans, GistKey* new_key) {
  Node node;
  GRTDB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  *removed_node = false;

  auto finish = [&]() -> Status {
    if (node_id != root_ && node.entries.size() < kMinEntries) {
      for (const NodeEntry& entry : node.entries) {
        orphans->emplace_back(entry, node.level);
      }
      GRTDB_RETURN_IF_ERROR(store_->FreeNode(node_id));
      *removed_node = true;
      return Status::OK();
    }
    GRTDB_RETURN_IF_ERROR(WriteNode(node_id, node));
    if (!node.entries.empty()) *new_key = NodeUnion(node, ext);
    return Status::OK();
  };

  if (node.level == 0) {
    for (size_t i = 0; i < node.entries.size(); ++i) {
      if (node.entries[i].payload == payload && node.entries[i].key == key) {
        node.entries.erase(node.entries.begin() + i);
        *found = true;
        break;
      }
    }
    if (!*found) return Status::OK();
    return finish();
  }

  for (size_t i = 0; i < node.entries.size(); ++i) {
    if (!ext.consistent(node.entries[i].key, key, /*strategy=*/0,
                        /*leaf=*/false)) {
      continue;
    }
    bool child_removed = false;
    GistKey child_key;
    GRTDB_RETURN_IF_ERROR(DeleteRecursive(node.entries[i].payload, key,
                                          payload, ext, found, &child_removed,
                                          orphans, &child_key));
    if (!*found) continue;
    if (child_removed) {
      node.entries.erase(node.entries.begin() + i);
    } else {
      node.entries[i].key = std::move(child_key);
    }
    return finish();
  }
  return Status::OK();
}

Status GistTree::Search(const GistKey& query, int strategy,
                        const GistExtension& ext,
                        const std::function<bool(const Entry&)>& fn) const {
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    Node node;
    GRTDB_RETURN_IF_ERROR(ReadNode(id, &node));
    for (const NodeEntry& entry : node.entries) {
      if (!ext.consistent(entry.key, query, strategy, node.level == 0)) {
        continue;
      }
      if (node.level == 0) {
        if (!fn(Entry{entry.key, entry.payload})) return Status::OK();
      } else {
        stack.push_back(entry.payload);
      }
    }
  }
  return Status::OK();
}

Status GistTree::SearchAll(const GistKey& query, int strategy,
                           const GistExtension& ext,
                           std::vector<Entry>* out) const {
  out->clear();
  return Search(query, strategy, ext, [out](const Entry& entry) {
    out->push_back(entry);
    return true;
  });
}

StatusOr<double> GistTree::EstimateScanCost(const GistKey& query,
                                            int strategy,
                                            const GistExtension& ext) const {
  double cost = 1.0;
  std::vector<NodeId> frontier = {root_};
  while (!frontier.empty()) {
    std::vector<NodeId> next;
    bool children_are_leaves = false;
    uint64_t matching = 0;
    for (NodeId id : frontier) {
      Node node;
      GRTDB_RETURN_IF_ERROR(ReadNode(id, &node));
      if (node.level == 0) return cost;
      children_are_leaves = node.level == 1;
      for (const NodeEntry& entry : node.entries) {
        if (ext.consistent(entry.key, query, strategy, false)) {
          ++matching;
          if (!children_are_leaves) next.push_back(entry.payload);
        }
      }
    }
    cost += static_cast<double>(matching);
    if (children_are_leaves) break;
    frontier = std::move(next);
  }
  return cost;
}

Status GistTree::CheckConsistency(const GistExtension& ext) const {
  uint64_t leaf_entries = 0;
  GRTDB_RETURN_IF_ERROR(
      CheckRecursive(root_, height_ - 1, nullptr, ext, &leaf_entries));
  if (leaf_entries != size_) {
    return Status::Corruption("GiST size mismatch");
  }
  return Status::OK();
}

Status GistTree::CheckRecursive(NodeId node_id, uint32_t expected_level,
                                const NodeEntry* parent,
                                const GistExtension& ext,
                                uint64_t* leaf_entries) const {
  Node node;
  GRTDB_RETURN_IF_ERROR(ReadNode(node_id, &node));
  if (node.level != expected_level) {
    return Status::Corruption("GiST level mismatch");
  }
  if (node_id != root_ && node.entries.size() < kMinEntries) {
    return Status::Corruption("underfull GiST node");
  }
  if (parent != nullptr) {
    for (const NodeEntry& entry : node.entries) {
      if (!ext.consistent(parent->key, entry.key, /*strategy=*/0,
                          /*leaf=*/false)) {
        return Status::Corruption("parent key inconsistent with child");
      }
    }
  }
  if (node.level == 0) {
    *leaf_entries += node.entries.size();
    return Status::OK();
  }
  for (const NodeEntry& entry : node.entries) {
    GRTDB_RETURN_IF_ERROR(CheckRecursive(entry.payload, node.level - 1,
                                         &entry, ext, leaf_entries));
  }
  return Status::OK();
}

Status GistTree::LevelStats(std::vector<GistLevelStats>* out) const {
  return CollectLevelStats(out, [](const Node& node, GistLevelStats* stats) {
    stats->entries += node.entries.size();
    return Status::OK();
  });
}

}  // namespace grtdb
