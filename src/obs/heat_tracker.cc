#include "obs/heat_tracker.h"

#include <algorithm>

namespace grtdb {
namespace obs {

HeatTracker::HeatTracker(size_t max_nodes)
    : max_nodes_(max_nodes == 0 ? 1 : max_nodes) {}

uint32_t HeatTracker::RegisterStore(const std::string& label) {
  std::lock_guard<std::mutex> lock(stores_mu_);
  auto it = store_ids_.find(label);
  if (it != store_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(store_labels_.size());
  store_labels_.push_back(label);
  store_ids_[label] = id;
  return id;
}

double HeatTracker::Decayed(const NodeHeat& entry, uint64_t epoch) {
  double heat = entry.heat;
  // Halve once per elapsed epoch; past ~60 halvings any double is dust.
  for (uint64_t e = entry.epoch; e < epoch && heat > 0.0; ++e) {
    heat *= 0.5;
    if (e - entry.epoch > 64) return 0.0;
  }
  return heat;
}

void HeatTracker::RecordAccess(uint32_t store, uint64_t node,
                               HeatAccess access, uint64_t pin_wait_ns) {
  // The epoch clock ticks on recorded traffic, not wall time: an idle
  // server's heat map stays put, a busy one forgets at a rate proportional
  // to its own throughput.
  const uint64_t op = ops_.fetch_add(1, std::memory_order_relaxed);
  if ((op + 1) % kOpsPerEpoch == 0) {
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  const uint64_t key = KeyFor(store, node);
  Shard& shard = shards_[key % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.nodes.find(key);
  if (it == shard.nodes.end()) {
    // Reserve the slot and check in one step: a separate check and
    // increment lets concurrent admissions in other shards overshoot.
    if (admitted_.fetch_add(1, std::memory_order_relaxed) >= max_nodes_) {
      admitted_.fetch_sub(1, std::memory_order_relaxed);
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    it = shard.nodes.emplace(key, NodeHeat{}).first;
    it->second.epoch = epoch;
  }
  NodeHeat& entry = it->second;
  entry.heat = Decayed(entry, epoch);
  entry.epoch = epoch;
  switch (access) {
    case HeatAccess::kRead:
      ++entry.reads;
      entry.heat += 1.0;
      break;
    case HeatAccess::kWrite:
      ++entry.writes;
      entry.heat += kWriteWeight;
      break;
  }
  entry.pin_wait_ns += pin_wait_ns;
}

std::vector<HotNode> HeatTracker::Snapshot() const {
  const uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  std::vector<std::string> labels;
  {
    std::lock_guard<std::mutex> lock(stores_mu_);
    labels = store_labels_;
  }
  std::vector<HotNode> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.nodes) {
      HotNode row;
      const uint32_t store = static_cast<uint32_t>(key >> 48);
      row.store = store < labels.size() ? labels[store]
                                        : "store_" + std::to_string(store);
      row.node = key & ((1ull << 48) - 1);
      row.heat = Decayed(entry, epoch);
      row.reads = entry.reads;
      row.writes = entry.writes;
      row.pin_wait_ns = entry.pin_wait_ns;
      out.push_back(std::move(row));
    }
  }
  std::sort(out.begin(), out.end(), [](const HotNode& a, const HotNode& b) {
    if (a.heat != b.heat) return a.heat > b.heat;
    if (a.store != b.store) return a.store < b.store;
    return a.node < b.node;
  });
  return out;
}

void HeatTracker::Clear() {
  for (Shard& shard : shards_) {
    // Uncount each shard under its own lock: zeroing the total after the
    // loop would forget nodes admitted into already-cleared shards.
    std::lock_guard<std::mutex> lock(shard.mu);
    admitted_.fetch_sub(shard.nodes.size(), std::memory_order_relaxed);
    shard.nodes.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace grtdb
