#ifndef GRTDB_STORAGE_NODE_STORE_H_
#define GRTDB_STORAGE_NODE_STORE_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/pager.h"
#include "storage/sbspace.h"

namespace grtdb {

using NodeId = uint64_t;
inline constexpr NodeId kInvalidNodeId = ~0ull;

class NodeCache;

// Per-store access statistics: one read/write = one node (page) touched.
// The cache_* fields are only populated by NodeCache decorators.
struct NodeStoreStats {
  uint64_t node_reads = 0;
  uint64_t node_writes = 0;
  uint64_t lo_opens = 0;  // large-object opens (per-LO layouts only)
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_write_backs = 0;

  double cache_hit_rate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }
};

// A read-only view of one node image. Either owns a private copy (the
// default ViewNode path) or points into a NodeCache frame, in which case
// the view holds the cache's read latch, which keeps the frame mapped, for
// its lifetime: zero-copy for tree search, but callers must drop the view
// before writing to the same store.
class NodeView {
 public:
  NodeView() = default;
  ~NodeView() { Reset(); }
  NodeView(NodeView&& other) noexcept { *this = std::move(other); }
  NodeView& operator=(NodeView&& other) noexcept;
  NodeView(const NodeView&) = delete;
  NodeView& operator=(const NodeView&) = delete;

  const uint8_t* data() const { return data_; }
  bool valid() const { return data_ != nullptr; }
  void Reset();

  // Takes ownership of a kPageSize heap copy (default / non-cached path).
  void AdoptOwned(std::unique_ptr<uint8_t[]> owned);
  // Adopts a cache frame's bytes; `latch`, the cache's shared latch, keeps
  // the frame mapped while the view is live. Called by NodeCache.
  void AdoptLatched(NodeCache* cache, const uint8_t* data,
                    std::shared_lock<std::shared_mutex> latch);

 private:
  const uint8_t* data_ = nullptr;
  std::unique_ptr<uint8_t[]> owned_;
  NodeCache* cache_ = nullptr;
  std::shared_lock<std::shared_mutex> latch_;
};

// Where a tree-based access method keeps its nodes. The paper (§5.3)
// discusses the DataBlade developer's options: smart large objects in an
// sbspace (one LO for the whole index, one LO per node, or LOs holding
// subtrees) or a regular operating-system file. Each option is an
// implementation of this interface so the same GR-tree/R*-tree code runs on
// all of them and bench T8 can compare.
class NodeStore {
 public:
  virtual ~NodeStore() = default;

  // Allocates a node slot (kPageSize bytes, zeroed).
  virtual Status AllocateNode(NodeId* id) = 0;
  virtual Status FreeNode(NodeId id) = 0;

  // Reads/writes the full kPageSize image of a node.
  virtual Status ReadNode(NodeId id, uint8_t* out) = 0;
  virtual Status WriteNode(NodeId id, const uint8_t* data) = 0;

  // Read-only view of a node image. The default copies through ReadNode
  // (so decorators keep their locking/buffering semantics); NodeCache
  // overrides it with a zero-copy view of a latched frame.
  virtual Status ViewNode(NodeId id, NodeView* view);

  // The large object the node lives in, or 0 when the layout is not
  // LO-based. Lock decorators use this to lock at LO granularity, exactly
  // as Informix locks LOs on open.
  virtual uint64_t LoOfNode(NodeId id) const = 0;

  virtual Status Flush() = 0;

  // Freed node slots awaiting reuse — structural telemetry for am_stats.
  // The default covers layouts without an explicit free list.
  virtual uint64_t FreeListLength() { return 0; }

  virtual const NodeStoreStats& stats() const { return stats_; }
  virtual void ResetStats() { stats_ = NodeStoreStats(); }

 protected:
  NodeStoreStats stats_;
};

// Nodes as raw pages of a Pager — the dbspace layout Informix reserves for
// its built-in access methods (no public interface; we use it for the
// standalone R*-tree/GR-tree cores and as the T8 reference point).
class PagerNodeStore final : public NodeStore {
 public:
  explicit PagerNodeStore(Pager* pager) : pager_(pager) {}

  Status AllocateNode(NodeId* id) override;
  Status FreeNode(NodeId id) override;
  Status ReadNode(NodeId id, uint8_t* out) override;
  Status WriteNode(NodeId id, const uint8_t* data) override;
  uint64_t LoOfNode(NodeId) const override { return 0; }
  Status Flush() override { return pager_->FlushAll(); }
  uint64_t FreeListLength() override { return free_list_.size(); }

 private:
  Pager* pager_;
  std::vector<PageId> free_list_;
};

// The whole index in a single smart large object (the design the paper's
// GR-tree DataBlade chose): node `i` occupies bytes [i*kPageSize,
// (i+1)*kPageSize). Slot 0 holds the store's own freelist header.
class SingleLoNodeStore final : public NodeStore {
 public:
  // Uses `handle` if valid, else creates a fresh LO (returned via handle()).
  static StatusOr<std::unique_ptr<SingleLoNodeStore>> Open(Sbspace* sbspace,
                                                           LoHandle handle);

  Status AllocateNode(NodeId* id) override;
  Status FreeNode(NodeId id) override;
  Status ReadNode(NodeId id, uint8_t* out) override;
  Status WriteNode(NodeId id, const uint8_t* data) override;
  uint64_t LoOfNode(NodeId) const override { return handle_.id; }
  Status Flush() override { return sbspace_->pager().FlushAll(); }
  // Walks the on-LO free chain (capped at node_count_ against cycles).
  uint64_t FreeListLength() override;

  LoHandle handle() const { return handle_; }

 private:
  SingleLoNodeStore(Sbspace* sbspace, LoHandle handle)
      : sbspace_(sbspace), handle_(handle) {}

  Status LoadHeader();
  Status StoreHeader();

  Sbspace* sbspace_;
  LoHandle handle_;
  uint64_t node_count_ = 1;  // slot 0 = header
  NodeId free_head_ = kInvalidNodeId;
};

// One LO per group of `nodes_per_lo` nodes; nodes_per_lo == 1 is the
// one-LO-per-node layout whose drawbacks §5.3 calls out (large handles in
// parent entries, open/close cost), larger values model the suggested
// subtree-per-LO middle ground. Every node access opens its LO (counted in
// stats().lo_opens).
class ClusteredLoNodeStore final : public NodeStore {
 public:
  ClusteredLoNodeStore(Sbspace* sbspace, uint64_t nodes_per_lo)
      : sbspace_(sbspace), nodes_per_lo_(nodes_per_lo) {}

  Status AllocateNode(NodeId* id) override;
  Status FreeNode(NodeId id) override;
  Status ReadNode(NodeId id, uint8_t* out) override;
  Status WriteNode(NodeId id, const uint8_t* data) override;
  uint64_t LoOfNode(NodeId id) const override;
  Status Flush() override { return sbspace_->pager().FlushAll(); }
  uint64_t FreeListLength() override { return free_list_.size(); }

  // Bytes of LO-handle overhead a parent entry would carry in this layout.
  size_t handle_overhead_per_entry() const {
    return nodes_per_lo_ == 1 ? LoHandle::kSerializedSize : 0;
  }

  // The cluster map, for freeing the LOs and for reopening a store over
  // existing LOs (the free list is rebuilt lazily and may leak slots
  // across reopens, which only wastes space).
  const std::vector<LoHandle>& cluster_handles() const {
    return cluster_handles_;
  }
  uint64_t node_count() const { return node_count_; }
  void RestoreState(std::vector<LoHandle> handles, uint64_t node_count) {
    cluster_handles_ = std::move(handles);
    node_count_ = node_count;
  }

 private:
  Status HandleForCluster(uint64_t cluster, bool create, LoHandle* handle);

  Sbspace* sbspace_;
  uint64_t nodes_per_lo_;
  std::vector<LoHandle> cluster_handles_;
  std::vector<NodeId> free_list_;
  uint64_t node_count_ = 0;
};

// Nodes in a regular operating-system file — the storage option where the
// developer must provide *all* concurrency control and recovery (§5.3).
class ExternalFileNodeStore final : public NodeStore {
 public:
  static StatusOr<std::unique_ptr<ExternalFileNodeStore>> Open(
      const std::string& path);

  Status AllocateNode(NodeId* id) override;
  Status FreeNode(NodeId id) override;
  Status ReadNode(NodeId id, uint8_t* out) override;
  Status WriteNode(NodeId id, const uint8_t* data) override;
  uint64_t LoOfNode(NodeId) const override { return 0; }
  Status Flush() override;
  uint64_t FreeListLength() override { return free_list_.size(); }

 private:
  explicit ExternalFileNodeStore(std::unique_ptr<FileSpace> file)
      : file_(std::move(file)) {}

  std::unique_ptr<FileSpace> file_;
  std::vector<NodeId> free_list_;
};

}  // namespace grtdb

#endif  // GRTDB_STORAGE_NODE_STORE_H_
