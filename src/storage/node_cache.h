#ifndef GRTDB_STORAGE_NODE_CACHE_H_
#define GRTDB_STORAGE_NODE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "blade/trace.h"
#include "common/status.h"
#include "obs/heat_tracker.h"
#include "obs/metrics.h"
#include "storage/node_store.h"

namespace grtdb {

// A buffer-managed node cache decorating any NodeStore, in the GiST-style
// layered spirit: placed below the tree, every §5.3 storage layout gets the
// same LRU frame pool, so repeated traversals stop paying an LoRead or
// pager copy per node touch. Write policy is write-back: WriteNode dirties
// the frame and the page reaches the inner store on eviction, Flush(), or
// destruction. Reads can be zero-copy via ViewNode, which returns a pinned
// frame guarded by the cache's reader latch.
//
// Concurrency: a reader-writer latch protects the frame table. Lookups and
// frame reads take it shared; anything that loads, evicts, writes, or
// remaps frames takes it exclusive. Apart from the latch, a hit writes
// only its frame's LRU stamp, the reading thread's clock (obs::Ticks),
// which nothing but eviction under the exclusive latch reads, and the
// reading thread's own stripes of its counters (obs::Counter). It pins
// nothing: the shared latch it holds already keeps every frame mapped.
// Only a miss pins its frame, across the downgrade from the exclusive
// latch to the shared one. A NodeView from ViewNode holds the
// shared latch for its lifetime, so a thread must drop its views before
// calling a mutating method on the same cache — the pin discipline
// DESIGN.md documents.
class NodeCache final : public NodeStore {
 public:
  // `inner` must outlive the cache. `capacity` is the frame count (>=1);
  // each frame's page is allocated when the frame is first used.
  NodeCache(NodeStore* inner, size_t capacity);
  ~NodeCache() override;

  Status AllocateNode(NodeId* id) override;
  Status FreeNode(NodeId id) override;
  Status ReadNode(NodeId id, uint8_t* out) override;
  Status WriteNode(NodeId id, const uint8_t* data) override;
  Status ViewNode(NodeId id, NodeView* view) override;
  uint64_t LoOfNode(NodeId id) const override { return inner_->LoOfNode(id); }
  uint64_t FreeListLength() override { return inner_->FreeListLength(); }

  // Writes back every dirty frame, then flushes the inner store. Frames
  // stay resident (a flush is not an invalidation).
  Status Flush() override;

  // Logical traffic seen by the cache plus hit/miss/eviction/write-back
  // counters; physical I/O remains on the inner store's stats.
  const NodeStoreStats& stats() const override;
  void ResetStats() override;

  size_t capacity() const { return frames_.size(); }
  NodeStore* inner() const { return inner_; }
  void set_trace(TraceFacility* trace) { trace_ = trace; }

  // Mirrors the private counters into server-wide cache.* metrics; the
  // counter handles are resolved once here, never per access. Multiple
  // caches on the same registry aggregate.
  void set_metrics(obs::MetricsRegistry* metrics);

  // Wires per-node heat accounting: every ReadNode/ViewNode/WriteNode on
  // this cache reports to `heat` under `label` (blades pass the index
  // name, so sys_hot_nodes joins sys_index_stats). While the tracker's
  // gate is off the per-access cost is one relaxed load and a branch.
  void set_heat(obs::HeatTracker* heat, const std::string& label);

  // Called by NodeView::Reset when a view is dropped, after its latch is
  // released. Touches no frame.
  void EndView();

 private:
  struct Frame {
    // Held only across a miss's latch downgrade; eviction skips a pinned
    // frame.
    std::atomic<uint32_t> pins{0};
    // obs::Ticks() at the last access; eviction takes the oldest.
    std::atomic<uint64_t> lru_stamp{0};
    NodeId node_id = kInvalidNodeId;
    bool dirty = false;
    std::unique_ptr<uint8_t[]> data;
  };

  // Returns with `latch` holding latch_ shared, which keeps the frame
  // mapped until it is released; `*hit` reports whether the node was
  // already resident. When heat tracking is armed, `*pin_wait_ns` reports
  // the time this call spent blocked on the frame-table latch (0 when it
  // was free or heat is off — the clock is only read after a failed
  // try_lock).
  Status PinFrame(NodeId id, size_t* frame,
                  std::shared_lock<std::shared_mutex>* latch, bool* hit,
                  uint64_t* pin_wait_ns);
  // Both require latch_ held exclusive.
  Status GrabFrameLocked(size_t* frame);
  Status FrameForWriteLocked(NodeId id, size_t* frame);
  Status WriteBackLocked(Frame& frame);

  NodeStore* inner_;
  TraceFacility* trace_ = nullptr;
  obs::HeatTracker* heat_ = nullptr;
  uint32_t heat_store_ = 0;

  // Cached registry handles (null when no registry is wired).
  obs::Counter* m_reads_ = nullptr;
  obs::Counter* m_writes_ = nullptr;
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Counter* m_write_backs_ = nullptr;

  mutable std::shared_mutex latch_;
  std::vector<Frame> frames_;
  // Frames at and past this index have never held a node (no page yet).
  size_t first_unused_ = 0;
  std::unordered_map<NodeId, size_t> node_table_;

  obs::Counter reads_;
  obs::Counter writes_;
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
  obs::Counter write_backs_;

  mutable std::mutex snapshot_mu_;
  mutable NodeStoreStats snapshot_;
};

}  // namespace grtdb

#endif  // GRTDB_STORAGE_NODE_CACHE_H_
