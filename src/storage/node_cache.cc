#include "storage/node_cache.h"

#include <cstring>
#include <mutex>

#include "obs/fast_clock.h"
#include "obs/flight_recorder.h"
#include "obs/query_profile.h"
#include "obs/span_tracer.h"
#include "txn/witness.h"

namespace grtdb {

namespace {
// One witness class for the frame-table latch, shared and unique modes
// alike: ordering against the lock manager and the pager is what matters.
[[maybe_unused]] witness::LockClass& CacheLatchClass() {
  static witness::LockClass cls("cache.latch");
  return cls;
}
}  // namespace

NodeCache::NodeCache(NodeStore* inner, size_t capacity)
    : inner_(inner), frames_(capacity == 0 ? 1 : capacity) {}

NodeCache::~NodeCache() {
  // Best-effort write-back so a cache dropped without Flush() does not
  // strand dirty pages (blades still Flush explicitly to see the status).
  GRTDB_WITNESS_SCOPE(CacheLatchClass());
  std::unique_lock lock(latch_);
  for (Frame& frame : frames_) {
    if (frame.node_id != kInvalidNodeId && frame.dirty) {
      Status s = WriteBackLocked(frame);
      (void)s;
    }
  }
}

void NodeCache::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_reads_ = m_writes_ = m_hits_ = m_misses_ = m_evictions_ =
        m_write_backs_ = nullptr;
    return;
  }
  m_reads_ = metrics->GetCounter("cache.reads");
  m_writes_ = metrics->GetCounter("cache.writes");
  m_hits_ = metrics->GetCounter("cache.hits");
  m_misses_ = metrics->GetCounter("cache.misses");
  m_evictions_ = metrics->GetCounter("cache.evictions");
  m_write_backs_ = metrics->GetCounter("cache.write_backs");
}

void NodeCache::set_heat(obs::HeatTracker* heat, const std::string& label) {
  heat_ = heat;
  heat_store_ = heat != nullptr ? heat->RegisterStore(label) : 0;
}

Status NodeCache::WriteBackLocked(Frame& frame) {
  GRTDB_RETURN_IF_ERROR(inner_->WriteNode(frame.node_id, frame.data.get()));
  frame.dirty = false;
  write_backs_.Add();
  if (m_write_backs_ != nullptr) m_write_backs_->Add();
  return Status::OK();
}

Status NodeCache::GrabFrameLocked(size_t* frame) {
  if (first_unused_ < frames_.size()) {
    // Frames get their page on first use, in order: a cache larger than
    // its working set never allocates the frames it does not need.
    frames_[first_unused_].data = std::make_unique<uint8_t[]>(kPageSize);
    *frame = first_unused_++;
    return Status::OK();
  }
  size_t victim = frames_.size();
  uint64_t victim_stamp = ~0ull;
  for (size_t i = 0; i < frames_.size(); ++i) {
    if (frames_[i].pins.load(std::memory_order_acquire) != 0) continue;
    if (frames_[i].node_id == kInvalidNodeId) {
      victim = i;
      break;
    }
    const uint64_t stamp =
        frames_[i].lru_stamp.load(std::memory_order_relaxed);
    if (stamp < victim_stamp) {
      victim = i;
      victim_stamp = stamp;
    }
  }
  if (victim == frames_.size()) {
    return Status::Internal("node cache: all frames pinned");
  }
  Frame& f = frames_[victim];
  if (f.node_id != kInvalidNodeId) {
    const bool was_dirty = f.dirty;
    if (was_dirty) {
      GRTDB_RETURN_IF_ERROR(WriteBackLocked(f));
    }
    if (trace_ != nullptr) {
      trace_->Tprintf("cache", 2, "evict node %llu%s",
                      static_cast<unsigned long long>(f.node_id),
                      was_dirty ? " (dirty)" : "");
    }
    const NodeId evicted = f.node_id;
    node_table_.erase(f.node_id);
    f.node_id = kInvalidNodeId;
    evictions_.Add();
    if (m_evictions_ != nullptr) m_evictions_->Add();
    obs::FlightRecorder::Global().RecordEvent(obs::FlightEvent::kCacheEviction,
                                              evicted, was_dirty ? 1 : 0);
  }
  *frame = victim;
  return Status::OK();
}

Status NodeCache::PinFrame(NodeId id, size_t* frame,
                           std::shared_lock<std::shared_mutex>* latch,
                           bool* hit, uint64_t* pin_wait_ns) {
  // The latch is held until EndView() (possibly via a NodeView), which
  // balances this witness record; error returns below balance it
  // immediately. The success paths deliberately transfer the held record
  // to the caller.
  GRTDB_WITNESS_ACQUIRE(CacheLatchClass());  // NOLINT(grtdb-resource-balance)
  *hit = true;
  *pin_wait_ns = 0;
  const bool heat_on = heat_ != nullptr && heat_->enabled();
  {
    std::shared_lock shared(latch_, std::defer_lock);
    if (heat_on && !shared.try_lock()) {
      // Only a blocked acquisition pays for clock reads, and only while
      // the heat gate is armed — the dormant path never reaches here.
      const uint64_t blocked_from = obs::Ticks();
      shared.lock();
      *pin_wait_ns += obs::TicksToNs(obs::Ticks() - blocked_from);
    } else if (!heat_on) {
      shared.lock();
    }
    auto it = node_table_.find(id);
    if (it != node_table_.end()) {
      // A hit: the shared latch keeps the frame mapped, so no pin.
      frames_[it->second].lru_stamp.store(obs::Ticks(),
                                          std::memory_order_relaxed);
      hits_.Add();
      if (m_hits_ != nullptr) m_hits_->Add();
      *frame = it->second;
      *latch = std::move(shared);
      return Status::OK();
    }
  }
  {
    std::unique_lock exclusive(latch_, std::defer_lock);
    if (heat_on && !exclusive.try_lock()) {
      const uint64_t blocked_from = obs::Ticks();
      exclusive.lock();
      *pin_wait_ns += obs::TicksToNs(obs::Ticks() - blocked_from);
    } else if (!heat_on) {
      exclusive.lock();
    }
    auto it = node_table_.find(id);
    if (it == node_table_.end()) {
      size_t slot;
      Status grab = GrabFrameLocked(&slot);
      if (!grab.ok()) {
        GRTDB_WITNESS_RELEASE(CacheLatchClass());
        return grab;
      }
      Frame& f = frames_[slot];
      Status read;
      {
        // The miss is the interesting part of a traced read: the time the
        // inner store (pager I/O) took to fill the frame.
        obs::SpanScope io_span(obs::SpanName::kNodeIo, id);
        read = inner_->ReadNode(id, f.data.get());
      }
      if (!read.ok()) {
        GRTDB_WITNESS_RELEASE(CacheLatchClass());
        return read;
      }
      f.node_id = id;
      f.dirty = false;
      node_table_[id] = slot;
      misses_.Add();
      if (m_misses_ != nullptr) m_misses_->Add();
      *hit = false;
      it = node_table_.find(id);
    } else {
      hits_.Add();
      if (m_hits_ != nullptr) m_hits_->Add();
    }
    Frame& f = frames_[it->second];
    f.pins.fetch_add(1, std::memory_order_acq_rel);
    f.lru_stamp.store(obs::Ticks(), std::memory_order_relaxed);
    *frame = it->second;
  }
  // Downgrade: the pin keeps the frame (and its mapping's data buffer)
  // alive across the latch gap, so re-acquiring shared is safe; once it
  // is held, the latch does.
  *latch = std::shared_lock(latch_);
  frames_[*frame].pins.fetch_sub(1, std::memory_order_acq_rel);
  return Status::OK();
}

void NodeCache::EndView() { GRTDB_WITNESS_RELEASE(CacheLatchClass()); }

Status NodeCache::ReadNode(NodeId id, uint8_t* out) {
  reads_.Add();
  if (m_reads_ != nullptr) m_reads_->Add();
  size_t frame;
  std::shared_lock<std::shared_mutex> latch;
  bool hit;
  uint64_t pin_wait_ns;
  GRTDB_RETURN_IF_ERROR(PinFrame(id, &frame, &latch, &hit, &pin_wait_ns));
  if (obs::QueryProfile* profile = obs::CurrentProfile()) {
    ++profile->node_reads;
    if (hit) ++profile->cache_hits;
  }
  if (heat_ != nullptr && heat_->enabled()) {
    heat_->RecordAccess(heat_store_, id, obs::HeatAccess::kRead,
                        pin_wait_ns);
  }
  std::memcpy(out, frames_[frame].data.get(), kPageSize);
  latch.unlock();
  EndView();
  return Status::OK();
}

Status NodeCache::ViewNode(NodeId id, NodeView* view) {
  reads_.Add();
  if (m_reads_ != nullptr) m_reads_->Add();
  size_t frame;
  std::shared_lock<std::shared_mutex> latch;
  bool hit;
  uint64_t pin_wait_ns;
  GRTDB_RETURN_IF_ERROR(PinFrame(id, &frame, &latch, &hit, &pin_wait_ns));
  if (obs::QueryProfile* profile = obs::CurrentProfile()) {
    ++profile->node_reads;
    if (hit) ++profile->cache_hits;
  }
  if (heat_ != nullptr && heat_->enabled()) {
    heat_->RecordAccess(heat_store_, id, obs::HeatAccess::kRead,
                        pin_wait_ns);
  }
  view->AdoptLatched(this, frames_[frame].data.get(), std::move(latch));
  return Status::OK();
}

Status NodeCache::FrameForWriteLocked(NodeId id, size_t* frame) {
  auto it = node_table_.find(id);
  if (it != node_table_.end()) {
    hits_.Add();
    if (m_hits_ != nullptr) m_hits_->Add();
    *frame = it->second;
    return Status::OK();
  }
  // Write-allocate without reading the inner store: WriteNode replaces the
  // whole kPageSize image anyway.
  GRTDB_RETURN_IF_ERROR(GrabFrameLocked(frame));
  Frame& f = frames_[*frame];
  f.node_id = id;
  f.dirty = false;
  node_table_[id] = *frame;
  misses_.Add();
  if (m_misses_ != nullptr) m_misses_->Add();
  return Status::OK();
}

Status NodeCache::WriteNode(NodeId id, const uint8_t* data) {
  writes_.Add();
  if (m_writes_ != nullptr) m_writes_->Add();
  GRTDB_WITNESS_SCOPE(CacheLatchClass());
  const bool heat_on = heat_ != nullptr && heat_->enabled();
  uint64_t pin_wait_ns = 0;
  std::unique_lock lock(latch_, std::defer_lock);
  if (heat_on && !lock.try_lock()) {
    const uint64_t blocked_from = obs::Ticks();
    lock.lock();
    pin_wait_ns = obs::TicksToNs(obs::Ticks() - blocked_from);
  } else if (!heat_on) {
    lock.lock();
  }
  if (heat_on) {
    heat_->RecordAccess(heat_store_, id, obs::HeatAccess::kWrite,
                        pin_wait_ns);
  }
  size_t frame;
  GRTDB_RETURN_IF_ERROR(FrameForWriteLocked(id, &frame));
  Frame& f = frames_[frame];
  std::memcpy(f.data.get(), data, kPageSize);
  f.dirty = true;
  f.lru_stamp.store(obs::Ticks(), std::memory_order_relaxed);
  return Status::OK();
}

Status NodeCache::AllocateNode(NodeId* id) {
  GRTDB_WITNESS_SCOPE(CacheLatchClass());
  std::unique_lock lock(latch_);
  return inner_->AllocateNode(id);
}

Status NodeCache::FreeNode(NodeId id) {
  GRTDB_WITNESS_SCOPE(CacheLatchClass());
  std::unique_lock lock(latch_);
  auto it = node_table_.find(id);
  if (it != node_table_.end()) {
    // Drop the frame without write-back: the inner FreeNode may repurpose
    // the slot (e.g. SingleLo scribbles its free-list next pointer), and a
    // later dirty write-back of the dead image would corrupt it.
    Frame& f = frames_[it->second];
    f.node_id = kInvalidNodeId;
    f.dirty = false;
    node_table_.erase(it);
  }
  return inner_->FreeNode(id);
}

Status NodeCache::Flush() {
  GRTDB_WITNESS_SCOPE(CacheLatchClass());
  std::unique_lock lock(latch_);
  uint64_t flushed = 0;
  for (Frame& frame : frames_) {
    if (frame.node_id != kInvalidNodeId && frame.dirty) {
      GRTDB_RETURN_IF_ERROR(WriteBackLocked(frame));
      ++flushed;
    }
  }
  if (trace_ != nullptr && trace_->Enabled("cache", 1)) {
    trace_->Tprintf("cache", 1,
                    "flush: wrote back %llu dirty frame(s), %zu resident",
                    static_cast<unsigned long long>(flushed),
                    node_table_.size());
  }
  return inner_->Flush();
}

const NodeStoreStats& NodeCache::stats() const {
  std::lock_guard guard(snapshot_mu_);
  snapshot_.node_reads = reads_.value();
  snapshot_.node_writes = writes_.value();
  snapshot_.lo_opens = 0;
  snapshot_.cache_hits = hits_.value();
  snapshot_.cache_misses = misses_.value();
  snapshot_.cache_evictions = evictions_.value();
  snapshot_.cache_write_backs = write_backs_.value();
  return snapshot_;
}

void NodeCache::ResetStats() {
  reads_.Reset();
  writes_.Reset();
  hits_.Reset();
  misses_.Reset();
  evictions_.Reset();
  write_backs_.Reset();
}

}  // namespace grtdb
