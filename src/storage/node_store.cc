#include "storage/node_store.h"

#include <cstring>
#include <utility>

#include "storage/layout.h"
#include "storage/node_cache.h"

namespace grtdb {

// ------------------------------------------------------------- NodeView ---

NodeView& NodeView::operator=(NodeView&& other) noexcept {
  if (this != &other) {
    Reset();
    data_ = std::exchange(other.data_, nullptr);
    owned_ = std::move(other.owned_);
    cache_ = std::exchange(other.cache_, nullptr);
    latch_ = std::move(other.latch_);
  }
  return *this;
}

void NodeView::Reset() {
  latch_ = std::shared_lock<std::shared_mutex>();
  if (cache_ != nullptr) {
    cache_->EndView();
    cache_ = nullptr;
  }
  owned_.reset();
  data_ = nullptr;
}

void NodeView::AdoptOwned(std::unique_ptr<uint8_t[]> owned) {
  Reset();
  data_ = owned.get();
  owned_ = std::move(owned);
}

void NodeView::AdoptLatched(NodeCache* cache, const uint8_t* data,
                            std::shared_lock<std::shared_mutex> latch) {
  Reset();
  data_ = data;
  cache_ = cache;
  latch_ = std::move(latch);
}

Status NodeStore::ViewNode(NodeId id, NodeView* view) {
  auto buf = std::make_unique<uint8_t[]>(kPageSize);
  GRTDB_RETURN_IF_ERROR(ReadNode(id, buf.get()));
  view->AdoptOwned(std::move(buf));
  return Status::OK();
}

// ---------------------------------------------------------------- Pager ---

Status PagerNodeStore::AllocateNode(NodeId* id) {
  if (!free_list_.empty()) {
    *id = free_list_.back();
    free_list_.pop_back();
    // Zero the recycled slot: the AllocateNode contract promises a zeroed
    // page, but the previous occupant's bytes are still in the frame.
    uint8_t* data;
    Status s = pager_->FetchPage(static_cast<PageId>(*id), &data);
    if (!s.ok()) {
      free_list_.push_back(static_cast<PageId>(*id));
      return s;
    }
    std::memset(data, 0, kPageSize);
    pager_->MarkDirty(static_cast<PageId>(*id));
    pager_->Unpin(static_cast<PageId>(*id));
    return Status::OK();
  }
  PageId page;
  uint8_t* data;
  GRTDB_RETURN_IF_ERROR(pager_->NewPage(&page, &data));
  pager_->Unpin(page);
  *id = page;
  return Status::OK();
}

Status PagerNodeStore::FreeNode(NodeId id) {
  free_list_.push_back(static_cast<PageId>(id));
  return Status::OK();
}

Status PagerNodeStore::ReadNode(NodeId id, uint8_t* out) {
  ++stats_.node_reads;
  uint8_t* data;
  GRTDB_RETURN_IF_ERROR(pager_->FetchPage(static_cast<PageId>(id), &data));
  std::memcpy(out, data, kPageSize);
  pager_->Unpin(static_cast<PageId>(id));
  return Status::OK();
}

Status PagerNodeStore::WriteNode(NodeId id, const uint8_t* data_in) {
  ++stats_.node_writes;
  uint8_t* data;
  GRTDB_RETURN_IF_ERROR(pager_->FetchPage(static_cast<PageId>(id), &data));
  std::memcpy(data, data_in, kPageSize);
  pager_->MarkDirty(static_cast<PageId>(id));
  pager_->Unpin(static_cast<PageId>(id));
  return Status::OK();
}

// ------------------------------------------------------------- SingleLo ---

StatusOr<std::unique_ptr<SingleLoNodeStore>> SingleLoNodeStore::Open(
    Sbspace* sbspace, LoHandle handle) {
  bool fresh = !handle.valid();
  if (fresh) {
    GRTDB_RETURN_IF_ERROR(sbspace->CreateLo(&handle));
  }
  std::unique_ptr<SingleLoNodeStore> store(
      new SingleLoNodeStore(sbspace, handle));
  if (fresh) {
    GRTDB_RETURN_IF_ERROR(store->StoreHeader());
  } else {
    GRTDB_RETURN_IF_ERROR(store->LoadHeader());
  }
  return store;
}

Status SingleLoNodeStore::LoadHeader() {
  uint8_t buf[16];
  GRTDB_RETURN_IF_ERROR(sbspace_->LoRead(handle_, 0, sizeof(buf), buf));
  node_count_ = LoadU64(buf);
  free_head_ = LoadU64(buf + 8);
  return Status::OK();
}

Status SingleLoNodeStore::StoreHeader() {
  uint8_t buf[16];
  StoreU64(buf, node_count_);
  StoreU64(buf + 8, free_head_);
  return sbspace_->LoWrite(handle_, 0, sizeof(buf), buf);
}

Status SingleLoNodeStore::AllocateNode(NodeId* id) {
  if (free_head_ != kInvalidNodeId) {
    *id = free_head_;
    uint8_t next_buf[8];
    GRTDB_RETURN_IF_ERROR(
        sbspace_->LoRead(handle_, free_head_ * kPageSize, 8, next_buf));
    free_head_ = LoadU64(next_buf);
    // Zero the recycled slot; FreeNode only overwrote the first 8 bytes
    // with the next pointer, the rest still holds the previous occupant.
    uint8_t zeros[kPageSize];
    std::memset(zeros, 0, sizeof(zeros));
    GRTDB_RETURN_IF_ERROR(
        sbspace_->LoWrite(handle_, *id * kPageSize, kPageSize, zeros));
    return StoreHeader();
  }
  *id = node_count_;
  ++node_count_;
  // Materialize the slot so later reads of an unwritten node see zeroes.
  uint8_t zeros[kPageSize];
  std::memset(zeros, 0, sizeof(zeros));
  GRTDB_RETURN_IF_ERROR(
      sbspace_->LoWrite(handle_, *id * kPageSize, kPageSize, zeros));
  return StoreHeader();
}

Status SingleLoNodeStore::FreeNode(NodeId id) {
  uint8_t next_buf[8];
  StoreU64(next_buf, free_head_);
  GRTDB_RETURN_IF_ERROR(
      sbspace_->LoWrite(handle_, id * kPageSize, 8, next_buf));
  free_head_ = id;
  return StoreHeader();
}

Status SingleLoNodeStore::ReadNode(NodeId id, uint8_t* out) {
  ++stats_.node_reads;
  return sbspace_->LoRead(handle_, id * kPageSize, kPageSize, out);
}

uint64_t SingleLoNodeStore::FreeListLength() {
  // The free list lives on the LO itself (each freed slot's first 8 bytes
  // point at the next). The node-count cap makes a corrupt cycle terminate.
  uint64_t length = 0;
  NodeId cursor = free_head_;
  while (cursor != kInvalidNodeId && length < node_count_) {
    ++length;
    uint8_t next_buf[8];
    if (!sbspace_->LoRead(handle_, cursor * kPageSize, 8, next_buf).ok()) {
      break;
    }
    cursor = LoadU64(next_buf);
  }
  return length;
}

Status SingleLoNodeStore::WriteNode(NodeId id, const uint8_t* data) {
  ++stats_.node_writes;
  return sbspace_->LoWrite(handle_, id * kPageSize, kPageSize, data);
}

// ---------------------------------------------------------- ClusteredLo ---

Status ClusteredLoNodeStore::HandleForCluster(uint64_t cluster, bool create,
                                              LoHandle* handle) {
  if (cluster < cluster_handles_.size() &&
      cluster_handles_[cluster].valid()) {
    *handle = cluster_handles_[cluster];
    return Status::OK();
  }
  if (!create) {
    return Status::NotFound("cluster " + std::to_string(cluster) +
                            " has no large object");
  }
  if (cluster >= cluster_handles_.size()) {
    cluster_handles_.resize(cluster + 1);
  }
  GRTDB_RETURN_IF_ERROR(sbspace_->CreateLo(&cluster_handles_[cluster]));
  // Materialize the whole cluster in one ranged write so first touch is
  // O(1) I/O calls, and charge the creation as a single LO open.
  ++stats_.lo_opens;
  std::vector<uint8_t> zeros(nodes_per_lo_ * kPageSize, 0);
  GRTDB_RETURN_IF_ERROR(sbspace_->LoWrite(cluster_handles_[cluster], 0,
                                          zeros.size(), zeros.data()));
  *handle = cluster_handles_[cluster];
  return Status::OK();
}

Status ClusteredLoNodeStore::AllocateNode(NodeId* id) {
  if (!free_list_.empty()) {
    *id = free_list_.back();
    free_list_.pop_back();
    // Zero the recycled slot per the AllocateNode contract.
    LoHandle handle;
    GRTDB_RETURN_IF_ERROR(
        HandleForCluster(*id / nodes_per_lo_, /*create=*/false, &handle));
    uint8_t zeros[kPageSize];
    std::memset(zeros, 0, sizeof(zeros));
    return sbspace_->LoWrite(handle, (*id % nodes_per_lo_) * kPageSize,
                             kPageSize, zeros);
  }
  *id = node_count_;
  ++node_count_;
  LoHandle handle;
  return HandleForCluster(*id / nodes_per_lo_, /*create=*/true, &handle);
}

Status ClusteredLoNodeStore::FreeNode(NodeId id) {
  free_list_.push_back(id);
  return Status::OK();
}

uint64_t ClusteredLoNodeStore::LoOfNode(NodeId id) const {
  const uint64_t cluster = id / nodes_per_lo_;
  if (cluster < cluster_handles_.size()) {
    return cluster_handles_[cluster].id;
  }
  return 0;
}

Status ClusteredLoNodeStore::ReadNode(NodeId id, uint8_t* out) {
  ++stats_.node_reads;
  ++stats_.lo_opens;
  LoHandle handle;
  GRTDB_RETURN_IF_ERROR(
      HandleForCluster(id / nodes_per_lo_, /*create=*/false, &handle));
  return sbspace_->LoRead(handle, (id % nodes_per_lo_) * kPageSize,
                          kPageSize, out);
}

Status ClusteredLoNodeStore::WriteNode(NodeId id, const uint8_t* data) {
  ++stats_.node_writes;
  ++stats_.lo_opens;
  LoHandle handle;
  GRTDB_RETURN_IF_ERROR(
      HandleForCluster(id / nodes_per_lo_, /*create=*/true, &handle));
  return sbspace_->LoWrite(handle, (id % nodes_per_lo_) * kPageSize,
                           kPageSize, data);
}

// --------------------------------------------------------- ExternalFile ---

StatusOr<std::unique_ptr<ExternalFileNodeStore>> ExternalFileNodeStore::Open(
    const std::string& path) {
  auto file_or = FileSpace::Open(path);
  if (!file_or.ok()) return file_or.status();
  return std::unique_ptr<ExternalFileNodeStore>(
      new ExternalFileNodeStore(std::move(file_or).value()));
}

Status ExternalFileNodeStore::AllocateNode(NodeId* id) {
  if (!free_list_.empty()) {
    *id = free_list_.back();
    free_list_.pop_back();
    // Zero the recycled slot per the AllocateNode contract.
    uint8_t zeros[kPageSize];
    std::memset(zeros, 0, sizeof(zeros));
    Status s = file_->WritePage(static_cast<PageId>(*id), zeros);
    if (!s.ok()) free_list_.push_back(*id);
    return s;
  }
  PageId page;
  GRTDB_RETURN_IF_ERROR(file_->Extend(&page));
  *id = page;
  return Status::OK();
}

Status ExternalFileNodeStore::FreeNode(NodeId id) {
  free_list_.push_back(id);
  return Status::OK();
}

Status ExternalFileNodeStore::ReadNode(NodeId id, uint8_t* out) {
  ++stats_.node_reads;
  return file_->ReadPage(static_cast<PageId>(id), out);
}

Status ExternalFileNodeStore::WriteNode(NodeId id, const uint8_t* data) {
  ++stats_.node_writes;
  return file_->WritePage(static_cast<PageId>(id), data);
}

Status ExternalFileNodeStore::Flush() { return file_->Sync(); }

}  // namespace grtdb
