#include "storage/wal_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/flight_recorder.h"
#include "obs/span_tracer.h"
#include "storage/layout.h"
#include "txn/witness.h"

namespace grtdb {

namespace {

[[maybe_unused]] grtdb::witness::LockClass& CommitMutexClass() {
  static grtdb::witness::LockClass cls("wal.commit_mu");
  return cls;
}

// One redo record: type byte + (for writes/frees) a node id, + (for
// writes) the full page image.
constexpr size_t kWriteRecordSize = 1 + 8 + kPageSize;
constexpr size_t kFreeRecordSize = 1 + 8;

}  // namespace

StatusOr<std::unique_ptr<WalNodeStore>> WalNodeStore::Open(
    NodeStore* inner, const std::string& log_path, WalOptions options) {
  if (options.max_batch == 0) options.max_batch = 1;
  std::unique_ptr<WalNodeStore> store(
      new WalNodeStore(inner, log_path, options));
  GRTDB_RETURN_IF_ERROR(store->OpenLogForAppend());
  return store;
}

WalNodeStore::~WalNodeStore() {
  if (log_fd_ >= 0) ::close(log_fd_);
}

Status WalNodeStore::OpenLogForAppend() {
  log_fd_ = ::open(log_path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (log_fd_ < 0) {
    return Status::IOError("cannot open WAL '" + log_path_ +
                           "': " + std::strerror(errno));
  }
  const off_t size = ::lseek(log_fd_, 0, SEEK_END);
  if (size < 0) return Status::IOError("lseek on WAL failed");
  log_size_ = static_cast<uint64_t>(size);
  return Status::OK();
}

// --------------------------------------------------------------- recovery --

namespace {

// Sequential chunked reader over the log fd: recovery touches the file in
// fixed-size pread chunks instead of slurping it whole into memory, so
// replay memory is bounded by the largest single transaction, not by the
// log size.
class ChunkedLogReader {
 public:
  static constexpr size_t kChunk = 256 * 1024;

  explicit ChunkedLogReader(int fd) : fd_(fd) {
    buf_.resize(kChunk);
    const off_t size = ::lseek(fd_, 0, SEEK_END);
    file_size_ = size < 0 ? 0 : static_cast<uint64_t>(size);
  }

  bool failed() const { return failed_; }
  uint64_t file_size() const { return file_size_; }

  // Reads up to `n` sequential bytes; returns how many were available.
  size_t Read(uint8_t* out, size_t n) {
    size_t copied = 0;
    while (copied < n) {
      if (pos_ >= len_) {
        if (!Fill()) break;
      }
      const size_t take = std::min(n - copied, len_ - pos_);
      std::memcpy(out + copied, buf_.data() + pos_, take);
      pos_ += take;
      copied += take;
    }
    return copied;
  }

 private:
  bool Fill() {
    if (file_pos_ >= file_size_) return false;
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(kChunk, file_size_ - file_pos_));
    const ssize_t got =
        ::pread(fd_, buf_.data(), want, static_cast<off_t>(file_pos_));
    if (got <= 0) {
      failed_ = got < 0;
      file_pos_ = file_size_;  // stop
      return false;
    }
    file_pos_ += static_cast<uint64_t>(got);
    len_ = static_cast<size_t>(got);
    pos_ = 0;
    return true;
  }

  int fd_;
  uint64_t file_size_ = 0;
  uint64_t file_pos_ = 0;
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
  size_t len_ = 0;
  bool failed_ = false;
};

}  // namespace

Status WalNodeStore::Recover() {
  AcquirePipeline();
  obs::FlightRecorder::Global().RecordEvent(obs::FlightEvent::kRecoveryBegin);
  Status status = [&]() -> Status {
    ChunkedLogReader reader(log_fd_);
    uint64_t replayed = 0;
    uint64_t discarded = 0;
    uint64_t crc_failures = 0;
    uint64_t bytes_scanned = 0;
    std::vector<uint8_t> payload;
    // Frees wait for the end of the log. Allocations are not logged, so a
    // later transaction may have reallocated a freed node and written it;
    // its write cancels the free, or the next allocation would zero a live
    // node.
    std::vector<NodeId> frees;

    for (;;) {
      uint8_t header[wal::kFrameHeaderSize];
      const size_t got = reader.Read(header, sizeof(header));
      if (got == 0) break;  // clean end of log
      if (got < sizeof(header)) {
        ++discarded;  // torn frame header
        break;
      }
      const uint32_t payload_len = LoadU32(header);
      const uint32_t expected_crc = LoadU32(header + 4);
      if (payload_len == 0 || payload_len > wal::kMaxFramePayload) {
        ++crc_failures;  // header is garbage; nothing after it is trusted
        ++discarded;
        break;
      }
      payload.resize(payload_len);
      if (reader.Read(payload.data(), payload_len) < payload_len) {
        ++discarded;  // torn payload
        break;
      }
      if (Crc32(payload.data(), payload_len) != expected_crc) {
        ++crc_failures;
        ++discarded;
        break;
      }
      bytes_scanned += wal::kFrameHeaderSize + payload_len;

      // The frame checksummed clean: replay its committed transactions.
      // Every BEGIN that reaches end-of-frame without a COMMIT is one
      // discarded transaction (counted individually).
      TxnBuffer txn;
      bool open = false;
      size_t offset = 0;
      while (offset < payload_len) {
        const uint8_t type = payload[offset];
        if (type == wal::kRecBegin) {
          if (open) ++discarded;  // BEGIN without COMMIT before it
          txn = TxnBuffer();
          open = true;
          offset += 1;
        } else if (type == wal::kRecWrite) {
          if (offset + kWriteRecordSize > payload_len) {
            return Status::Corruption("WAL write record overruns its frame");
          }
          const NodeId id = LoadU64(payload.data() + offset + 1);
          txn.writes[id].assign(payload.begin() + offset + 9,
                                payload.begin() + offset + 9 + kPageSize);
          offset += kWriteRecordSize;
        } else if (type == wal::kRecFree) {
          if (offset + kFreeRecordSize > payload_len) {
            return Status::Corruption("WAL free record overruns its frame");
          }
          txn.frees.push_back(LoadU64(payload.data() + offset + 1));
          offset += kFreeRecordSize;
        } else if (type == wal::kRecCommit) {
          if (!open) {
            return Status::Corruption("WAL COMMIT record without BEGIN");
          }
          for (const auto& write : txn.writes) std::erase(frees, write.first);
          for (NodeId id : txn.frees) {
            std::erase(frees, id);
            frees.push_back(id);
          }
          txn.frees.clear();
          {
            std::lock_guard<std::mutex> il(inner_mu_);
            GRTDB_RETURN_IF_ERROR(ApplyTxnInnerLocked(txn));
          }
          ++replayed;
          open = false;
          offset += 1;
        } else {
          return Status::Corruption("unknown WAL record type inside frame");
        }
      }
      if (open) ++discarded;  // frame ended with the transaction open
    }
    if (reader.failed()) return Status::IOError("read of WAL failed");
    {
      std::lock_guard<std::mutex> il(inner_mu_);
      for (NodeId id : frees) GRTDB_RETURN_IF_ERROR(inner_->FreeNode(id));
    }

    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      wal_stats_.transactions_replayed += replayed;
      wal_stats_.transactions_discarded += discarded;
      wal_stats_.crc_failures += crc_failures;
      wal_stats_.bytes_replayed += bytes_scanned;
    }
    obs::FlightRecorder::Global().RecordEvent(obs::FlightEvent::kRecoveryEnd,
                                              replayed, discarded);
    if (trace_ != nullptr) {
      trace_->Tprintf(
          "wal", 1,
          "recover: %llu txns replayed, %llu discarded, %llu CRC failures, "
          "%llu bytes scanned",
          static_cast<unsigned long long>(replayed),
          static_cast<unsigned long long>(discarded),
          static_cast<unsigned long long>(crc_failures),
          static_cast<unsigned long long>(bytes_scanned));
    }

    // The log's work is done; flush the replayed state and truncate it.
    {
      std::lock_guard<std::mutex> il(inner_mu_);
      GRTDB_RETURN_IF_ERROR(inner_->Flush());
      if (::ftruncate(log_fd_, 0) != 0) {
        return Status::IOError("cannot truncate WAL");
      }
      log_size_ = 0;
      log_torn_ = false;
      unapplied_in_log_ = false;
    }
    return Status::OK();
  }();
  ReleasePipeline();
  return status;
}

// ------------------------------------------------------------ txn buffers --

Status WalNodeStore::Begin() {
  if (default_txn_.open) {
    return Status::InvalidArgument("WAL transaction already open");
  }
  default_txn_.open = true;
  default_txn_.writes.clear();
  default_txn_.frees.clear();
  return Status::OK();
}

Status WalNodeStore::Commit() {
  return CommitBuffer(&default_txn_, /*apply=*/true);
}

Status WalNodeStore::CommitWithCrashBeforeApply() {
  return CommitBuffer(&default_txn_, /*apply=*/false);
}

Status WalNodeStore::Rollback() {
  if (!default_txn_.open) {
    return Status::InvalidArgument("no WAL transaction open");
  }
  default_txn_.writes.clear();
  default_txn_.frees.clear();
  default_txn_.open = false;
  return Status::OK();
}

std::unique_ptr<WalTxn> WalNodeStore::BeginConcurrent() {
  return std::unique_ptr<WalTxn>(new WalTxn(this));
}

// ------------------------------------------------------------ commit path --

std::vector<uint8_t> WalNodeStore::BuildFrame(const TxnBuffer& txn) {
  const size_t payload_size = 1 + txn.writes.size() * kWriteRecordSize +
                              txn.frees.size() * kFreeRecordSize + 1;
  std::vector<uint8_t> frame;
  frame.reserve(wal::kFrameHeaderSize + payload_size);
  frame.resize(wal::kFrameHeaderSize);
  frame.push_back(wal::kRecBegin);
  for (const auto& [id, image] : txn.writes) {
    frame.push_back(wal::kRecWrite);
    uint8_t id_bytes[8];
    StoreU64(id_bytes, id);
    frame.insert(frame.end(), id_bytes, id_bytes + 8);
    frame.insert(frame.end(), image.begin(), image.end());
  }
  for (NodeId id : txn.frees) {
    frame.push_back(wal::kRecFree);
    uint8_t id_bytes[8];
    StoreU64(id_bytes, id);
    frame.insert(frame.end(), id_bytes, id_bytes + 8);
  }
  frame.push_back(wal::kRecCommit);
  const size_t payload_len = frame.size() - wal::kFrameHeaderSize;
  StoreU32(frame.data(), static_cast<uint32_t>(payload_len));
  StoreU32(frame.data() + 4,
           Crc32(frame.data() + wal::kFrameHeaderSize, payload_len));
  return frame;
}

Status WalNodeStore::WriteAllToLog(const uint8_t* data, size_t size) {
  while (size > 0) {
    const ssize_t written = write_hook_
                                ? write_hook_(log_fd_, data, size)
                                : ::write(log_fd_, data, size);
    if (written < 0) {
      if (errno == EINTR) continue;  // interrupted before any byte moved
      return Status::IOError(std::string("write to WAL failed: ") +
                             std::strerror(errno));
    }
    // A short write (signal, quota boundary) is not an error: the kernel
    // accepted a prefix, so push the remainder until it is all durable in
    // the page cache. Giving up here would leave a torn record in the log.
    data += written;
    size -= static_cast<size_t>(written);
  }
  return Status::OK();
}

Status WalNodeStore::ApplyTxnInnerLocked(const TxnBuffer& txn) {
  for (const auto& [id, image] : txn.writes) {
    GRTDB_RETURN_IF_ERROR(inner_->WriteNode(id, image.data()));
  }
  for (NodeId id : txn.frees) {
    GRTDB_RETURN_IF_ERROR(inner_->FreeNode(id));
  }
  return Status::OK();
}

void WalNodeStore::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_commit_us_ = m_batch_size_ = nullptr;
    m_commits_ = m_syncs_ = m_group_commits_ = m_log_bytes_ = nullptr;
    return;
  }
  m_commit_us_ = metrics->GetHistogram("wal.commit_us");
  m_batch_size_ = metrics->GetHistogram("wal.batch_size");
  m_commits_ = metrics->GetCounter("wal.commits");
  m_syncs_ = metrics->GetCounter("wal.syncs");
  m_group_commits_ = metrics->GetCounter("wal.group_commits");
  m_log_bytes_ = metrics->GetCounter("wal.log_bytes");
}

Status WalNodeStore::CommitBuffer(TxnBuffer* txn, bool apply) {
  if (!txn->open) return Status::InvalidArgument("no WAL transaction open");

  // The commit-latency histogram spans the whole commit: frame build,
  // queueing, the (possibly borrowed) fsync, and the inner-store apply.
  const auto commit_start = m_commit_us_ != nullptr
                                ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point();

  CommitRequest req;
  req.txn = txn;
  req.apply = apply;
  req.frame = BuildFrame(*txn);
  req.records = 2 + txn->writes.size() + txn->frees.size();

  GRTDB_WITNESS_ACQUIRE(CommitMutexClass());
  {
    // Group-commit wait for a traced request: enqueue until this
    // transaction is durable, whether this thread led the round's fsync
    // or rode on another leader's.
    obs::SpanScope wal_span(obs::SpanName::kWalWait, req.records,
                            req.frame.size());
    std::unique_lock<std::mutex> lk(commit_mu_);
    commit_queue_.push_back(&req);
    commit_cv_.notify_all();  // a lingering leader may be waiting for joiners
    for (;;) {
      if (req.done) break;
      if (!leader_active_) {
        // No leader: this thread drains the queue (including its own
        // request, unless the batch cap defers it to the next round).
        RunLeaderRound(lk);
        continue;
      }
      commit_cv_.wait(lk);
    }
    lk.unlock();
  }
  GRTDB_WITNESS_RELEASE(CommitMutexClass());

  // Committed or not, the transaction is over: a failed append or fsync
  // took its frame back out of the log (CutTornTail), so its writes go.
  txn->writes.clear();
  txn->frees.clear();
  txn->open = false;
  if (req.result.ok()) {
    if (m_commit_us_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - commit_start;
      m_commit_us_->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
              .count()));
    }
    if (m_commits_ != nullptr) m_commits_->Add();
  }
  return req.result;
}

void WalNodeStore::RunLeaderRound(std::unique_lock<std::mutex>& lk) {
  leader_active_ = true;
  if (options_.max_wait_us > 0 && commit_queue_.size() < options_.max_batch) {
    // Linger briefly so concurrent committers can join this batch.
    commit_cv_.wait_for(
        lk, std::chrono::microseconds(options_.max_wait_us),
        [&] { return commit_queue_.size() >= options_.max_batch; });
  }
  std::vector<CommitRequest*> batch;
  while (!commit_queue_.empty() && batch.size() < options_.max_batch) {
    batch.push_back(commit_queue_.front());
    commit_queue_.pop_front();
  }
  lk.unlock();
  GRTDB_WITNESS_RELEASE(CommitMutexClass());

  size_t blob_size = 0;
  uint64_t records = 0;
  for (const CommitRequest* r : batch) {
    blob_size += r->frame.size();
    records += r->records;
  }
  std::vector<uint8_t> blob;
  blob.reserve(blob_size);
  for (const CommitRequest* r : batch) {
    blob.insert(blob.end(), r->frame.begin(), r->frame.end());
  }

  Status io = log_torn_ ? CutTornTail() : Status::OK();
  if (io.ok()) io = WriteAllToLog(blob.data(), blob.size());
  if (io.ok() && ::fsync(log_fd_) != 0) {
    io = Status::IOError("fsync on WAL failed");
  }
  if (!io.ok()) (void)CutTornTail();  // else the next round retries it

  if (io.ok()) {
    std::lock_guard<std::mutex> il(inner_mu_);
    log_size_ += blob.size();
    for (CommitRequest* r : batch) {
      if (r->apply) {
        r->result = ApplyTxnInnerLocked(*r->txn);
      } else {
        // "Crash" hook: the durable log has the transaction, the store
        // does not. Recover() must repair it, so the log must survive.
        unapplied_in_log_ = true;
        r->result = Status::OK();
      }
    }
  } else {
    for (CommitRequest* r : batch) r->result = io;
  }

  if (io.ok()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++wal_stats_.syncs;
    wal_stats_.log_bytes += blob.size();
    wal_stats_.log_records += records;
    wal_stats_.transactions_committed += batch.size();
    if (batch.size() > 1) {
      ++wal_stats_.group_commits;
      wal_stats_.batched_commits += batch.size() - 1;
      wal_stats_.fsyncs_saved += batch.size() - 1;
    }
  }
  if (io.ok()) {
    if (m_syncs_ != nullptr) m_syncs_->Add();
    if (m_log_bytes_ != nullptr) m_log_bytes_->Add(blob.size());
    if (m_batch_size_ != nullptr) m_batch_size_->Record(batch.size());
    if (m_group_commits_ != nullptr && batch.size() > 1) {
      m_group_commits_->Add();
    }
  }
  if (trace_ != nullptr) {
    trace_->Tprintf("wal", 2, "group commit: %llu txns, %llu bytes, 1 fsync",
                    static_cast<unsigned long long>(batch.size()),
                    static_cast<unsigned long long>(blob.size()));
  }
  if (io.ok()) MaybeAutoCheckpoint();

  GRTDB_WITNESS_ACQUIRE(CommitMutexClass());
  lk.lock();
  for (CommitRequest* r : batch) r->done = true;
  leader_active_ = false;
  commit_cv_.notify_all();
}

Status WalNodeStore::CutTornTail() {
  std::lock_guard<std::mutex> il(inner_mu_);
  log_torn_ = ::ftruncate(log_fd_, static_cast<off_t>(log_size_)) != 0;
  return log_torn_ ? Status::IOError("cannot cut a failed append off the WAL")
                   : Status::OK();
}

void WalNodeStore::MaybeAutoCheckpoint() {
  if (options_.checkpoint_log_bytes == 0) return;
  std::lock_guard<std::mutex> il(inner_mu_);
  // Never truncate while the log holds a committed-but-unapplied
  // transaction (crash-test hook): the log is its only copy.
  if (unapplied_in_log_ || log_size_ < options_.checkpoint_log_bytes) return;
  // Incremental checkpoint: make the inner store durable, then drop the
  // log. A failure here is not a commit failure — the log simply stays and
  // the next commit retries the checkpoint.
  Status status = inner_->Flush();
  if (status.ok() && ::ftruncate(log_fd_, 0) != 0) {
    status = Status::IOError("cannot truncate WAL");
  }
  if (status.ok()) {
    const uint64_t dropped = log_size_;
    log_size_ = 0;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++wal_stats_.checkpoints;
    }
    obs::FlightRecorder::Global().RecordEvent(obs::FlightEvent::kCheckpoint,
                                              dropped);
    if (trace_ != nullptr) {
      trace_->Tprintf("wal", 1,
                      "size-triggered checkpoint: dropped %llu log bytes",
                      static_cast<unsigned long long>(dropped));
    }
  } else if (trace_ != nullptr) {
    trace_->Tprintf("wal", 1, "checkpoint failed: %s",
                    status.ToString().c_str());
  }
}

// ------------------------------------------------------------- checkpoint --

void WalNodeStore::AcquirePipeline() {
  GRTDB_WITNESS_ACQUIRE(CommitMutexClass());
  std::unique_lock<std::mutex> lk(commit_mu_);
  commit_cv_.wait(lk, [&] { return !leader_active_; });
  leader_active_ = true;  // blocks commit leaders; appends are quiesced
}

void WalNodeStore::ReleasePipeline() {
  {
    std::lock_guard<std::mutex> lk(commit_mu_);
    leader_active_ = false;
  }
  commit_cv_.notify_all();
  GRTDB_WITNESS_RELEASE(CommitMutexClass());
}

Status WalNodeStore::CheckpointQuiesced() {
  std::lock_guard<std::mutex> il(inner_mu_);
  GRTDB_RETURN_IF_ERROR(inner_->Flush());
  if (::ftruncate(log_fd_, 0) != 0) {
    return Status::IOError("cannot truncate WAL");
  }
  const uint64_t dropped = log_size_;
  log_size_ = 0;
  log_torn_ = false;
  unapplied_in_log_ = false;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++wal_stats_.checkpoints;
  }
  obs::FlightRecorder::Global().RecordEvent(obs::FlightEvent::kCheckpoint,
                                            dropped);
  return Status::OK();
}

Status WalNodeStore::Checkpoint() {
  if (default_txn_.open) {
    return Status::InvalidArgument("cannot checkpoint inside a transaction");
  }
  AcquirePipeline();
  Status status = CheckpointQuiesced();
  ReleasePipeline();
  if (status.ok() && trace_ != nullptr) {
    trace_->Tprintf("wal", 1, "checkpoint: log truncated");
  }
  return status;
}

// -------------------------------------------------------- NodeStore calls --

Status WalNodeStore::AllocateNode(NodeId* id) {
  // Allocation mutates the inner store immediately; a crash before commit
  // merely leaks the slot (documented trade-off of the simple protocol).
  std::lock_guard<std::mutex> il(inner_mu_);
  return inner_->AllocateNode(id);
}

Status WalNodeStore::FreeNode(NodeId id) {
  if (!default_txn_.open) {
    std::lock_guard<std::mutex> il(inner_mu_);
    return inner_->FreeNode(id);
  }
  default_txn_.writes.erase(id);
  default_txn_.frees.push_back(id);
  return Status::OK();
}

Status WalNodeStore::ReadNodeInner(NodeId id, uint8_t* out) {
  std::lock_guard<std::mutex> il(inner_mu_);
  return inner_->ReadNode(id, out);
}

Status WalNodeStore::ReadNode(NodeId id, uint8_t* out) {
  {
    std::lock_guard<std::mutex> il(inner_mu_);
    ++stats_.node_reads;
  }
  if (default_txn_.open) {
    auto it = default_txn_.writes.find(id);
    if (it != default_txn_.writes.end()) {
      std::memcpy(out, it->second.data(), kPageSize);
      return Status::OK();
    }
  }
  return ReadNodeInner(id, out);
}

Status WalNodeStore::ViewNode(NodeId id, NodeView* view) {
  if (default_txn_.open) {
    // Transactional reads must see the txn buffer: take the copying
    // default, which routes through our ReadNode (and its stats).
    return NodeStore::ViewNode(id, view);
  }
  std::lock_guard<std::mutex> il(inner_mu_);
  ++stats_.node_reads;
  return inner_->ViewNode(id, view);  // zero-copy when inner is a cache
}

Status WalNodeStore::WriteNode(NodeId id, const uint8_t* data) {
  std::lock_guard<std::mutex> il(inner_mu_);
  ++stats_.node_writes;
  if (!default_txn_.open) return inner_->WriteNode(id, data);
  default_txn_.writes[id].assign(data, data + kPageSize);
  return Status::OK();
}

Status WalNodeStore::Flush() {
  std::lock_guard<std::mutex> il(inner_mu_);
  return inner_->Flush();
}

WalStats WalNodeStore::wal_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return wal_stats_;
}

// ------------------------------------------------------------------ WalTxn --

Status WalTxn::Rollback() {
  if (!buf_.open) return Status::InvalidArgument("no WAL transaction open");
  buf_.writes.clear();
  buf_.frees.clear();
  buf_.open = false;
  return Status::OK();
}

Status WalTxn::FreeNode(NodeId id) {
  if (!buf_.open) return Status::InvalidArgument("WAL transaction finished");
  buf_.writes.erase(id);
  buf_.frees.push_back(id);
  return Status::OK();
}

Status WalTxn::ReadNode(NodeId id, uint8_t* out) {
  if (!buf_.open) return Status::InvalidArgument("WAL transaction finished");
  ++stats_.node_reads;
  auto it = buf_.writes.find(id);
  if (it != buf_.writes.end()) {
    std::memcpy(out, it->second.data(), kPageSize);
    return Status::OK();
  }
  return wal_->ReadNodeInner(id, out);
}

Status WalTxn::WriteNode(NodeId id, const uint8_t* data) {
  if (!buf_.open) return Status::InvalidArgument("WAL transaction finished");
  ++stats_.node_writes;
  buf_.writes[id].assign(data, data + kPageSize);
  return Status::OK();
}

}  // namespace grtdb
