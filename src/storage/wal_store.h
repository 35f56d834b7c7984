#ifndef GRTDB_STORAGE_WAL_STORE_H_
#define GRTDB_STORAGE_WAL_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blade/trace.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/node_store.h"

namespace grtdb {

class WalTxn;

// On-disk framing of the log (see DESIGN.md "Durability path"): every
// transaction is one frame
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//
// whose payload is the record sequence BEGIN (WRITE|FREE)* COMMIT. The
// record-type bytes are exposed here so tests can hand-assemble frames.
namespace wal {
inline constexpr uint8_t kRecBegin = 1;
inline constexpr uint8_t kRecWrite = 2;  // + u64 node id + kPageSize image
inline constexpr uint8_t kRecFree = 3;   // + u64 node id
inline constexpr uint8_t kRecCommit = 4;
inline constexpr size_t kFrameHeaderSize = 8;
// Frames larger than this are rejected as corrupt during recovery.
inline constexpr uint32_t kMaxFramePayload = 1u << 30;
}  // namespace wal

// Group-commit / checkpoint tuning knobs.
struct WalOptions {
  // Maximum transactions coalesced into one log append + fsync.
  size_t max_batch = 64;
  // How long a commit leader lingers for more transactions to join its
  // batch before flushing. 0 = flush immediately; batching then still
  // happens naturally while a leader's fsync is in flight.
  uint32_t max_wait_us = 0;
  // Size-triggered incremental checkpoint: once the log exceeds this many
  // bytes, the next commit flushes the inner store and truncates the log.
  // 0 disables the trigger (explicit Checkpoint() still works).
  uint64_t checkpoint_log_bytes = 8ull << 20;
};

struct WalStats {
  uint64_t log_records = 0;
  uint64_t log_bytes = 0;
  uint64_t syncs = 0;
  uint64_t transactions_committed = 0;
  uint64_t transactions_replayed = 0;   // by Recover()
  uint64_t transactions_discarded = 0;  // incomplete tails dropped
  // Group commit.
  uint64_t group_commits = 0;    // leader flushes that carried > 1 txn
  uint64_t batched_commits = 0;  // txns that rode another txn's fsync
  uint64_t fsyncs_saved = 0;     // fsyncs avoided by batching
  // Recovery / framing.
  uint64_t crc_failures = 0;   // frames rejected by checksum
  uint64_t bytes_replayed = 0; // log bytes scanned by Recover()
  uint64_t checkpoints = 0;    // explicit + size-triggered
};

// Write-ahead logging for a NodeStore — the recovery machinery a DataBlade
// that stores its index in a regular operating-system file must build
// itself, because "there are no means to integrate the access-method
// recovery with the Informix Server's recovery subsystem" (paper §5.3).
//
// Protocol: no-steal / no-force with physical redo records. Writes inside
// a transaction stay in memory; commit serializes them into a CRC-framed
// log record, appends + fsyncs it, and only then applies them to the inner
// store. A crash before the commit frame is durable loses nothing but the
// uncommitted transaction; a crash after it is repaired by Recover(),
// which streams the log in fixed-size chunks, replays every committed
// transaction (idempotent physical redo), and discards torn or
// checksum-invalid tails.
//
// Concurrency: commits from many threads are *group committed* — a commit
// leader drains the queue of concurrently committing transactions and
// retires the whole batch with one append and one fsync. Use
// BeginConcurrent() to obtain a per-thread transaction handle; the
// Begin()/Commit()/Rollback() brackets below operate on a single built-in
// session and remain for single-threaded callers.
class WalNodeStore final : public NodeStore {
 public:
  // Opens the log at `log_path` (created if absent) over `inner`. Call
  // Recover() before any other operation unless the log is new.
  static StatusOr<std::unique_ptr<WalNodeStore>> Open(
      NodeStore* inner, const std::string& log_path, WalOptions options = {});

  ~WalNodeStore() override;

  // Replays committed-but-unapplied transactions into the inner store and
  // truncates the log. Safe to call on a clean log and idempotent: a
  // second call (or a crash during the first) replays the same physical
  // images again. Frees are applied after the whole log, less those whose
  // node a later record writes (the node was reallocated).
  Status Recover();

  // Single-session transaction brackets (legacy, not thread-safe against
  // each other; concurrent writers use BeginConcurrent). Node writes
  // outside a transaction are write-through (no atomicity), matching a
  // blade that skips the work.
  Status Begin();
  // Ends the transaction whatever the result: when the log append or its
  // fsync fails, the batch is cut from the log and its writes are dropped.
  Status Commit();
  // Drops the transaction's buffered writes.
  Status Rollback();

  // Starts an independent transaction that can commit concurrently with
  // others; commits are coalesced by the group-commit pipeline. The handle
  // is a NodeStore, so a whole tree can run on top of it.
  std::unique_ptr<WalTxn> BeginConcurrent();

  // Flushes the inner store and truncates the log (checkpoint). Waits for
  // in-flight commits to drain first.
  Status Checkpoint();

  // NodeStore interface.
  Status AllocateNode(NodeId* id) override;
  Status FreeNode(NodeId id) override;
  Status ReadNode(NodeId id, uint8_t* out) override;
  Status WriteNode(NodeId id, const uint8_t* data) override;
  Status ViewNode(NodeId id, NodeView* view) override;
  uint64_t LoOfNode(NodeId id) const override { return inner_->LoOfNode(id); }
  uint64_t FreeListLength() override { return inner_->FreeListLength(); }
  Status Flush() override;

  WalStats wal_stats() const;
  bool in_transaction() const { return default_txn_.open; }
  const WalOptions& options() const { return options_; }

  // Commit-path events go to `trace` under class "wal" (level 1: recovery
  // and checkpoints, level 2: per-batch group commits). May be null.
  void set_trace(TraceFacility* trace) { trace_ = trace; }

  // Mirrors commit-path activity into server-wide wal.* metrics: commit
  // latency and group-commit batch-size histograms plus commit/sync
  // counters. Handles are cached here; null unwires.
  void set_metrics(obs::MetricsRegistry* metrics);

  // Test hook: commit to the log but "crash" before applying to the inner
  // store — Recover() must repair this.
  Status CommitWithCrashBeforeApply();

  // Test hook: replaces ::write on the log fd, e.g. to force short writes
  // or EINTR. Pass nullptr to restore the real call.
  using WriteHook = std::function<ssize_t(int fd, const uint8_t* data,
                                          size_t size)>;
  void SetWriteHookForTesting(WriteHook hook) { write_hook_ = std::move(hook); }

 private:
  friend class WalTxn;

  // Buffered effects of one open transaction, last image per node.
  struct TxnBuffer {
    std::map<NodeId, std::vector<uint8_t>> writes;
    std::vector<NodeId> frees;
    bool open = false;
  };

  // A transaction waiting in the group-commit queue.
  struct CommitRequest {
    const TxnBuffer* txn = nullptr;
    std::vector<uint8_t> frame;
    uint64_t records = 0;
    bool apply = true;
    bool done = false;
    Status result;
  };

  WalNodeStore(NodeStore* inner, std::string log_path, WalOptions options)
      : inner_(inner), log_path_(std::move(log_path)), options_(options) {}

  Status OpenLogForAppend();

  // Commit pipeline.
  Status CommitBuffer(TxnBuffer* txn, bool apply);
  void RunLeaderRound(std::unique_lock<std::mutex>& lk);
  static std::vector<uint8_t> BuildFrame(const TxnBuffer& txn);
  Status WriteAllToLog(const uint8_t* data, size_t size);
  // Truncates the log back to log_size_, the end of its last whole frame,
  // after an append or its fsync failed: frames appended behind torn bytes
  // would be lost, as Recover() stops at the first bad frame. Until that
  // succeeds, log_torn_ stays set and every commit retries it first.
  Status CutTornTail();
  Status ApplyTxnInnerLocked(const TxnBuffer& txn);
  void MaybeAutoCheckpoint();

  // Blocks new commit leaders and waits out the active one; paired with
  // ReleasePipeline(). Used by Recover()/Checkpoint() to quiesce the log.
  void AcquirePipeline();
  void ReleasePipeline();
  Status CheckpointQuiesced();

  // Reads for transaction handles: committed state only, no WAL stats.
  Status ReadNodeInner(NodeId id, uint8_t* out);

  NodeStore* inner_;
  std::string log_path_;
  WalOptions options_;
  int log_fd_ = -1;
  TraceFacility* trace_ = nullptr;
  WriteHook write_hook_;

  // Cached registry handles (null when no registry is wired).
  obs::Histogram* m_commit_us_ = nullptr;
  obs::Histogram* m_batch_size_ = nullptr;
  obs::Counter* m_commits_ = nullptr;
  obs::Counter* m_syncs_ = nullptr;
  obs::Counter* m_group_commits_ = nullptr;
  obs::Counter* m_log_bytes_ = nullptr;

  // The built-in session behind Begin()/Commit()/Rollback().
  TxnBuffer default_txn_;

  // Group-commit pipeline state (guarded by commit_mu_). leader_active_
  // also serializes all log appends and truncations.
  std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  std::deque<CommitRequest*> commit_queue_;
  bool leader_active_ = false;
  // The log may end in part of a failed batch (see CutTornTail). Touched
  // only by whoever holds the pipeline: a commit leader, Recover() or a
  // checkpoint.
  bool log_torn_ = false;

  // Guards every inner_-> mutation plus the bookkeeping that must stay
  // consistent with it (log_size_, unapplied_in_log_, NodeStore stats_).
  std::mutex inner_mu_;
  uint64_t log_size_ = 0;  // bytes in the log since the last truncate
  // True while the log holds a durable-but-unapplied transaction (the
  // CommitWithCrashBeforeApply test hook); suppresses auto-checkpoint,
  // which would otherwise truncate a committed transaction away.
  bool unapplied_in_log_ = false;

  mutable std::mutex stats_mu_;
  WalStats wal_stats_;
};

// A per-thread WAL transaction handle. Born open; Commit()/Rollback()
// finish it, after which every operation fails. Reads see the
// transaction's own writes first, then the committed state of the store.
class WalTxn final : public NodeStore {
 public:
  ~WalTxn() override = default;

  WalTxn(const WalTxn&) = delete;
  WalTxn& operator=(const WalTxn&) = delete;

  Status Commit() { return wal_->CommitBuffer(&buf_, /*apply=*/true); }
  Status Rollback();
  // Test hook, see WalNodeStore::CommitWithCrashBeforeApply.
  Status CommitWithCrashBeforeApply() {
    return wal_->CommitBuffer(&buf_, /*apply=*/false);
  }
  bool open() const { return buf_.open; }

  // NodeStore interface.
  Status AllocateNode(NodeId* id) override { return wal_->AllocateNode(id); }
  Status FreeNode(NodeId id) override;
  Status ReadNode(NodeId id, uint8_t* out) override;
  Status WriteNode(NodeId id, const uint8_t* data) override;
  uint64_t LoOfNode(NodeId id) const override { return wal_->LoOfNode(id); }
  uint64_t FreeListLength() override { return wal_->FreeListLength(); }
  Status Flush() override { return wal_->Flush(); }

 private:
  friend class WalNodeStore;

  explicit WalTxn(WalNodeStore* wal) : wal_(wal) { buf_.open = true; }

  WalNodeStore* wal_;
  WalNodeStore::TxnBuffer buf_;
};

}  // namespace grtdb

#endif  // GRTDB_STORAGE_WAL_STORE_H_
