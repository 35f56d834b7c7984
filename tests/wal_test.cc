#include "storage/wal_store.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "blade/trace.h"
#include "core/grtree.h"
#include "storage/layout.h"
#include "storage/pager.h"
#include "storage/space.h"

namespace grtdb {
namespace {

std::string LogPath(const char* name) {
  // Pid-qualified so concurrent ctest processes never share a log file.
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

struct Fixture {
  MemorySpace space;
  Pager pager{&space, 256};
  PagerNodeStore inner{&pager};
  std::unique_ptr<WalNodeStore> wal;
  std::string log_path;

  explicit Fixture(const char* name, WalOptions options = {})
      : log_path(LogPath(name)) {
    std::remove(log_path.c_str());
    auto wal_or = WalNodeStore::Open(&inner, log_path, options);
    EXPECT_TRUE(wal_or.ok());
    wal = std::move(wal_or).value();
    EXPECT_TRUE(wal->Recover().ok());
  }
  ~Fixture() { std::remove(log_path.c_str()); }

  uint8_t ReadByte(NodeId id) {
    uint8_t page[kPageSize];
    EXPECT_TRUE(wal->ReadNode(id, page).ok());
    return page[0];
  }
  void WriteByte(NodeId id, uint8_t byte) {
    uint8_t page[kPageSize];
    std::memset(page, byte, sizeof(page));
    EXPECT_TRUE(wal->WriteNode(id, page).ok());
  }
};

TEST(WalStore, CommitAppliesWrites) {
  Fixture fx("wal_commit.log");
  NodeId id;
  ASSERT_TRUE(fx.wal->AllocateNode(&id).ok());
  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(id, 0x11);
  EXPECT_EQ(fx.ReadByte(id), 0x11);  // own writes visible inside the txn
  ASSERT_TRUE(fx.wal->Commit().ok());
  EXPECT_EQ(fx.ReadByte(id), 0x11);
  EXPECT_EQ(fx.wal->wal_stats().transactions_committed, 1u);
  EXPECT_GE(fx.wal->wal_stats().syncs, 1u);
}

TEST(WalStore, RollbackDiscardsWrites) {
  Fixture fx("wal_rollback.log");
  NodeId id;
  ASSERT_TRUE(fx.wal->AllocateNode(&id).ok());
  fx.WriteByte(id, 0x22);  // write-through outside a transaction
  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(id, 0x33);
  ASSERT_TRUE(fx.wal->Rollback().ok());
  EXPECT_EQ(fx.ReadByte(id), 0x22);
}

TEST(WalStore, RecoverReplaysCommittedButUnappliedTransaction) {
  Fixture fx("wal_replay.log");
  NodeId a, b;
  ASSERT_TRUE(fx.wal->AllocateNode(&a).ok());
  ASSERT_TRUE(fx.wal->AllocateNode(&b).ok());
  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(a, 0x44);
  fx.WriteByte(b, 0x55);
  // Crash after the commit record hits the log, before the store sees it.
  ASSERT_TRUE(fx.wal->CommitWithCrashBeforeApply().ok());
  uint8_t page[kPageSize];
  ASSERT_TRUE(fx.inner.ReadNode(a, page).ok());
  EXPECT_EQ(page[0], 0x00);  // inner store still blank: the "crash" held

  // "Restart": a new WAL over the same inner store and log file.
  auto wal_or = WalNodeStore::Open(&fx.inner, fx.log_path);
  ASSERT_TRUE(wal_or.ok());
  auto recovered = std::move(wal_or).value();
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(recovered->wal_stats().transactions_replayed, 1u);
  ASSERT_TRUE(fx.inner.ReadNode(a, page).ok());
  EXPECT_EQ(page[0], 0x44);
  ASSERT_TRUE(fx.inner.ReadNode(b, page).ok());
  EXPECT_EQ(page[0], 0x55);
}

TEST(WalStore, RecoverDiscardsTornTail) {
  Fixture fx("wal_torn.log");
  NodeId id;
  ASSERT_TRUE(fx.wal->AllocateNode(&id).ok());
  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(id, 0x66);
  ASSERT_TRUE(fx.wal->CommitWithCrashBeforeApply().ok());
  // Tear the log: drop the last 100 bytes (the commit record and part of
  // the page image).
  {
    const auto size = std::filesystem::file_size(fx.log_path);
    std::filesystem::resize_file(fx.log_path, size - 100);
  }
  auto wal_or = WalNodeStore::Open(&fx.inner, fx.log_path);
  ASSERT_TRUE(wal_or.ok());
  auto recovered = std::move(wal_or).value();
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(recovered->wal_stats().transactions_replayed, 0u);
  EXPECT_EQ(recovered->wal_stats().transactions_discarded, 1u);
  uint8_t page[kPageSize];
  ASSERT_TRUE(fx.inner.ReadNode(id, page).ok());
  EXPECT_EQ(page[0], 0x00);  // atomicity: nothing of the torn txn applied
}

TEST(WalStore, MultipleTransactionsReplayInOrder) {
  Fixture fx("wal_multi.log");
  NodeId id;
  ASSERT_TRUE(fx.wal->AllocateNode(&id).ok());
  for (uint8_t round = 1; round <= 3; ++round) {
    ASSERT_TRUE(fx.wal->Begin().ok());
    fx.WriteByte(id, round);
    ASSERT_TRUE(fx.wal->CommitWithCrashBeforeApply().ok());
  }
  auto wal_or = WalNodeStore::Open(&fx.inner, fx.log_path);
  ASSERT_TRUE(wal_or.ok());
  auto recovered = std::move(wal_or).value();
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(recovered->wal_stats().transactions_replayed, 3u);
  uint8_t page[kPageSize];
  ASSERT_TRUE(fx.inner.ReadNode(id, page).ok());
  EXPECT_EQ(page[0], 3);  // the last committed image wins
}

TEST(WalStore, CheckpointTruncatesLog) {
  Fixture fx("wal_checkpoint.log");
  NodeId id;
  ASSERT_TRUE(fx.wal->AllocateNode(&id).ok());
  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(id, 0x77);
  ASSERT_TRUE(fx.wal->Commit().ok());
  EXPECT_GT(std::filesystem::file_size(fx.log_path), 0u);
  ASSERT_TRUE(fx.wal->Checkpoint().ok());
  EXPECT_EQ(std::filesystem::file_size(fx.log_path), 0u);
  EXPECT_EQ(fx.ReadByte(id), 0x77);
}

// A whole GR-tree behind the WAL: crash after commit, recover, and the
// tree is intact and consistent — the "complicated and time-consuming"
// machinery §5.3 says an OS-file DataBlade would have to build.
TEST(WalStore, GRTreeSurvivesCrashRecovery) {
  Fixture fx("wal_grtree.log");
  GRTree::Options options;
  options.max_entries = 8;
  NodeId anchor;
  const int64_t ct = 1000;
  {
    auto tree_or = GRTree::Create(fx.wal.get(), options, &anchor);
    ASSERT_TRUE(tree_or.ok());
    auto tree = std::move(tree_or).value();
    // First batch commits normally.
    ASSERT_TRUE(fx.wal->Begin().ok());
    for (uint64_t i = 1; i <= 60; ++i) {
      ASSERT_TRUE(tree->Insert(TimeExtent::Ground(500 + i, 510 + i, 400,
                                                  450),
                               i, ct)
                      .ok());
    }
    ASSERT_TRUE(fx.wal->Commit().ok());
    // Second batch commits to the log but "crashes" before applying.
    ASSERT_TRUE(fx.wal->Begin().ok());
    for (uint64_t i = 61; i <= 90; ++i) {
      ASSERT_TRUE(tree->Insert(TimeExtent::Ground(500 + i, 510 + i, 400,
                                                  450),
                               i, ct)
                      .ok());
    }
    ASSERT_TRUE(fx.wal->CommitWithCrashBeforeApply().ok());
  }
  // Restart: recover, reopen the tree, verify everything is there.
  auto wal_or = WalNodeStore::Open(&fx.inner, fx.log_path);
  ASSERT_TRUE(wal_or.ok());
  auto recovered = std::move(wal_or).value();
  ASSERT_TRUE(recovered->Recover().ok());
  auto tree_or = GRTree::Open(recovered.get(), anchor, options);
  ASSERT_TRUE(tree_or.ok());
  auto tree = std::move(tree_or).value();
  EXPECT_EQ(tree->size(), 90u);
  ASSERT_TRUE(tree->CheckConsistency(ct).ok());
  std::vector<GRTree::Entry> results;
  ASSERT_TRUE(tree->SearchAll(PredicateOp::kOverlaps,
                              TimeExtent::Ground(0, 10000, 0, 10000), ct,
                              &results)
                  .ok());
  EXPECT_EQ(results.size(), 90u);
}

// ---------------------------------------------------------- crash matrix --
// One test per crash point in the commit path:
//   (a) before the frame reaches the log      → transaction simply lost
//   (b) mid-append (torn frame)               → CRC rejects the tail
//   (c) after append, before apply            → Recover() replays it
//   (d) after apply, before checkpoint        → replay is a no-op rewrite
// Each asserts zero lost committed transactions and zero resurrected
// uncommitted ones, and that a second Recover() changes nothing.

TEST(WalCrashMatrix, CrashBeforeAppendLosesOnlyTheOpenTxn) {
  Fixture fx("wal_crash_pre_append.log");
  NodeId id;
  ASSERT_TRUE(fx.wal->AllocateNode(&id).ok());
  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(id, 0x10);
  // "Crash": drop the WAL object with the transaction still open. Nothing
  // was appended, so the log must be empty and recovery must find nothing.
  fx.wal.reset();
  EXPECT_EQ(std::filesystem::file_size(fx.log_path), 0u);
  auto wal_or = WalNodeStore::Open(&fx.inner, fx.log_path);
  ASSERT_TRUE(wal_or.ok());
  auto recovered = std::move(wal_or).value();
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(recovered->wal_stats().transactions_replayed, 0u);
  EXPECT_EQ(recovered->wal_stats().transactions_discarded, 0u);
  uint8_t page[kPageSize];
  ASSERT_TRUE(fx.inner.ReadNode(id, page).ok());
  EXPECT_EQ(page[0], 0x00);
}

TEST(WalCrashMatrix, BitRotInFrameIsCaughtByCrc) {
  Fixture fx("wal_crash_bitrot.log");
  NodeId id;
  ASSERT_TRUE(fx.wal->AllocateNode(&id).ok());
  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(id, 0x20);
  ASSERT_TRUE(fx.wal->CommitWithCrashBeforeApply().ok());
  // Flip one payload byte in place — the frame length stays right, so only
  // the checksum can notice.
  {
    std::fstream f(fx.log_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(wal::kFrameHeaderSize + 3));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(static_cast<std::streamoff>(wal::kFrameHeaderSize + 3));
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  auto wal_or = WalNodeStore::Open(&fx.inner, fx.log_path);
  ASSERT_TRUE(wal_or.ok());
  auto recovered = std::move(wal_or).value();
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(recovered->wal_stats().crc_failures, 1u);
  EXPECT_EQ(recovered->wal_stats().transactions_replayed, 0u);
  EXPECT_EQ(recovered->wal_stats().transactions_discarded, 1u);
  uint8_t page[kPageSize];
  ASSERT_TRUE(fx.inner.ReadNode(id, page).ok());
  EXPECT_EQ(page[0], 0x00);  // the corrupt frame was not applied
}

TEST(WalCrashMatrix, TornTailAfterCommittedFrameKeepsTheCommit) {
  Fixture fx("wal_crash_torn_mixed.log");
  NodeId id;
  ASSERT_TRUE(fx.wal->AllocateNode(&id).ok());
  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(id, 0x31);
  ASSERT_TRUE(fx.wal->CommitWithCrashBeforeApply().ok());
  const auto first_frame = std::filesystem::file_size(fx.log_path);
  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(id, 0x32);
  ASSERT_TRUE(fx.wal->CommitWithCrashBeforeApply().ok());
  // Tear the second frame but leave the first intact.
  std::filesystem::resize_file(fx.log_path, first_frame + 20);
  auto wal_or = WalNodeStore::Open(&fx.inner, fx.log_path);
  ASSERT_TRUE(wal_or.ok());
  auto recovered = std::move(wal_or).value();
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(recovered->wal_stats().transactions_replayed, 1u);
  EXPECT_EQ(recovered->wal_stats().transactions_discarded, 1u);
  EXPECT_GT(recovered->wal_stats().bytes_replayed, 0u);
  uint8_t page[kPageSize];
  ASSERT_TRUE(fx.inner.ReadNode(id, page).ok());
  EXPECT_EQ(page[0], 0x31);  // first commit survived, torn tail did not
}

TEST(WalCrashMatrix, RecoverIsIdempotent) {
  Fixture fx("wal_crash_idempotent.log");
  NodeId a, b;
  ASSERT_TRUE(fx.wal->AllocateNode(&a).ok());
  ASSERT_TRUE(fx.wal->AllocateNode(&b).ok());
  // (d) applied but not checkpointed...
  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(a, 0x41);
  ASSERT_TRUE(fx.wal->Commit().ok());
  // ...then (c) committed but unapplied.
  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(b, 0x42);
  ASSERT_TRUE(fx.wal->CommitWithCrashBeforeApply().ok());

  auto wal_or = WalNodeStore::Open(&fx.inner, fx.log_path);
  ASSERT_TRUE(wal_or.ok());
  auto recovered = std::move(wal_or).value();
  // Recover twice — as if the machine crashed again during the first
  // restart. Physical redo must land on the same state.
  ASSERT_TRUE(recovered->Recover().ok());
  const WalStats once = recovered->wal_stats();
  EXPECT_EQ(once.transactions_replayed, 2u);
  ASSERT_TRUE(recovered->Recover().ok());
  const WalStats twice = recovered->wal_stats();
  EXPECT_EQ(twice.transactions_replayed, 2u);  // second pass found nothing
  EXPECT_EQ(twice.transactions_discarded, 0u);
  uint8_t page[kPageSize];
  ASSERT_TRUE(fx.inner.ReadNode(a, page).ok());
  EXPECT_EQ(page[0], 0x41);
  ASSERT_TRUE(fx.inner.ReadNode(b, page).ok());
  EXPECT_EQ(page[0], 0x42);
}

// Allocations are not logged, so the log of "write A; free A; reallocate A
// and write it" holds a FREE of a node that is live at its end. Recovery
// must not put that node back on the free list, where the next allocation
// would zero it; a free no later record cancels still applies.
TEST(WalCrashMatrix, RecoverKeepsAFreedNodeThatWasReallocated) {
  Fixture fx("wal_crash_realloc.log");
  NodeId a, b;
  ASSERT_TRUE(fx.wal->AllocateNode(&a).ok());
  ASSERT_TRUE(fx.wal->AllocateNode(&b).ok());
  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(a, 0x51);
  fx.WriteByte(b, 0x52);
  ASSERT_TRUE(fx.wal->Commit().ok());
  ASSERT_TRUE(fx.wal->Begin().ok());
  ASSERT_TRUE(fx.wal->FreeNode(b).ok());
  ASSERT_TRUE(fx.wal->FreeNode(a).ok());
  ASSERT_TRUE(fx.wal->Commit().ok());
  NodeId again;
  ASSERT_TRUE(fx.wal->AllocateNode(&again).ok());
  ASSERT_EQ(again, a);  // the free list hands back the last freed slot
  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(a, 0x53);
  ASSERT_TRUE(fx.wal->Commit().ok());

  // Crash and reopen: a new inner store over the same pages (the free list
  // lived in memory) and the log, which still holds all three transactions.
  PagerNodeStore reopened(&fx.pager);
  auto wal_or = WalNodeStore::Open(&reopened, fx.log_path);
  ASSERT_TRUE(wal_or.ok());
  auto recovered = std::move(wal_or).value();
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(recovered->wal_stats().transactions_replayed, 3u);
  EXPECT_EQ(reopened.FreeListLength(), 1u);
  NodeId next;
  ASSERT_TRUE(recovered->AllocateNode(&next).ok());
  EXPECT_EQ(next, b);
  uint8_t page[kPageSize];
  ASSERT_TRUE(reopened.ReadNode(a, page).ok());
  EXPECT_EQ(page[0], 0x53);
}

// Satellite 3 regression: several complete BEGIN-without-COMMIT frames must
// each count as a discarded transaction, not collapse into one.
TEST(WalCrashMatrix, EachDiscardedTransactionIsCounted) {
  Fixture fx("wal_crash_multi_discard.log");
  fx.wal.reset();
  {
    std::ofstream f(fx.log_path, std::ios::binary | std::ios::trunc);
    for (int i = 0; i < 2; ++i) {
      const uint8_t payload[1] = {wal::kRecBegin};
      uint8_t header[wal::kFrameHeaderSize];
      StoreU32(header, 1);
      StoreU32(header + 4, Crc32(payload, sizeof(payload)));
      f.write(reinterpret_cast<const char*>(header), sizeof(header));
      f.write(reinterpret_cast<const char*>(payload), sizeof(payload));
    }
  }
  auto wal_or = WalNodeStore::Open(&fx.inner, fx.log_path);
  ASSERT_TRUE(wal_or.ok());
  auto recovered = std::move(wal_or).value();
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(recovered->wal_stats().transactions_discarded, 2u);
  EXPECT_EQ(recovered->wal_stats().transactions_replayed, 0u);
  EXPECT_EQ(recovered->wal_stats().crc_failures, 0u);
}

// Satellite 2 regression: a short ::write (EINTR or partial) must not leave
// a torn record behind — the commit path retries the remainder.
TEST(WalStore, ShortWritesAreRetriedToCompletion) {
  Fixture fx("wal_short_write.log");
  std::atomic<int> calls{0};
  fx.wal->SetWriteHookForTesting(
      [&calls](int fd, const uint8_t* data, size_t size) -> ssize_t {
        const int call = calls.fetch_add(1);
        if (call == 0) {
          errno = EINTR;  // first attempt: interrupted before any byte
          return -1;
        }
        // Then dribble out at most 100 bytes per call.
        const size_t n = std::min<size_t>(size, 100);
        return ::write(fd, data, n);
      });
  NodeId id;
  ASSERT_TRUE(fx.wal->AllocateNode(&id).ok());
  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(id, 0x51);
  ASSERT_TRUE(fx.wal->CommitWithCrashBeforeApply().ok());
  EXPECT_GT(calls.load(), 2);  // the frame really did go out in pieces
  fx.wal->SetWriteHookForTesting(nullptr);

  auto wal_or = WalNodeStore::Open(&fx.inner, fx.log_path);
  ASSERT_TRUE(wal_or.ok());
  auto recovered = std::move(wal_or).value();
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(recovered->wal_stats().transactions_replayed, 1u);
  EXPECT_EQ(recovered->wal_stats().transactions_discarded, 0u);
  uint8_t page[kPageSize];
  ASSERT_TRUE(fx.inner.ReadNode(id, page).ok());
  EXPECT_EQ(page[0], 0x51);
}

// A commit whose log append fails ends its transaction: its writes are
// dropped, reads see the committed state and the next Begin() works. Both
// the built-in session and a WalTxn handle.
TEST(WalStore, FailedAppendEndsTheTransaction) {
  Fixture fx("wal_failed_append.log");
  NodeId id;
  ASSERT_TRUE(fx.wal->AllocateNode(&id).ok());
  fx.WriteByte(id, 0x60);  // write-through: the committed state
  fx.wal->SetWriteHookForTesting([](int, const uint8_t*, size_t) -> ssize_t {
    errno = EIO;
    return -1;
  });
  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(id, 0x61);
  EXPECT_TRUE(fx.wal->Commit().IsIOError());
  EXPECT_FALSE(fx.wal->in_transaction());
  EXPECT_EQ(fx.ReadByte(id), 0x60);

  auto txn = fx.wal->BeginConcurrent();
  uint8_t page[kPageSize];
  std::memset(page, 0x62, sizeof(page));
  ASSERT_TRUE(txn->WriteNode(id, page).ok());
  EXPECT_TRUE(txn->Commit().IsIOError());
  EXPECT_FALSE(txn->open());
  EXPECT_EQ(fx.ReadByte(id), 0x60);

  fx.wal->SetWriteHookForTesting(nullptr);
  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(id, 0x63);
  ASSERT_TRUE(fx.wal->Commit().ok());
  EXPECT_EQ(fx.ReadByte(id), 0x63);
  EXPECT_EQ(fx.wal->wal_stats().transactions_committed, 1u);
}

// An append that fails halfway leaves no torn frame in the log: a later
// commit lands where the failed one began, and recovery replays it.
TEST(WalStore, FailedAppendLeavesNoTornFrame) {
  Fixture fx("wal_torn_append.log");
  NodeId first;
  NodeId second;
  ASSERT_TRUE(fx.wal->AllocateNode(&first).ok());
  ASSERT_TRUE(fx.wal->AllocateNode(&second).ok());
  int calls = 0;
  fx.wal->SetWriteHookForTesting(
      [&calls](int fd, const uint8_t* data, size_t size) -> ssize_t {
        if (calls++ == 0) return ::write(fd, data, size / 2);
        errno = EIO;
        return -1;
      });
  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(first, 0x71);
  EXPECT_TRUE(fx.wal->Commit().IsIOError());
  EXPECT_EQ(calls, 2);  // half a frame went out before the failure
  fx.wal->SetWriteHookForTesting(nullptr);

  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(second, 0x72);
  ASSERT_TRUE(fx.wal->CommitWithCrashBeforeApply().ok());

  auto wal_or = WalNodeStore::Open(&fx.inner, fx.log_path);
  ASSERT_TRUE(wal_or.ok());
  auto recovered = std::move(wal_or).value();
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(recovered->wal_stats().transactions_replayed, 1u);
  EXPECT_EQ(recovered->wal_stats().transactions_discarded, 0u);
  EXPECT_EQ(recovered->wal_stats().crc_failures, 0u);
  uint8_t page[kPageSize];
  ASSERT_TRUE(fx.inner.ReadNode(second, page).ok());
  EXPECT_EQ(page[0], 0x72);
  ASSERT_TRUE(fx.inner.ReadNode(first, page).ok());
  EXPECT_EQ(page[0], 0x00);  // the failed commit never happened
}

// ----------------------------------------------------------- group commit --

TEST(WalGroupCommit, ConcurrentCommitsShareFsyncs) {
  WalOptions options;
  options.max_batch = 16;
  options.max_wait_us = 2000;  // linger so batches actually form
  Fixture fx("wal_group_commit.log", options);
  constexpr int kThreads = 16;
  constexpr int kTxnsPerThread = 25;
  // One private node per thread so transactions never overlap.
  std::vector<NodeId> ids(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(fx.wal->AllocateNode(&ids[t]).ok());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 1; i <= kTxnsPerThread; ++i) {
        auto txn = fx.wal->BeginConcurrent();
        uint8_t page[kPageSize];
        std::memset(page, static_cast<uint8_t>(i), sizeof(page));
        if (!txn->WriteNode(ids[t], page).ok() || !txn->Commit().ok()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);

  const WalStats stats = fx.wal->wal_stats();
  EXPECT_EQ(stats.transactions_committed,
            static_cast<uint64_t>(kThreads) * kTxnsPerThread);
  // The whole point of group commit: strictly fewer fsyncs than commits.
  EXPECT_LT(stats.syncs, stats.transactions_committed);
  EXPECT_GT(stats.group_commits, 0u);
  EXPECT_GT(stats.batched_commits, 0u);
  EXPECT_EQ(stats.fsyncs_saved, stats.batched_commits);
  // Every thread's last image must be durable and applied.
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(fx.ReadByte(ids[t]), static_cast<uint8_t>(kTxnsPerThread));
  }
}

TEST(WalGroupCommit, TxnHandleRejectsUseAfterCommit) {
  Fixture fx("wal_txn_reuse.log");
  NodeId id;
  ASSERT_TRUE(fx.wal->AllocateNode(&id).ok());
  auto txn = fx.wal->BeginConcurrent();
  uint8_t page[kPageSize] = {0x61};
  ASSERT_TRUE(txn->WriteNode(id, page).ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_FALSE(txn->open());
  EXPECT_FALSE(txn->WriteNode(id, page).ok());
  EXPECT_FALSE(txn->Commit().ok());
}

TEST(WalGroupCommit, RollbackOfConcurrentTxnDiscardsWrites) {
  Fixture fx("wal_txn_rollback.log");
  NodeId id;
  ASSERT_TRUE(fx.wal->AllocateNode(&id).ok());
  auto txn = fx.wal->BeginConcurrent();
  uint8_t page[kPageSize];
  std::memset(page, 0x62, sizeof(page));
  ASSERT_TRUE(txn->WriteNode(id, page).ok());
  ASSERT_TRUE(txn->Rollback().ok());
  EXPECT_EQ(fx.ReadByte(id), 0x00);
  EXPECT_EQ(fx.wal->wal_stats().transactions_committed, 0u);
}

// ------------------------------------------------------ size checkpointing --

TEST(WalStore, LogSizeTriggersCheckpoint) {
  WalOptions options;
  options.checkpoint_log_bytes = 16 << 10;  // a handful of page images
  Fixture fx("wal_auto_checkpoint.log", options);
  NodeId id;
  ASSERT_TRUE(fx.wal->AllocateNode(&id).ok());
  for (uint8_t round = 1; round <= 8; ++round) {
    ASSERT_TRUE(fx.wal->Begin().ok());
    fx.WriteByte(id, round);
    ASSERT_TRUE(fx.wal->Commit().ok());
  }
  const WalStats stats = fx.wal->wal_stats();
  EXPECT_GT(stats.checkpoints, 0u);
  // The log was truncated along the way, so it holds fewer frames than
  // eight commits would otherwise have left behind.
  EXPECT_LT(std::filesystem::file_size(fx.log_path),
            8 * (wal::kFrameHeaderSize + 2 + 9 + kPageSize));
  EXPECT_EQ(fx.ReadByte(id), 8);
}

TEST(WalStore, TraceReportsRecoveryAndCheckpoints) {
  TraceFacility trace;
  trace.SetClass("wal", 2);
  Fixture fx("wal_trace.log");
  fx.wal->set_trace(&trace);
  NodeId id;
  ASSERT_TRUE(fx.wal->AllocateNode(&id).ok());
  ASSERT_TRUE(fx.wal->Begin().ok());
  fx.WriteByte(id, 0x71);
  ASSERT_TRUE(fx.wal->Commit().ok());
  ASSERT_TRUE(fx.wal->Checkpoint().ok());
  ASSERT_TRUE(fx.wal->Recover().ok());
  EXPECT_FALSE(trace.log().empty());
}

}  // namespace
}  // namespace grtdb
