// Stress harness for the node cache's reader-writer latch: concurrent
// index scans share one NodeCache (the pattern the blades create), and a
// mixed allocate/write/read/free workload hammers a tiny cache so every
// call path — hits, misses, evictions, write-backs — runs under
// contention. Registered as the plain ctest target `cache_stress`; build
// with -DGRTDB_SANITIZE=thread to run it under TSan alongside wal_stress.

#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/grtree.h"
#include "obs/metrics.h"
#include "storage/node_cache.h"
#include "storage/node_store.h"
#include "storage/pager.h"
#include "storage/sbspace.h"
#include "storage/space.h"
#ifdef GRTDB_WITNESS
#include "txn/witness.h"
#endif
#include "temporal/predicates.h"

namespace grtdb {
namespace {

constexpr int kThreads = 8;

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "cache_stress: %s: %s\n", what,
               status.ToString().c_str());
  return 1;
}

// Scenario 1: one tree per thread, all over the same shared cache —
// concurrent searches must be race-free and see identical results, and
// the cache's striped counters must count every read exactly once.
int ConcurrentScans() {
  MemorySpace space;
  Pager pager(&space, 512);
  PagerNodeStore base(&pager);
  NodeCache cache(&base, 64);

  GRTree::Options options;
  options.max_entries = 16;
  NodeId anchor = kInvalidNodeId;
  auto tree_or = GRTree::Create(&cache, options, &anchor);
  if (!tree_or.ok()) return Fail("create", tree_or.status());
  auto tree = std::move(tree_or).value();
  constexpr int kExtents = 400;
  for (int i = 0; i < kExtents; ++i) {
    const int64_t tt = 10 + (i % 97) * 3;
    Status s = tree->Insert(
        TimeExtent::Ground(tt, tt + 5, tt - 5, tt + 20), i + 1, 1000);
    if (!s.ok()) return Fail("insert", s);
  }
  Status flushed = cache.Flush();
  if (!flushed.ok()) return Fail("flush", flushed);

  const TimeExtent query = TimeExtent::Ground(10, 300, 0, 320);
  constexpr int kRounds = 25;
  // The reads one thread's open and one scan take, counted alone.
  uint64_t open_reads = 0;
  uint64_t scan_reads = 0;
  {
    cache.ResetStats();
    auto alone_or = GRTree::Open(&cache, anchor, options);
    if (!alone_or.ok()) return Fail("open", alone_or.status());
    open_reads = cache.stats().node_reads;
    std::vector<GRTree::Entry> results;
    Status s = alone_or.value()->SearchAll(PredicateOp::kOverlaps, query,
                                           1000, &results);
    if (!s.ok()) return Fail("scan", s);
    scan_reads = cache.stats().node_reads - open_reads;
  }
  cache.ResetStats();
  obs::MetricsRegistry registry;
  cache.set_metrics(&registry);

  std::vector<size_t> counts(kThreads, 0);
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto mine_or = GRTree::Open(&cache, anchor, options);
      if (!mine_or.ok()) {
        failures[t] = 1;
        return;
      }
      auto mine = std::move(mine_or).value();
      for (int round = 0; round < kRounds; ++round) {
        std::vector<GRTree::Entry> results;
        Status s = mine->SearchAll(PredicateOp::kOverlaps, query, 1000,
                                   &results);
        if (!s.ok() || results.empty()) {
          failures[t] = 1;
          return;
        }
        if (counts[t] != 0 && counts[t] != results.size()) {
          failures[t] = 1;  // scans must be stable — nothing is mutating
          return;
        }
        counts[t] = results.size();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    if (failures[t] != 0 || counts[t] != counts[0]) {
      std::fprintf(stderr, "cache_stress: scan thread %d diverged\n", t);
      return 1;
    }
  }
  const NodeStoreStats stats = cache.stats();
  if (stats.cache_hits == 0) {
    std::fprintf(stderr, "cache_stress: no cache hits under scans?\n");
    return 1;
  }
  const uint64_t expected = kThreads * (open_reads + kRounds * scan_reads);
  const uint64_t registry_hits = registry.GetCounter("cache.hits")->value();
  if (stats.cache_hits + stats.cache_misses != stats.node_reads ||
      stats.node_reads != expected || registry_hits != stats.cache_hits) {
    std::fprintf(stderr,
                 "cache_stress: counts disagree: hits %llu + misses %llu, "
                 "reads %llu, expected %llu, registry hits %llu\n",
                 static_cast<unsigned long long>(stats.cache_hits),
                 static_cast<unsigned long long>(stats.cache_misses),
                 static_cast<unsigned long long>(stats.node_reads),
                 static_cast<unsigned long long>(expected),
                 static_cast<unsigned long long>(registry_hits));
    return 1;
  }
  std::printf(
      "cache_stress: scans OK (%zu results/scan, %.1f%% hit rate, %llu "
      "reads counted exactly)\n",
      counts[0], 100.0 * stats.cache_hit_rate(),
      static_cast<unsigned long long>(stats.node_reads));
  return 0;
}

// Scenario 2: a 8-frame cache over a single-LO store, all four NodeStore
// verbs from every thread at once, with read-back verification. The tiny
// capacity keeps eviction and write-back on the hot path.
int MixedChurn() {
  MemorySpace space;
  auto sbspace_or = Sbspace::Open(&space, 256);
  if (!sbspace_or.ok()) return Fail("sbspace", sbspace_or.status());
  auto sbspace = std::move(sbspace_or).value();
  auto store_or = SingleLoNodeStore::Open(sbspace.get(), LoHandle{});
  if (!store_or.ok()) return Fail("open", store_or.status());
  auto base = std::move(store_or).value();
  NodeCache cache(base.get(), 8);

  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint8_t> page(kPageSize), read(kPageSize);
      for (int i = 0; i < 200; ++i) {
        NodeId id;
        if (!cache.AllocateNode(&id).ok()) { failures[t] = 1; return; }
        std::memset(page.data(), static_cast<uint8_t>(t * 31 + i), kPageSize);
        if (!cache.WriteNode(id, page.data()).ok()) { failures[t] = 1; return; }
        if (!cache.ReadNode(id, read.data()).ok()) { failures[t] = 1; return; }
        if (std::memcmp(page.data(), read.data(), kPageSize) != 0) {
          failures[t] = 1;
          return;
        }
        // Zero-copy path too: the view pins its frame against eviction.
        NodeView view;
        if (!cache.ViewNode(id, &view).ok()) { failures[t] = 1; return; }
        if (view.data()[17] != page[17]) { failures[t] = 1; return; }
        view.Reset();
        if (i % 2 == 0 && !cache.FreeNode(id).ok()) { failures[t] = 1; return; }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    if (failures[t] != 0) {
      std::fprintf(stderr, "cache_stress: churn thread %d failed\n", t);
      return 1;
    }
  }
  Status flushed = cache.Flush();
  if (!flushed.ok()) return Fail("final flush", flushed);
  const NodeStoreStats stats = cache.stats();
  std::printf(
      "cache_stress: churn OK (%llu evictions, %llu write-backs)\n",
      static_cast<unsigned long long>(stats.cache_evictions),
      static_cast<unsigned long long>(stats.cache_write_backs));
  return 0;
}

int Run() {
  int rc = ConcurrentScans();
  if (rc != 0) return rc;
  return MixedChurn();
}

}  // namespace
}  // namespace grtdb


// Under GRTDB_WITNESS every latch/lock acquisition in the run fed the
// order graph; a stress run is only clean if no inversion was recorded.
static int WitnessVerdict() {
#ifdef GRTDB_WITNESS
  auto& witness = grtdb::witness::Witness::Global();
  for (const auto& report : witness.reports()) {
    std::fprintf(stderr, "%s\n", report.ToString().c_str());
  }
  if (witness.cycles_reported() != 0) return 1;
  std::printf("witness: no lock-order inversions\n");
#endif
  return 0;
}

int main() {
  const int rc = grtdb::Run();
  const int witness_rc = WitnessVerdict();
  return rc != 0 ? rc : witness_rc;
}
