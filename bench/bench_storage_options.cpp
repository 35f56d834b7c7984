// T8 — §5.3 storage options, concurrency, and recovery. Runs the same
// multi-session workload against each index-storage layout available to a
// DataBlade: one large object for the whole index (the prototype's
// choice), one LO per node, one LO per subtree, and a regular OS file.
// Reports throughput, LO-lock waits/timeouts, and LO opens — quantifying
// the paper's point that automatic LO-granularity two-phase locking makes
// "industrial strength" concurrency impossible (a single-LO index
// serializes writers entirely), while the OS-file option has no locking
// (or recovery) at all unless the developer builds it.

#include <atomic>
#include <cstdio>
#include <thread>

#include <set>

#include "bench/bench_util.h"
#include "core/grtree.h"
#include "storage/wal_store.h"
#include "blades/grtree_blade.h"
#include "workload/workload.h"

namespace grtdb {
namespace {

using bench::Fmt;
using bench::TablePrinter;

struct RunResult {
  double wall_ms = 0.0;
  uint64_t statements = 0;
  uint64_t lock_waits = 0;
  uint64_t lock_timeouts = 0;
  uint64_t lock_acquisitions = 0;  // table and LO locks
  // Reads and write-backs the index's node cache sent to the layout: on
  // the per-node and per-subtree layouts, one LO open each.
  uint64_t node_io = 0;
  uint64_t failed = 0;
};

RunResult RunLayout(GRTreeBladeOptions::Storage storage,
                    uint64_t nodes_per_lo, int sessions, int per_session) {
  Server server;
  GRTreeBladeOptions options;
  options.storage = storage;
  options.nodes_per_lo = nodes_per_lo;
  options.external_dir = "/tmp";
  bench::Check(RegisterGRTreeBlade(&server, options), "register");
  ServerSession* admin = server.CreateSession();
  bench::Exec(server, admin, "CREATE TABLE t (id int, e grt_timeextent)");
  bench::Exec(server, admin,
              "CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am");
  bench::Exec(server, admin, "SET CURRENT_TIME TO 20000");
  // Preload so scans traverse a real tree.
  for (int i = 0; i < 600; ++i) {
    bench::Exec(server, admin,
                "INSERT INTO t VALUES (" + std::to_string(i) +
                    ", '20000, UC, " + std::to_string(19000 + (i % 900)) +
                    ", NOW')");
  }
  server.lock_manager().ResetStats();
  obs::Counter* misses = server.metrics().GetCounter("cache.misses");
  obs::Counter* write_backs = server.metrics().GetCounter("cache.write_backs");
  const uint64_t io_before = misses->value() + write_backs->value();

  std::atomic<uint64_t> statements{0};
  std::atomic<uint64_t> failed{0};
  bench::Timer timer;
  std::vector<std::thread> threads;
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      ServerSession* session = server.CreateSession();
      ResultSet result;
      Random rng(1000 + s);
      for (int i = 0; i < per_session; ++i) {
        std::string sql;
        if (rng.Bernoulli(0.5)) {
          // Reader.
          const int64_t vt = 19000 + rng.UniformRange(0, 900);
          sql = "SELECT COUNT(*) FROM t WHERE Overlaps(e, '20000, 20000, " +
                std::to_string(vt) + ", " + std::to_string(vt + 20) + "')";
        } else {
          // Writer.
          sql = "INSERT INTO t VALUES (" +
                std::to_string(100000 + s * per_session + i) +
                ", '20000, UC, " +
                std::to_string(19000 + rng.UniformRange(0, 900)) + ", NOW')";
        }
        Status status = server.Execute(session, sql, &result);
        ++statements;
        if (!status.ok()) ++failed;  // lock timeouts under contention
      }
      server.CloseSession(session);
    });
  }
  for (auto& thread : threads) thread.join();

  RunResult out;
  out.wall_ms = timer.ElapsedMs();
  out.statements = statements;
  out.failed = failed;
  out.lock_waits = server.lock_manager().stats().waits;
  out.lock_timeouts = server.lock_manager().stats().timeouts;
  out.lock_acquisitions = server.lock_manager().stats().acquisitions;
  out.node_io = misses->value() + write_backs->value() - io_before;
  server.CloseSession(admin);
  return out;
}

}  // namespace
}  // namespace grtdb

int main() {
  using namespace grtdb;
  std::printf("T8: index storage options under concurrency (§5.3)\n");
  std::printf("(4 sessions x 250 statements, 50%% readers / 50%% writers; "
              "LO locks are two-phase: X locks live to transaction end)\n\n");

  struct Layout {
    const char* name;
    GRTreeBladeOptions::Storage storage;
    uint64_t nodes_per_lo;
  };
  const Layout layouts[] = {
      {"single LO (paper's choice)", GRTreeBladeOptions::Storage::kSingleLo,
       0},
      {"one LO per node", GRTreeBladeOptions::Storage::kLoPerNode, 1},
      {"one LO per subtree (16 nodes)",
       GRTreeBladeOptions::Storage::kLoPerSubtree, 16},
      {"OS file (no locking at all)",
       GRTreeBladeOptions::Storage::kExternalFile, 0},
  };

  bench::TablePrinter table({"layout", "stmts/s", "lock waits",
                             "lock timeouts", "failed stmts",
                             "lock acq/stmt", "node I/O/stmt",
                             "handle bytes/entry"});
  for (const Layout& layout : layouts) {
    RunResult result = RunLayout(layout.storage, layout.nodes_per_lo,
                                 /*sessions=*/4, /*per_session=*/250);
    const char* handle_cost =
        layout.storage == GRTreeBladeOptions::Storage::kLoPerNode
            ? "64 (LO handle per child pointer)"
            : "8";
    table.AddRow({layout.name,
                  bench::Fmt(1000.0 * static_cast<double>(result.statements) /
                                 result.wall_ms,
                             0),
                  std::to_string(result.lock_waits),
                  std::to_string(result.lock_timeouts),
                  std::to_string(result.failed),
                  bench::Fmt(static_cast<double>(result.lock_acquisitions) /
                                 static_cast<double>(result.statements),
                             2),
                  bench::Fmt(static_cast<double>(result.node_io) /
                                 static_cast<double>(result.statements),
                             2),
                  handle_cost});
  }
  table.Print();

  // Lock-footprint analysis: which resources would a scan/insert lock
  // under each layout? This is the §5.3 concurrency argument in numbers:
  // a single-LO index locks ONE resource covering everything, so any
  // reader conflicts with any writer; per-node LOs shrink the footprint
  // but the DataBlade still cannot release internal-node locks early
  // (no link-protocol is possible on top of LO two-phase locking).
  std::printf("\nLock footprint per operation (single-threaded analysis; "
              "smaller footprint / more resources = more potential "
              "concurrency):\n\n");
  {
    struct FootprintStore final : NodeStore {
      NodeStore* inner;
      std::set<uint64_t> touched;
      explicit FootprintStore(NodeStore* inner) : inner(inner) {}
      Status AllocateNode(NodeId* id) override {
        return inner->AllocateNode(id);
      }
      Status FreeNode(NodeId id) override { return inner->FreeNode(id); }
      Status ReadNode(NodeId id, uint8_t* out) override {
        touched.insert(inner->LoOfNode(id));
        return inner->ReadNode(id, out);
      }
      Status WriteNode(NodeId id, const uint8_t* data) override {
        touched.insert(inner->LoOfNode(id));
        return inner->WriteNode(id, data);
      }
      uint64_t LoOfNode(NodeId id) const override {
        return inner->LoOfNode(id);
      }
      Status Flush() override { return inner->Flush(); }
    };

    bench::TablePrinter footprint(
        {"layout", "lockable LOs", "avg LOs locked/query",
         "avg LOs locked/insert", "reader-writer conflict odds"});
    struct Shape {
      const char* name;
      uint64_t nodes_per_lo;  // 0 = single LO
    };
    for (const Shape& shape :
         {Shape{"single LO", 0}, Shape{"one LO per node", 1},
          Shape{"one LO per subtree (16)", 16}}) {
      MemorySpace backing;
      auto sbspace_or = Sbspace::Open(&backing, 2048);
      bench::Check(sbspace_or.status(), "sbspace");
      auto sbspace = std::move(sbspace_or).value();
      std::unique_ptr<NodeStore> base;
      if (shape.nodes_per_lo == 0) {
        auto store_or = SingleLoNodeStore::Open(sbspace.get(), LoHandle{});
        bench::Check(store_or.status(), "store");
        base = std::move(store_or).value();
      } else {
        base = std::make_unique<ClusteredLoNodeStore>(sbspace.get(),
                                                      shape.nodes_per_lo);
      }
      FootprintStore store(base.get());
      GRTree::Options tree_options;
      NodeId anchor;
      auto tree_or = GRTree::Create(&store, tree_options, &anchor);
      bench::Check(tree_or.status(), "tree");
      auto tree = std::move(tree_or).value();
      Random rng(5);
      const int64_t ct = 20000;
      for (uint64_t i = 1; i <= 4000; ++i) {
        TimeExtent extent(
            Timestamp::FromChronon(ct), Timestamp::UC(),
            Timestamp::FromChronon(ct - rng.UniformRange(0, 900)),
            Timestamp::NOW());
        bench::Check(tree->Insert(extent, i, ct), "insert");
      }
      // Count distinct LOs (resources) in the layout.
      uint64_t resources = 1;
      if (auto* clustered =
              dynamic_cast<ClusteredLoNodeStore*>(base.get())) {
        resources = clustered->cluster_handles().size();
      }
      double query_footprint = 0.0;
      const int kQueries = 200;
      for (int q = 0; q < kQueries; ++q) {
        store.touched.clear();
        const int64_t vt = ct - rng.UniformRange(0, 900);
        std::vector<GRTree::Entry> results;
        bench::Check(
            tree->SearchAll(PredicateOp::kOverlaps,
                            TimeExtent::Ground(ct, ct, vt, vt + 5), ct,
                            &results),
            "search");
        query_footprint += static_cast<double>(store.touched.size());
      }
      query_footprint /= kQueries;
      double insert_footprint = 0.0;
      const int kInserts = 200;
      for (int i = 0; i < kInserts; ++i) {
        store.touched.clear();
        TimeExtent extent(
            Timestamp::FromChronon(ct), Timestamp::UC(),
            Timestamp::FromChronon(ct - rng.UniformRange(0, 900)),
            Timestamp::NOW());
        bench::Check(tree->Insert(extent, 100000 + i, ct), "insert");
        insert_footprint += static_cast<double>(store.touched.size());
      }
      insert_footprint /= kInserts;
      const double odds =
          std::min(1.0, (query_footprint + insert_footprint) /
                            static_cast<double>(resources));
      footprint.AddRow({shape.name, std::to_string(resources),
                        bench::Fmt(query_footprint, 1),
                        bench::Fmt(insert_footprint, 1),
                        bench::Fmt(100.0 * odds, 1) + "%"});
    }
    footprint.Print();
  }

  // The recovery half of §5.3: what the OS-file option costs once the
  // developer builds the write-ahead logging the server will not provide.
  std::printf("\nOS-file recovery: the same insert workload bare vs. "
              "behind the write-ahead log (one transaction per insert):\n\n");
  {
    bench::TablePrinter recovery({"variant", "inserts", "ms", "fsyncs",
                                  "log bytes", "survives crash"});
    for (int variant = 0; variant < 2; ++variant) {
      MemorySpace backing;
      Pager pager(&backing, 4096);
      PagerNodeStore inner(&pager);
      std::unique_ptr<WalNodeStore> wal;
      NodeStore* store = &inner;
      const std::string log_path = "/tmp/grtdb_t8_wal.log";
      if (variant == 1) {
        std::remove(log_path.c_str());
        auto wal_or = WalNodeStore::Open(&inner, log_path);
        bench::Check(wal_or.status(), "wal");
        wal = std::move(wal_or).value();
        bench::Check(wal->Recover(), "recover");
        store = wal.get();
      }
      GRTree::Options tree_options;
      NodeId anchor;
      auto tree_or = GRTree::Create(store, tree_options, &anchor);
      bench::Check(tree_or.status(), "tree");
      auto tree = std::move(tree_or).value();
      Random rng(12);
      const int64_t ct = 20000;
      const int kInserts = 2000;
      bench::Timer timer;
      for (int i = 0; i < kInserts; ++i) {
        if (wal != nullptr) bench::Check(wal->Begin(), "begin");
        TimeExtent extent(
            Timestamp::FromChronon(ct), Timestamp::UC(),
            Timestamp::FromChronon(ct - rng.UniformRange(0, 900)),
            Timestamp::NOW());
        bench::Check(tree->Insert(extent, i + 1, ct), "insert");
        if (wal != nullptr) bench::Check(wal->Commit(), "commit");
      }
      const double ms = timer.ElapsedMs();
      recovery.AddRow(
          {variant == 0 ? "OS file, no logging (§5.3 default)"
                        : "OS file + developer-built WAL",
           std::to_string(kInserts), bench::Fmt(ms, 1),
           variant == 0 ? "0"
                        : std::to_string(wal->wal_stats().syncs),
           variant == 0 ? "0"
                        : std::to_string(wal->wal_stats().log_bytes),
           variant == 0 ? "NO (torn updates possible)" : "yes (redo log)"});
      if (variant == 1) std::remove(log_path.c_str());
    }
    recovery.Print();
  }

  std::printf(
      "\nReading the table with §5.3:\n"
      " * single LO: every reader/writer locks the whole index — waits and\n"
      "   timeouts concentrate here; simplest recovery story (one object).\n"
      " * LO per node: finest locking the sbspace offers, but each parent\n"
      "   entry must store a large LO handle and every node access is an\n"
      "   open/close of a large object.\n"
      " * LO per subtree: the in-between design the paper suggests\n"
      "   investigating.\n"
      " * OS file: no contention because there is NO locking (and no\n"
      "   recovery) — the developer would have to build both, which the\n"
      "   APIs give no help with.\n");
  return 0;
}
