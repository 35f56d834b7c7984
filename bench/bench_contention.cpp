// bench_contention: self-checking gate for the contention observatory.
// Three checks, each a hard pass/fail:
//   (a) heat ranking — a seeded skewed workload (one index hammered, one
//       touched once) must put the hammered index's node at the top of
//       sys_hot_nodes;
//   (b) lock-wait attribution — a seeded holder pins a table's X lock
//       while workers block on it; >= 90% of all lock-wait nanoseconds in
//       sys_contention must land on the seeded resource, and the seeded
//       row must count every blocked worker;
//   (c) dormant overhead — NodeCache reads with the heat tracker wired
//       but disabled vs never wired at all, interleaved ABBA
//       min-of-rounds (bench::InterleavedMinMs): the disarmed gate must
//       cost < 5% (plus 1 ms absolute slack). Sanitizer builds skip the
//       percentage gate — instrumentation skews the two loops unevenly —
//       but still run the loops.
// `--smoke` shrinks the workload for the ctest smoke label; `--out FILE`
// writes the measured numbers as JSON next to the BENCH_net.json family.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "blades/grtree_blade.h"
#include "obs/heat_tracker.h"
#include "server/server.h"
#include "storage/node_cache.h"
#include "storage/pager.h"
#include "storage/space.h"

namespace grtdb {
namespace {

int g_rows = 96;
int g_hot_scans = 240;
int g_workers = 4;
int g_hold_ms = 80;
int g_cache_nodes = 64;
int g_cache_reads_per_round = 128000;
int g_cache_rounds = 5;

struct Results {
  std::string top_store;
  double top_heat = 0.0;
  uint64_t wait_total_ns = 0;
  uint64_t wait_seeded_ns = 0;
  uint64_t seeded_waits = 0;
  double seeded_pct = 0.0;
  double plain_ms = 0.0;
  double wired_ms = 0.0;
  double overhead_pct = 0.0;
  bool ok = true;
};

// ---- (a) heat ranking -----------------------------------------------------

void CheckHeatRanking(Server& server, ServerSession* session, Results* r) {
  // Two identical indexed tables; the tracker is armed only after the
  // load, so ranked heat is pure query traffic.
  for (const char* name : {"hot", "cold"}) {
    bench::Exec(server, session,
                std::string("CREATE TABLE ") + name +
                    " (id int, e grt_timeextent)");
    bench::Exec(server, session,
                std::string("CREATE INDEX ") + name + "_idx ON " + name +
                    "(e grt_opclass) USING grtree_am");
  }
  bench::Exec(server, session, "SET CURRENT_TIME TO 20000");
  for (int i = 0; i < g_rows; ++i) {
    const int64_t vt1 = 18000 + (i * 7) % 2000;
    for (const char* name : {"hot", "cold"}) {
      bench::Exec(server, session,
                  std::string("INSERT INTO ") + name + " VALUES (" +
                      std::to_string(i) + ", '20000, 20001, " +
                      std::to_string(vt1) + ", " + std::to_string(vt1 + 40) +
                      "')");
    }
  }
  bench::Exec(server, session, "SET HEAT_TRACK = 1");

  // The skew: the hot index serves g_hot_scans overlap queries, the cold
  // one exactly one.
  for (int q = 0; q < g_hot_scans; ++q) {
    const int64_t vt = 18000 + (q * 131) % 1900;
    bench::Exec(server, session,
                "SELECT COUNT(*) FROM hot WHERE Overlaps(e, '20000, 20001, " +
                    std::to_string(vt) + ", " + std::to_string(vt + 100) +
                    "')");
  }
  bench::Exec(server, session,
              "SELECT COUNT(*) FROM cold WHERE Overlaps(e, "
              "'20000, 20001, 18500, 18600')");

  ResultSet heat = bench::Exec(server, session,
                               "SELECT * FROM sys_hot_nodes");
  if (heat.rows.empty()) {
    std::fprintf(stderr, "FATAL: sys_hot_nodes is empty after the skewed "
                 "workload\n");
    r->ok = false;
    return;
  }
  r->top_store = heat.rows[0][0];
  r->top_heat = std::atof(heat.rows[0][2].c_str());
  std::printf("heat ranking: top node is %s:%s (heat %s, %zu nodes "
              "tracked)\n",
              heat.rows[0][0].c_str(), heat.rows[0][1].c_str(),
              heat.rows[0][2].c_str(), heat.rows.size());
  if (r->top_store != "hot_idx") {
    std::fprintf(stderr, "FATAL: seeded hot node not top-1 in "
                 "sys_hot_nodes (top store is '%s', want 'hot_idx')\n",
                 r->top_store.c_str());
    r->ok = false;
  }
}

// ---- (b) lock-wait attribution --------------------------------------------

void CheckWaitAttribution(Server& server, ServerSession* holder, Results* r) {
  bench::Exec(server, holder, "CREATE TABLE contended (id int)");

  // Seed: the holder pins contended's X lock in an explicit transaction
  // while every worker blocks on its own INSERT.
  bench::Exec(server, holder, "BEGIN WORK");
  bench::Exec(server, holder, "INSERT INTO contended VALUES (0)");
  const TxnId holder_txn = holder->txn_session().current_txn()->id();

  std::vector<ServerSession*> workers;
  for (int w = 0; w < g_workers; ++w) workers.push_back(server.CreateSession());
  std::vector<std::thread> threads;
  for (int w = 0; w < g_workers; ++w) {
    threads.emplace_back([&server, &workers, w] {
      ResultSet result;
      // Granted once the holder commits; a timeout would still feed
      // sys_contention, which is what the gate reads.
      Status status = server.Execute(
          workers[w],
          "INSERT INTO contended VALUES (" + std::to_string(1 + w) + ")",
          &result);
      (void)status;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(g_hold_ms));
  bench::Exec(server, holder, "COMMIT WORK");
  for (std::thread& t : threads) t.join();
  for (ServerSession* w : workers) bench::Check(server.CloseSession(w), "close");

  ResultSet contention =
      bench::Exec(server, holder, "SELECT * FROM sys_contention");
  for (const auto& row : contention.rows) {
    const uint64_t wait_ns = std::stoull(row[3]);
    r->wait_total_ns += wait_ns;
    if (row[0] == "table" && row[7] == std::to_string(holder_txn)) {
      r->wait_seeded_ns += wait_ns;
      r->seeded_waits += std::stoull(row[2]);
    }
  }
  r->seeded_pct = r->wait_total_ns == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(r->wait_seeded_ns) /
                            static_cast<double>(r->wait_total_ns);
  std::printf("lock waits: %llu ns total, %llu ns (%s%%) on the seeded "
              "table across %llu waits\n",
              static_cast<unsigned long long>(r->wait_total_ns),
              static_cast<unsigned long long>(r->wait_seeded_ns),
              bench::Fmt(r->seeded_pct, 1).c_str(),
              static_cast<unsigned long long>(r->seeded_waits));
  if (r->wait_seeded_ns == 0 || r->seeded_pct < 90.0) {
    std::fprintf(stderr, "FATAL: seeded resource carries %.1f%% of the "
                 "lock-wait ns, want >= 90%%\n", r->seeded_pct);
    r->ok = false;
  }
  if (r->seeded_waits < static_cast<uint64_t>(g_workers)) {
    std::fprintf(stderr, "FATAL: seeded row counts %llu waits, want >= %d "
                 "(one per blocked worker)\n",
                 static_cast<unsigned long long>(r->seeded_waits), g_workers);
    r->ok = false;
  }
}

// ---- (c) dormant overhead -------------------------------------------------

// One cache stack over its own in-memory store, optionally with the heat
// tracker wired (and left disabled — the dormant configuration).
struct CacheStack {
  MemorySpace space;
  std::unique_ptr<Pager> pager;
  std::unique_ptr<PagerNodeStore> inner;
  std::unique_ptr<NodeCache> cache;
  std::vector<NodeId> ids;

  explicit CacheStack(obs::HeatTracker* heat) {
    pager = std::make_unique<Pager>(&space, /*capacity=*/256);
    inner = std::make_unique<PagerNodeStore>(pager.get());
    cache = std::make_unique<NodeCache>(inner.get(),
                                        /*capacity=*/g_cache_nodes * 2);
    if (heat != nullptr) cache->set_heat(heat, "bench_contention");
    uint8_t page[kPageSize] = {0x5a};
    for (int i = 0; i < g_cache_nodes; ++i) {
      NodeId id;
      bench::Check(cache->AllocateNode(&id), "AllocateNode");
      bench::Check(cache->WriteNode(id, page), "WriteNode");
      ids.push_back(id);
    }
  }

  double ReadRoundMs() {
    uint8_t page[kPageSize];
    bench::Timer timer;
    for (int i = 0; i < g_cache_reads_per_round; ++i) {
      bench::Check(cache->ReadNode(ids[i % ids.size()], page), "ReadNode");
    }
    return timer.ElapsedMs();
  }
};

void CheckDormantOverhead(Results* r) {
  obs::HeatTracker tracker;  // constructed disabled: the dormant gate
  CacheStack plain(nullptr);
  CacheStack wired(&tracker);

  const bench::MinRounds t = bench::InterleavedMinMs(
      g_cache_rounds, [&wired] { return wired.ReadRoundMs(); },
      [&plain] { return plain.ReadRoundMs(); });
  r->wired_ms = t.a_ms;
  r->plain_ms = t.b_ms;
  r->overhead_pct = (r->wired_ms - r->plain_ms) / r->plain_ms * 100.0;
  const double overhead_ms = r->wired_ms - r->plain_ms;

  bench::TablePrinter table({"config", "round min (ms)", "per read (ns)"});
  table.AddRow({"heat unwired", bench::Fmt(r->plain_ms, 3),
                bench::Fmt(r->plain_ms * 1e6 / g_cache_reads_per_round, 1)});
  table.AddRow({"heat wired, off", bench::Fmt(r->wired_ms, 3),
                bench::Fmt(r->wired_ms * 1e6 / g_cache_reads_per_round, 1)});
  table.Print();
  std::printf("dormant overhead: %s%% (%s ms absolute)\n",
              bench::Fmt(r->overhead_pct, 2).c_str(),
              bench::Fmt(overhead_ms, 3).c_str());

  if (!bench::kSanitized && r->overhead_pct >= 5.0 && overhead_ms >= 1.0) {
    std::fprintf(stderr, "FATAL: dormant heat tracking costs %.2f%%, "
                 "exceeds the 5%% target\n", r->overhead_pct);
    r->ok = false;
  }
  // The dormant configuration must also record nothing.
  if (!tracker.Snapshot().empty() || tracker.dropped() != 0) {
    std::fprintf(stderr, "FATAL: disabled heat tracker recorded traffic\n");
    r->ok = false;
  }
}

// ---- driver ---------------------------------------------------------------

void WriteJson(const std::string& path, const Results& r, bool smoke) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"bench\": \"contention\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"top_store\": \"" << r.top_store << "\",\n"
      << "  \"top_heat\": " << r.top_heat << ",\n"
      << "  \"wait_total_ns\": " << r.wait_total_ns << ",\n"
      << "  \"wait_seeded_ns\": " << r.wait_seeded_ns << ",\n"
      << "  \"seeded_pct\": " << r.seeded_pct << ",\n"
      << "  \"seeded_waits\": " << r.seeded_waits << ",\n"
      << "  \"dormant_plain_ms\": " << r.plain_ms << ",\n"
      << "  \"dormant_wired_ms\": " << r.wired_ms << ",\n"
      << "  \"dormant_overhead_pct\": " << r.overhead_pct << ",\n"
      << "  \"checks_passed\": " << (r.ok ? "true" : "false") << "\n"
      << "}\n";
  if (!out) {
    std::fprintf(stderr, "bench_contention: cannot write %s\n", path.c_str());
  }
}

int Run(bool smoke, const std::string& out_path) {
  if (smoke) {
    g_rows = 48;
    g_hot_scans = 60;
    g_hold_ms = 25;
    g_cache_reads_per_round = 16000;
    g_cache_rounds = 2;
  }
  std::printf("bench_contention: %d rows, %d hot scans, %d blocked workers, "
              "%d ms hold, %d cache reads/round%s\n\n",
              g_rows, g_hot_scans, g_workers, g_hold_ms,
              g_cache_reads_per_round, smoke ? " [smoke]" : "");

  Server server;
  bench::Check(RegisterGRTreeBlade(&server), "RegisterGRTreeBlade");
  ServerSession* session = server.CreateSession();

  Results results;
  CheckHeatRanking(server, session, &results);
  CheckWaitAttribution(server, session, &results);
  CheckDormantOverhead(&results);

  if (!out_path.empty()) WriteJson(out_path, results, smoke);
  if (results.ok) std::printf("\nbench_contention: all checks passed\n");
  return results.ok ? 0 : 1;
}

}  // namespace
}  // namespace grtdb

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_contention [--smoke] [--out FILE]\n");
      return 2;
    }
  }
  return grtdb::Run(smoke, out_path);
}
