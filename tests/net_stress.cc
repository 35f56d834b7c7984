// Multi-threaded network stress: N client threads drive one NetServer
// over loopback with a mix of committed write transactions, read-only
// probes, scripts that fail mid-statement, and abrupt reconnects — the
// session-lifetime paths (per-session duration teardown, rollback on
// disconnect, CloseSession ordering) under real concurrency. Two more
// tables carry GR-tree indexes, one in a single sbspace LO and one in an
// OS file behind its WAL. On top of that mix every session drives each
// index's shared store stack and node cache: index scans, committed index
// inserts and transactions abandoned mid-way. The fifth
// -DGRTDB_SANITIZE=thread target, next to wal/cache/obs/flight_stress:
// the interesting races are concurrent Execute against the shared
// catalog/lock-manager/metrics/node-cache state, and Stop() against live
// workers.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "blades/grtree_blade.h"
#include "net/net_client.h"
#include "net/net_server.h"
#ifdef GRTDB_WITNESS
#include "txn/witness.h"
#endif

using grtdb::ResultSet;
using grtdb::Server;
using grtdb::ServerOptions;
using grtdb::Status;
using grtdb::net::NetClient;
using grtdb::net::NetServer;
using grtdb::net::NetServerOptions;

namespace {

constexpr int kClients = 8;
constexpr int kOpsPerClient = 150;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    std::exit(1);
  }
}

// Contention verdicts are part of the workload; anything else is a bug.
bool Tolerable(const Status& status) {
  return status.ok() || status.IsLockTimeout() || status.IsDeadlock();
}

// The indexed tables: g's GR-tree lives in the default sbspace, f's in an
// OS file behind the blade's WAL.
constexpr const char* kIndexedTables[] = {"g", "f"};

// The valid-time start of client c's i-th index row: stairs
// '20000, UC, vt, NOW' whose vt spreads over [19900, 19999].
int IndexedVt(int c, int i) { return 19900 + (c * kOpsPerClient + i) % 100; }
std::string IndexedRow(const std::string& table, int a, int vt) {
  return "INSERT INTO " + table + " VALUES (" + std::to_string(a) +
         ", '20000, UC, " + std::to_string(vt) + ", NOW')";
}
// The probe the readers and the final check run: at current time 20000 it
// matches exactly the stairs with vt <= 19909.
std::string IndexProbe(const std::string& table) {
  return "SELECT COUNT(*) FROM " + table +
         " WHERE Overlaps(e, '20000, 20000, 19900, 19909')";
}

}  // namespace

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
  ServerOptions options;
  options.lock_timeout = std::chrono::milliseconds(50);
  Server server(options);
  Check(grtdb::RegisterGRTreeBlade(&server).ok(), "GR-tree blade registers");
  grtdb::GRTreeBladeOptions file_blade;
  file_blade.am_name = "grtree_file_am";
  file_blade.prefix = "grf";
  file_blade.storage = grtdb::GRTreeBladeOptions::Storage::kExternalFile;
  const char* tmp = std::getenv("TMPDIR");
  file_blade.external_dir = std::string(tmp != nullptr ? tmp : "/tmp") +
                            "/net_stress_" + std::to_string(::getpid());
  std::filesystem::create_directories(file_blade.external_dir);
  Check(grtdb::RegisterGRTreeBlade(&server, file_blade).ok(),
        "OS-file GR-tree blade registers");
  NetServerOptions net_options;
  net_options.num_workers = kClients + 2;
  NetServer net(&server, net_options);
  Check(net.Start().ok(), "net server starts");

  {
    NetClient admin;
    Check(admin.Connect("127.0.0.1", net.port()).ok(), "admin connects");
    ResultSet result;
    Check(admin.Execute("CREATE TABLE t (a int, b int)", &result).ok(),
          "create table");
    Check(admin.ExecuteScript(
                   "CREATE TABLE g (a int, e grt_timeextent);"
                   "CREATE INDEX g_idx ON g(e grt_opclass) USING grtree_am;"
                   "CREATE TABLE f (a int, e grt_timeextent);"
                   "CREATE INDEX f_idx ON f(e grf_opclass) "
                   "USING grtree_file_am;"
                   "SET CURRENT_TIME TO 20000;",
                   &result)
              .ok(),
          "create indexed table");
  }

  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> abandoned{0};
  std::atomic<uint64_t> contended{0};
  // Per indexed table: rows that got a verdict (committed, or left behind
  // by an abandoned transaction), and how many of them the probe matches.
  std::atomic<uint64_t> indexed[2] = {};
  std::atomic<uint64_t> indexed_in_probe[2] = {};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &net, &committed, &abandoned, &contended,
                          &indexed, &indexed_in_probe] {
      NetClient client;
      Check(client.Connect("127.0.0.1", net.port()).ok(), "client connects");
      ResultSet result;
      // Prepared handles are session state, so they must be re-registered
      // after every reconnect — which also stresses the plan cache's
      // hit path from many sessions preparing the same text.
      auto prepare_all = [&result](NetClient* c) {
        Check(c->Prepare("ins", "INSERT INTO t VALUES (?, ?)", &result).ok(),
              "prepare insert");
        Check(c->Prepare("cnt", "SELECT COUNT(*) FROM t WHERE a = ?",
                         &result)
                  .ok(),
              "prepare count");
      };
      prepare_all(&client);
      grtdb::sql::Literal lit_c;
      lit_c.kind = grtdb::sql::Literal::Kind::kInteger;
      lit_c.integer = c;
      grtdb::sql::Literal lit_i = lit_c;
      for (int i = 0; i < kOpsPerClient; ++i) {
        switch (i % 7) {
          case 0:
          case 1: {
            // Committed write transaction.
            Status status = client.ExecuteScript(
                "BEGIN WORK; INSERT INTO t VALUES (" + std::to_string(c) +
                    ", " + std::to_string(i) + "); COMMIT WORK;",
                &result);
            Check(Tolerable(status), "write txn outcome");
            if (status.ok()) {
              committed.fetch_add(1, std::memory_order_relaxed);
            } else {
              contended.fetch_add(1, std::memory_order_relaxed);
              client.Execute("ROLLBACK WORK", &result);
            }
            break;
          }
          case 2: {
            // Read-only probe.
            Status status =
                client.Execute("SELECT COUNT(*) FROM t", &result);
            Check(Tolerable(status), "read outcome");
            if (!status.ok()) {
              contended.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          case 3: {
            // Script that fails mid-way: the per-statement durations must
            // still be torn down for the statements that ran (the
            // ExecuteScript leak regression, networked).
            Status status = client.ExecuteScript(
                "SELECT COUNT(*) FROM t; SELECT * FROM no_such_table;",
                &result);
            Check(!status.ok() || status.IsLockTimeout(),
                  "failing script reports its error");
            break;
          }
          case 4: {
            // Abrupt reconnect, sometimes with a transaction left open:
            // CloseSession must end it and release its locks or the whole
            // run wedges on the table lock.
            if (i % 2 == 0) {
              Status status = client.ExecuteScript(
                  "BEGIN WORK; INSERT INTO t VALUES (" + std::to_string(c) +
                      ", -1);",
                  &result);
              Check(Tolerable(status), "abandoned txn outcome");
              if (status.ok()) {
                abandoned.fetch_add(1, std::memory_order_relaxed);
              }
            }
            client.Close();
            Check(client.Connect("127.0.0.1", net.port()).ok(),
                  "client reconnects");
            // The new connection is a new session: the old handles are
            // gone and EXECUTE of them must fail cleanly.
            Check(client.ExecutePrepared("ins", {lit_c, lit_i}, &result)
                      .IsNotFound(),
                  "stale handle is NotFound after reconnect");
            prepare_all(&client);
            break;
          }
          case 5: {
            // Prepared write: binds fresh parameters through the shared
            // cached plan while other sessions re-plan around DDL-free
            // traffic.
            lit_i.integer = i;
            Status status =
                client.ExecutePrepared("ins", {lit_c, lit_i}, &result);
            Check(Tolerable(status), "prepared insert outcome");
            if (status.ok()) {
              committed.fetch_add(1, std::memory_order_relaxed);
            } else {
              contended.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          case 6: {
            // Prepared read with a bound predicate.
            Status status = client.ExecutePrepared("cnt", {lit_c}, &result);
            Check(Tolerable(status), "prepared count outcome");
            if (!status.ok()) {
              contended.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
        }
        // Index traffic on top of the mix above, on three iterations in
        // ten; the indexed table alternates every ten iterations.
        const size_t which = static_cast<size_t>(i / 10) % 2;
        const std::string table = kIndexedTables[which];
        auto count_indexed = [&](int vt) {
          indexed[which].fetch_add(1, std::memory_order_relaxed);
          if (vt <= 19909) {
            indexed_in_probe[which].fetch_add(1, std::memory_order_relaxed);
          }
        };
        switch (i % 10) {
          case 7: {
            // Committed index write: grt_insert on the shared stack.
            const int vt = IndexedVt(c, i);
            Status status = client.ExecuteScript(
                "BEGIN WORK; " + IndexedRow(table, c, vt) + "; COMMIT WORK;",
                &result);
            Check(Tolerable(status), "index write txn outcome");
            if (status.ok()) {
              count_indexed(vt);
            } else {
              contended.fetch_add(1, std::memory_order_relaxed);
              client.Execute("ROLLBACK WORK", &result);
            }
            break;
          }
          case 8: {
            // Index scan through the shared node cache.
            Status status = client.Execute(IndexProbe(table), &result);
            Check(Tolerable(status), "index read outcome");
            if (!status.ok()) {
              contended.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          case 9: {
            // Reconnect in the middle of a transaction that wrote the
            // index: its rows stay (no undo), its locks must go.
            const int vt = IndexedVt(c, i);
            Status status = client.ExecuteScript(
                "BEGIN WORK; " + IndexedRow(table, -1, vt) + ";", &result);
            Check(Tolerable(status), "abandoned index txn outcome");
            if (status.ok()) count_indexed(vt);
            client.Close();
            Check(client.Connect("127.0.0.1", net.port()).ok(),
                  "client reconnects");
            prepare_all(&client);
            break;
          }
          default:
            break;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Every insert whose transaction got a verdict is accounted for —
  // heap tables carry no undo yet (rollback is lock release + end
  // callbacks), so abandoned-transaction rows persist and are counted
  // separately via their b = -1 marker.
  {
    NetClient check;
    Check(check.Connect("127.0.0.1", net.port()).ok(), "checker connects");
    ResultSet result;
    Status status = Status::OK();
    for (int attempt = 0; attempt < 100; ++attempt) {
      status = check.Execute("SELECT COUNT(*) FROM t", &result);
      if (!status.IsLockTimeout()) break;
    }
    Check(status.ok(), "final count readable — no abandoned lock wedged "
                       "the table");
    const uint64_t expected = committed.load(std::memory_order_relaxed) +
                              abandoned.load(std::memory_order_relaxed);
    Check(result.rows[0][0] == std::to_string(expected),
          "every acknowledged insert visible exactly once");
    Check(check.Execute("SELECT COUNT(*) FROM t WHERE b = -1", &result).ok(),
          "abandoned-row probe");
    Check(result.rows[0][0] ==
              std::to_string(abandoned.load(std::memory_order_relaxed)),
          "abandoned-transaction rows match the marker count");

    // Each index agrees with the rows every session wrote through it.
    Check(check.Execute("SET EXPLAIN ON", &result).ok(), "explain on");
    for (size_t which = 0; which < 2; ++which) {
      const std::string table = kIndexedTables[which];
      Check(check.Execute("SELECT COUNT(*) FROM " + table, &result).ok(),
            "indexed table count");
      Check(result.rows[0][0] == std::to_string(indexed[which].load()),
            "every acknowledged index row in the table exactly once");
      Check(check.Execute(IndexProbe(table), &result).ok(),
            "final index probe");
      bool index_scan = false;
      for (const std::string& message : result.messages) {
        if (message.rfind("PLAN: index scan on " + table + "_idx", 0) == 0) {
          index_scan = true;
        }
      }
      Check(index_scan, "the final probe runs on the index");
      Check(result.rows[0][0] ==
                std::to_string(indexed_in_probe[which].load()),
            "the index answers the probe for every session's rows");
      Check(check.Execute("CHECK INDEX " + table + "_idx", &result).ok(),
            "index consistent after the run");
    }
  }

  net.Stop();
  std::filesystem::remove_all(file_blade.external_dir);
  std::printf("net_stress OK: %llu committed, %llu contended, %llu "
              "connections, %llu requests\n",
              static_cast<unsigned long long>(committed.load()),
              static_cast<unsigned long long>(contended.load()),
              static_cast<unsigned long long>(net.connections_accepted()),
              static_cast<unsigned long long>(net.requests_served()));
  return WitnessVerdict();
}
