// T2 — Table 2 / Table 5 / Fig. 6: reproduces the purpose-function call
// sequences the server issues for INSERT and SELECT (and the DELETE/UPDATE
// flows of §5.5 / Table 5), and reports per-purpose-function call counts
// and mean latencies over a workload.

#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "blades/grtree_blade.h"
#include "workload/workload.h"

namespace grtdb {
namespace {

using bench::Exec;
using bench::Fmt;
using bench::TablePrinter;

void PrintSequence(const char* label, ServerSession* session) {
  std::printf("%s\n  ", label);
  const auto& log = session->purpose_log();
  for (size_t i = 0; i < log.size(); ++i) {
    std::printf("%s%s", log[i].c_str(), i + 1 < log.size() ? " -> " : "\n");
  }
  if (log.empty()) std::printf("(no purpose calls)\n");
}

}  // namespace
}  // namespace grtdb

int main() {
  using namespace grtdb;
  std::printf("T2: purpose-function call sequences (Fig. 6, Table 5)\n\n");

  Server server;
  bench::Check(RegisterGRTreeBlade(&server), "register blade");
  ServerSession* session = server.CreateSession();
  Exec(server, session, "CREATE TABLE t (id int, e grt_timeextent)");
  Exec(server, session,
       "CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am");
  Exec(server, session, "SET CURRENT_TIME TO 10000");
  for (int i = 0; i < 12; ++i) {
    Exec(server, session,
         "INSERT INTO t VALUES (" + std::to_string(i) + ", '10000, UC, " +
             std::to_string(9990 - i) + ", NOW')");
  }

  Exec(server, session,
       "INSERT INTO t VALUES (999, '10000, UC, 9000, NOW')");
  PrintSequence("\nINSERT INTO ... VALUES (...)   [Fig. 6(a)]:", session);

  Exec(server, session,
       "SELECT id FROM t WHERE Overlaps(e, '10000, 10000, 9985, 9990')");
  PrintSequence("\nSELECT ... WHERE Overlaps(...)   [Fig. 6(b); the "
                "optimizer's scancost probe runs inside the one open]:",
                session);

  Exec(server, session,
       "UPDATE t SET e = '10000, 10000, 9000, 9500' WHERE id = 999");
  PrintSequence("\nUPDATE ... SET e = ...   [am_update = delete + insert, "
                "Table 5]:",
                session);

  Exec(server, session,
       "DELETE FROM t WHERE Overlaps(e, '10000, 10000, 9988, 9990')");
  PrintSequence("\nDELETE ... WHERE Overlaps(...)   [retrieve-and-delete, "
                "§5.5]:",
                session);

  // Call counts + latency over a workload.
  std::printf("\nPer-purpose-function call counts over a 2000-action "
              "workload:\n\n");
  WorkloadOptions wopts;
  BitemporalWorkload workload(wopts);
  // Exact per-function totals by registered name, summed from each
  // statement's profile.
  const AccessMethodDef* am = server.catalog().FindAccessMethod("grtree_am");
  std::map<std::string, uint64_t> call_counts;
  auto exec_counted = [&](const std::string& sql) {
    Exec(server, session, sql);
    for (size_t fn = 0; fn < obs::kPurposeFnCount; ++fn) {
      const uint64_t calls =
          session->profile().calls(static_cast<obs::PurposeFn>(fn));
      if (calls != 0) call_counts[am->purpose_names[fn]] += calls;
    }
  };
  std::map<std::string, uint64_t> statement_counts;
  bench::Timer timer;
  int64_t last_ct = -1;
  for (int action = 0; action < 2000; ++action) {
    for (const IndexOp& op : workload.NextAction()) {
      if (op.ct != last_ct) {
        Exec(server, session, "SET CURRENT_TIME TO " + std::to_string(op.ct));
        last_ct = op.ct;
      }
      if (op.kind == IndexOp::Kind::kInsert) {
        exec_counted("INSERT INTO t VALUES (" + std::to_string(op.payload) +
                     ", '" + op.extent.ToString() + "')");
        ++statement_counts["INSERT"];
      } else {
        exec_counted("DELETE FROM t WHERE Equal(e, '" + op.extent.ToString() +
                     "') AND id = " + std::to_string(op.payload));
        ++statement_counts["DELETE"];
      }
    }
    if (action % 100 == 99) {
      exec_counted("SELECT COUNT(*) FROM t WHERE Overlaps(e, '" +
                   workload.GroundRectQuery(100).ToString() + "')");
      ++statement_counts["SELECT"];
    }
  }
  const double total_ms = timer.ElapsedMs();

  TablePrinter calls({"purpose function", "calls", "calls/statement"});
  uint64_t statements = 0;
  for (const auto& [kind, count] : statement_counts) statements += count;
  for (const auto& [name, count] : call_counts) {
    calls.AddRow({name, std::to_string(count),
                  Fmt(static_cast<double>(count) /
                          static_cast<double>(statements),
                      2)});
  }
  calls.Print();
  std::printf("\nstatements: %llu (",
              static_cast<unsigned long long>(statements));
  bool first = true;
  for (const auto& [kind, count] : statement_counts) {
    std::printf("%s%s %llu", first ? "" : ", ", kind.c_str(),
                static_cast<unsigned long long>(count));
    first = false;
  }
  std::printf("), wall time %s ms, %s ms/statement\n", bench::Fmt(total_ms, 1).c_str(),
              bench::Fmt(total_ms / static_cast<double>(statements), 3).c_str());
  server.CloseSession(session);
  return 0;
}
