// Quickstart: install the GR-tree DataBlade, create a bitemporal table,
// index its time extent with a virtual GR-tree index, and run the sample
// query of paper §5.2 — all through SQL.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "blades/grtree_blade.h"
#include "server/server.h"

namespace {

void Run(grtdb::Server& server, grtdb::ServerSession* session,
         const std::string& sql) {
  grtdb::ResultSet result;
  grtdb::Status status = server.Execute(session, sql, &result);
  std::printf("sql> %s\n", sql.c_str());
  if (!status.ok()) {
    std::printf("ERROR: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  std::printf("%s\n", result.ToString().c_str());
}

}  // namespace

int main() {
  grtdb::Server server;
  // Install the GR-tree DataBlade (BladeManager's job): opaque type,
  // strategy/support UDRs, purpose functions, access method, opclass.
  grtdb::Status status = grtdb::RegisterGRTreeBlade(&server);
  if (!status.ok()) {
    std::printf("blade registration failed: %s\n",
                status.ToString().c_str());
    return 1;
  }

  grtdb::ServerSession* session = server.CreateSession();
  Run(server, session, "SET CURRENT_TIME TO '10/01/1995'");
  Run(server, session,
      "CREATE TABLE Employees (Name text, Department text, "
      "Time_Extent grt_timeextent)");
  Run(server, session,
      "CREATE INDEX grt_index ON Employees(Time_Extent grt_opclass) "
      "USING grtree_am IN default");

  // Employment histories; UC/NOW mark now-relative facts (§2).
  Run(server, session,
      "INSERT INTO Employees VALUES ('John', 'Advertising', "
      "'10/01/1995, UC, 03/01/1995, 05/01/1995')");
  Run(server, session,
      "INSERT INTO Employees VALUES ('Jane', 'Sales', "
      "'10/01/1995, UC, 05/01/1995, NOW')");
  Run(server, session,
      "INSERT INTO Employees VALUES ('Michelle', 'Management', "
      "'10/01/1995, UC, 03/01/1995, NOW')");

  Run(server, session, "SET EXPLAIN ON");
  Run(server, session, "SET CURRENT_TIME TO '12/15/1995'");
  // The paper's sample query: the optimizer recognizes Overlaps() as a
  // strategy function of grt_opclass and scans the GR-tree (Fig. 6(b)).
  Run(server, session,
      "SELECT Name FROM Employees "
      "WHERE Overlaps(Time_Extent, '12/10/1995, UC, 12/10/1995, NOW')");

  // The same query a year later: the now-relative extents grew with the
  // current time, no index maintenance required.
  Run(server, session, "SET CURRENT_TIME TO '10/01/1996'");
  Run(server, session,
      "SELECT Name, Time_Extent FROM Employees "
      "WHERE Overlaps(Time_Extent, '06/01/1996, 06/01/1996, "
      "01/01/1996, 12/31/1996')");

  Run(server, session, "CHECK INDEX grt_index");

  std::printf("purpose-function calls of the last statement (CHECK INDEX):\n");
  for (const std::string& call : session->purpose_log()) {
    std::printf("  %s\n", call.c_str());
  }
  server.CloseSession(session);
  std::printf("quickstart OK\n");
  return 0;
}
