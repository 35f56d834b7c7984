// grtdb_top: terminal monitor for a running grtdb server — the contention
// observatory's cockpit. Each frame polls sys_sessions, sys_contention,
// sys_hot_nodes, and sys_metrics over the wire protocol and renders them
// as aligned panels (no curses: plain ANSI clear between frames, so it
// works in any terminal and under CI capture). Two modes:
//   grtdb_top --connect host:port [--interval MS] [--rounds N] [--once]
//       attach to a running grtdb_server. --once renders a single frame
//       without clearing the screen and exits — the scripting/ctest mode.
//   grtdb_top [--once]
//       embedded demo: boot an in-process server with a NetServer on an
//       ephemeral port, drive a skewed indexed workload over the wire,
//       render one frame through a second connection, and self-check that
//       live data (sessions, heat) actually came back. "grtdb_top: OK"
//       prints only after those checks pass.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "blades/grtree_blade.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "server/server.h"

namespace {

int Fail(const char* what, const grtdb::Status& status) {
  std::fprintf(stderr, "grtdb_top: %s: %s\n", what,
               status.ToString().c_str());
  return 1;
}

// One panel: title line, header, aligned rows in `order` (indexes into
// result.rows), capped at max_rows with a "(N more)" footer. An empty
// result renders "(none)" so a frame always shows every surface it polled.
void RenderPanel(const std::string& title, const grtdb::ResultSet& result,
                 const std::vector<size_t>& order, size_t max_rows) {
  std::printf("== %s ==\n", title.c_str());
  if (result.rows.empty()) {
    std::printf("  (none)\n\n");
    return;
  }
  std::vector<size_t> width(result.columns.size(), 0);
  for (size_t c = 0; c < result.columns.size(); ++c) {
    width[c] = result.columns[c].size();
  }
  const size_t shown = std::min(order.size(), max_rows);
  for (size_t r = 0; r < shown; ++r) {
    const grtdb::ResultRows::Row row = result.rows[order[r]];
    for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto line = [&width](std::span<const std::string> cells) {
    std::printf(" ");
    for (size_t c = 0; c < cells.size() && c < width.size(); ++c) {
      std::printf(" %-*s", static_cast<int>(width[c]), cells[c].c_str());
    }
    std::printf("\n");
  };
  line(result.columns);
  for (size_t r = 0; r < shown; ++r) line(result.rows[order[r]]);
  if (result.rows.size() > shown) {
    std::printf("  ... (%zu more)\n", result.rows.size() - shown);
  }
  std::printf("\n");
}

// Numeric-descending sort of the row order `*order` on column `col`
// (string cells), so the busiest contention rows and metric surprises
// float to the top of a capped panel.
void SortByColumnDesc(const grtdb::ResultRows& rows, size_t col,
                      std::vector<size_t>* order) {
  auto value = [&rows, col](size_t r) {
    return col < rows[r].size() ? std::atof(rows[r][col].c_str()) : 0.0;
  };
  std::sort(order->begin(), order->end(),
            [&value](size_t a, size_t b) { return value(a) > value(b); });
}

// Polls the four observatory views and renders one frame. Returns false
// (with diagnostics on stderr) if any poll failed.
bool RenderFrame(grtdb::net::NetClient* client, grtdb::ResultSet* sessions,
                 grtdb::ResultSet* hot_nodes) {
  struct Panel {
    const char* title;
    const char* sql;
    size_t max_rows;
    int sort_col;  // -1 = server order
    grtdb::ResultSet* keep;
  };
  grtdb::ResultSet scratch;
  const Panel panels[] = {
      {"sessions", "SELECT * FROM sys_sessions", 16, -1, sessions},
      {"lock contention", "SELECT * FROM sys_contention", 10, 3, nullptr},
      {"waits", "SELECT * FROM sys_waits", 10, -1, nullptr},
      {"hot nodes", "SELECT * FROM sys_hot_nodes", 10, -1, hot_nodes},
      {"metrics", "SELECT * FROM sys_metrics", 12, -1, nullptr},
  };
  for (const Panel& panel : panels) {
    grtdb::ResultSet* out = panel.keep != nullptr ? panel.keep : &scratch;
    const grtdb::Status status = client->Execute(panel.sql, out);
    if (!status.ok()) {
      Fail(panel.title, status);
      return false;
    }
    std::vector<size_t> order(out->rows.size());
    std::iota(order.begin(), order.end(), size_t{0});
    if (panel.sort_col >= 0) {
      SortByColumnDesc(out->rows, static_cast<size_t>(panel.sort_col),
                       &order);
    }
    RenderPanel(panel.title, *out, order, panel.max_rows);
  }
  return true;
}

// The embedded demo's workload: heat tracking on, a grtree-indexed table,
// and repeated skewed scans so sys_hot_nodes has something ranked to show.
const char kDemoSetup[] = R"sql(
SET HEAT_TRACK = 1;
CREATE TABLE flights (id int, e grt_timeextent);
CREATE INDEX flights_idx ON flights(e grt_opclass) USING grtree_am;
SET CURRENT_TIME TO 20000;
INSERT INTO flights VALUES (1, '20000, UC, 19900, NOW');
INSERT INTO flights VALUES (2, '20000, UC, 19950, NOW');
INSERT INTO flights VALUES (3, '20000, UC, 19990, NOW');
)sql";

}  // namespace

int main(int argc, char** argv) {
  std::string connect;
  int interval_ms = 1000;
  long rounds = -1;  // -1 = until the connection drops
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "grtdb_top: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--connect") {
      connect = next();
    } else if (arg == "--interval") {
      interval_ms = std::atoi(next());
    } else if (arg == "--rounds") {
      rounds = std::atol(next());
    } else if (arg == "--once") {
      once = true;
    } else {
      std::fprintf(stderr,
                   "usage: grtdb_top [--connect host:port] [--interval MS] "
                   "[--rounds N] [--once]\n");
      return 2;
    }
  }
  if (once) rounds = 1;

  // Embedded demo: everything below still talks to the server over the
  // wire — the NetServer is just in-process, so the ctest is a true
  // client/server round trip in one binary.
  grtdb::Server server;
  std::unique_ptr<grtdb::net::NetServer> demo_net;
  grtdb::net::NetClient workload;
  if (connect.empty()) {
    grtdb::Status status = grtdb::RegisterGRTreeBlade(&server);
    if (!status.ok()) return Fail("blade registration", status);
    demo_net = std::make_unique<grtdb::net::NetServer>(
        &server, grtdb::net::NetServerOptions{});
    status = demo_net->Start();
    if (!status.ok()) return Fail("demo server start", status);
    connect = "127.0.0.1:" + std::to_string(demo_net->port());
    status = workload.Connect("127.0.0.1", demo_net->port());
    if (!status.ok()) return Fail("demo connect", status);
    grtdb::ResultSet result;
    status = workload.ExecuteScript(kDemoSetup, &result);
    if (!status.ok()) return Fail("demo setup", status);
    for (int i = 0; i < 8; ++i) {
      status = workload.Execute(
          "SELECT id FROM flights WHERE Overlaps(e, "
          "'20000, UC, 19900, NOW')",
          &result);
      if (!status.ok()) return Fail("demo scan", status);
    }
    if (rounds < 0) rounds = 1;  // the demo never loops forever
  }

  const size_t colon = connect.rfind(':');
  const int port =
      colon == std::string::npos ? 0 : std::atoi(connect.c_str() + colon + 1);
  if (colon == std::string::npos || colon == 0 || port <= 0 || port > 65535) {
    std::fprintf(stderr, "grtdb_top: --connect wants host:port, got '%s'\n",
                 connect.c_str());
    return 2;
  }
  grtdb::net::NetClient client;
  grtdb::Status status =
      client.Connect(connect.substr(0, colon), static_cast<uint16_t>(port));
  if (!status.ok()) return Fail("connect", status);

  grtdb::ResultSet sessions;
  grtdb::ResultSet hot_nodes;
  for (long frame = 0; rounds < 0 || frame < rounds; ++frame) {
    if (frame > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    if (!once && rounds != 1) {
      std::printf("\x1b[2J\x1b[H");  // clear + home between live frames
    }
    std::printf("grtdb_top — %s\n\n", connect.c_str());
    if (!RenderFrame(&client, &sessions, &hot_nodes)) return 1;
    std::fflush(stdout);
  }

  if (demo_net != nullptr) {
    // Self-check the demo frame really carried live data over the wire:
    // the poller's own session shows active in sys_sessions (it is the
    // statement being executed), and the skewed scans left ranked heat.
    bool saw_active_poll = false;
    for (const auto& row : sessions.rows) {
      if (row.size() >= 4 && row[2] == "active" &&
          row[3].find("sys_sessions") != std::string::npos) {
        saw_active_poll = true;
      }
    }
    if (!saw_active_poll) {
      std::fprintf(stderr,
                   "grtdb_top: poller's session missing from sys_sessions\n");
      return 1;
    }
    if (hot_nodes.rows.empty()) {
      std::fprintf(stderr, "grtdb_top: demo workload produced no heat\n");
      return 1;
    }
    workload.Close();
    demo_net->Stop();
  }
  std::printf("grtdb_top: OK\n");
  return 0;
}
