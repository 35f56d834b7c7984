// wirebench: grtdb's wire-level benchmark. Boots an in-process Server and
// NetServer on loopback, loads a seeded bitemporal base, and drives one of
// four workloads through NetClient connections for a fixed time, checking
// every answer against an oracle computed from the same seed. With
// --trace 1 it re-runs the workload with sampled request spans and times
// each layer's public entry points on the workload's own inputs.
//
//   wirebench --workload point_lookup|current_scan|mixed_rw|wal_ingest
//             --seed N --seconds S --trace 0|1 --workdir DIR
//             [--readers N] [--corrupt-oracle]
//
// The last stdout line is one JSON object: stamp, correct, attempted,
// failed and metrics (name -> {value, unit}). The exit code is 1 when any
// answer or check was wrong. NOTES.md beside this file explains the
// workloads and the metrics.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "blades/grtree_blade.h"
#include "common/random.h"
#include "layers.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "obs/query_profile.h"
#include "storage/layout.h"
#include "storage/node_store.h"
#include "storage/wal_store.h"

namespace wirebench {
namespace {

using Clock = std::chrono::steady_clock;
using grtdb::ResultSet;
using grtdb::Status;
using grtdb::TimeExtent;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
// CPU time of the process or of the calling thread. The guest kernel leaves
// out the time the hypervisor ran other guests on the CPU (steal), which
// wall-clock time includes.
double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ------------------------------------------------------------ workloads --

struct Spec {
  const char* name;
  uint64_t base_actions;
  int readers;          // closed-loop reader connections
  bool prepared_reads;  // Equal probes bound to a prepared statement;
                        // otherwise text stair scans
  bool frozen_probes;   // probe only frozen versions (answers fixed
                        // while a writer runs)
  bool writer;          // one connection replaying the write stream
  double writer_rate;   // actions/s for an open-loop writer; 0 = closed
                        // loop, reading back each action's newest version
  bool external_file;   // the Storage::kExternalFile blade variant
  // Traced windows trace at most this many operations per connection,
  // spread over the window, so the span ring never wraps.
  int trace_cap;
};

// Why each workload exists is in NOTES.md. Sizes are BitemporalWorkload
// actions: 20k gives about 18k versions in a 300-node, height-3 index,
// more than a statement's 64-frame node cache and less than the 512-frame
// sbspace pool. Each request passes between a client thread and a server
// worker; with more than two closed-loop readers on a 4-core box those
// threads queue for the cores and the run measures the scheduler (see
// NOTES.md, Noise).
constexpr Spec kSpecs[] = {
    {"point_lookup", 20000, 2, true, false, false, 0, false, 300},
    {"current_scan", 20000, 2, false, false, false, 0, false, 8},
    {"mixed_rw", 20000, 2, true, true, true, 10, false, 200},
    {"wal_ingest", 5000, 0, true, false, true, 0, true, 200},
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

constexpr const char* kIndex = "t_idx";
// Trace ids of the connections' opening pings; operation ids are
// (connection + 1) << 40 plus a sequence number, so they never collide.
constexpr uint64_t kOpenTraceBase = 1;
constexpr const char* kProbeSql = "SELECT id FROM t WHERE Equal(e, ?)";
// Probes differ widely in cost (tens to hundreds of node reads), so each
// run cycles through many of them.
constexpr size_t kProbeCount = 2048;
constexpr int kSetups = 3;
// Throughput climbs for the first seconds of load on a fresh server (about
// 3.2k to 7k point lookups/s on a 4-core box), so every run warms up this
// long before it measures.
constexpr double kWarmupSeconds = 3;
constexpr int kSlices = 10;
// Reads each connection keeps for the latency quantiles: all of them up to
// this many, then a uniform sample, so the benchmark's own memory does not
// grow with throughput. With every read kept, peak_rss_mb rose by about
// 2 MiB per 50k lookups.
constexpr size_t kReadSamples = 4096;
// Span ring slots for traced runs; the trace caps keep use below half.
constexpr size_t kSpanCapacity = 1u << 20;

struct Probe {
  TimeExtent extent;
  std::string sql;  // the statement as text (the scans send this)
  std::vector<uint64_t> ids;
};

// The bound parameter of the prepared Equal probe.
grtdb::sql::Literal ProbeParam(const TimeExtent& extent) {
  grtdb::sql::Literal param;
  param.kind = grtdb::sql::Literal::Kind::kString;
  param.text = ExtentText(extent);
  return param;
}

std::string EqualSql(const TimeExtent& extent) {
  return "SELECT id FROM t WHERE Equal(e, '" + ExtentText(extent) + "')";
}
std::string OverlapsSql(const TimeExtent& extent) {
  return "SELECT id FROM t WHERE Overlaps(e, '" + ExtentText(extent) + "')";
}

// "Current and valid now" stairs [c, UC] x [c, NOW] for each c in the
// month before the current time. Their sizes differ, so many of them keep
// the latency distribution from splitting into a few modes.
std::vector<Probe> StairProbes(const Relation& relation, int64_t ct) {
  std::vector<Probe> probes;
  for (int64_t back = 0; back < 32; ++back) {
    Probe p;
    p.extent = TimeExtent(grtdb::Timestamp::FromChronon(ct - back),
                          grtdb::Timestamp::UC(),
                          grtdb::Timestamp::FromChronon(ct - back),
                          grtdb::Timestamp::NOW());
    p.sql = OverlapsSql(p.extent);
    p.ids = OverlapIds(relation, p.extent, ct);
    probes.push_back(std::move(p));
  }
  return probes;
}

// Equal probes on random stored versions. With `frozen_only`, only versions
// frozen at least two chronons before `ct`: no later write can create an
// equal region, so their answers hold while a writer runs.
std::vector<Probe> EqualProbes(const Relation& relation, int64_t ct,
                               bool frozen_only, uint64_t seed,
                               size_t count) {
  std::vector<const std::pair<const uint64_t, TimeExtent>*> pool;
  for (const auto& entry : relation) {
    const TimeExtent& e = entry.second;
    if (frozen_only && (e.tt_end.is_uc() || e.tt_end.chronon() >= ct - 1)) {
      continue;
    }
    pool.push_back(&entry);
  }
  const EqualIndex equal(relation);
  grtdb::Random rng(seed);
  std::vector<Probe> probes;
  for (size_t i = 0; i < count && !pool.empty(); ++i) {
    Probe p;
    p.extent = pool[rng.Uniform(pool.size())]->second;
    p.sql = EqualSql(p.extent);
    p.ids = equal.Ids(relation, p.extent, ct);
    probes.push_back(std::move(p));
  }
  return probes;
}

// Ground rectangles over the populated time range, for the final checks.
std::vector<Probe> RectProbes(const Relation& relation, int64_t ct,
                              uint64_t seed, size_t count) {
  grtdb::Random rng(seed);
  const int64_t start = grtdb::WorkloadOptions().start_time;
  std::vector<Probe> probes;
  for (size_t i = 0; i < count; ++i) {
    const int64_t tt = rng.UniformRange(start, ct);
    const int64_t vt = rng.UniformRange(start - 180, ct + 365);
    Probe p;
    p.extent = TimeExtent::Ground(tt, tt + rng.UniformRange(0, 60), vt,
                                  vt + rng.UniformRange(0, 60));
    p.sql = OverlapsSql(p.extent);
    p.ids = OverlapIds(relation, p.extent, ct);
    probes.push_back(std::move(p));
  }
  return probes;
}

// ---------------------------------------------------------- connections --

// What one connection did over the windows it ran in.
struct ConnStats {
  std::vector<double> read_us;     // a uniform sample of the reads
  std::vector<uint64_t> read_key;  // which input each read_us entry ran
  std::vector<double> write_us;
  std::vector<double> lag_us;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t rows = 0;
  uint64_t statements = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double check_cpu_s = 0;  // CPU the benchmark spent checking answers
  std::vector<std::pair<uint64_t, uint64_t>> traced;  // (trace id, rows)
  std::string first_error;

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }

  // Counts a checked read and keeps it in the sample: the first
  // kReadSamples, then each later one in place of a random kept one with
  // probability kReadSamples / reads (reservoir sampling).
  void AddRead(double us, uint64_t key) {
    ++reads;
    if (read_us.size() < kReadSamples) {
      read_us.push_back(us);
      read_key.push_back(key);
      return;
    }
    const uint64_t slot = sampler.Uniform(reads);
    if (slot < kReadSamples) {
      read_us[slot] = us;
      read_key[slot] = key;
    }
  }

  grtdb::Random sampler;
};

bool SameIds(const ResultSet& rs, const std::vector<uint64_t>& expected) {
  if (rs.rows.size() != expected.size()) return false;
  std::vector<uint64_t> got;
  got.reserve(rs.rows.size());
  for (const auto& row : rs.rows) {
    if (row.size() != 1) return false;
    got.push_back(std::strtoull(row[0].c_str(), nullptr, 10));
  }
  std::sort(got.begin(), got.end());
  return got == expected;
}

// One client connection, with the trace sampling of the traced window.
class Conn {
 public:
  explicit Conn(int index) : index_(index) {}

  // Connects, pinging first under `first_trace_id` when nonzero: the
  // server reports a connection's accept-queue wait on its first request
  // only.
  Status Open(uint16_t port, bool prepare, uint64_t first_trace_id) {
    Status s = client_.Connect("127.0.0.1", port);
    client_.set_trace_id(first_trace_id);
    if (s.ok()) s = client_.Ping();
    client_.set_trace_id(0);
    ResultSet rs;
    if (s.ok() && prepare) s = client_.Prepare("probe", kProbeSql, &rs);
    return s;
  }

  // Starts a window; every_n = 0 leaves requests untraced.
  void StartWindow(ConnStats* stats, int every_n, int cap) {
    stats_ = stats;
    every_ = every_n;
    cap_ = cap;
    op_ = 0;
    taken_ = 0;
  }

  // Decides whether the next operation (all its statements) is traced.
  void NextOp() {
    traced_op_ = every_ > 0 && op_++ % static_cast<uint64_t>(every_) == 0 &&
                 taken_ < cap_;
    if (traced_op_) ++taken_;
  }

  Status Run(const std::string& sql, ResultSet* rs) {
    Stamp();
    Status s = client_.Execute(sql, rs);
    Record(*rs);
    return s;
  }
  Status RunProbe(const TimeExtent& extent, ResultSet* rs) {
    Stamp();
    Status s = client_.ExecutePrepared("probe", {ProbeParam(extent)}, rs);
    Record(*rs);
    return s;
  }
  Status Ping() { return client_.Ping(); }

 private:
  void Stamp() {
    ++stats_->statements;
    trace_id_ = traced_op_ ? (static_cast<uint64_t>(index_ + 1) << 40) +
                                 ++trace_seq_
                           : 0;
    client_.set_trace_id(trace_id_);
  }
  void Record(const ResultSet& rs) {
    if (trace_id_ != 0) stats_->traced.emplace_back(trace_id_, rs.rows.size());
  }

  int index_;
  grtdb::net::NetClient client_;
  ConnStats* stats_ = nullptr;
  int every_ = 0;
  int cap_ = 0;
  uint64_t op_ = 0;
  int taken_ = 0;
  bool traced_op_ = false;
  uint64_t trace_id_ = 0;
  uint64_t trace_seq_ = 0;
};

// `*next` is the reader's position in `probes`, carried across windows so
// that short windows still cycle through all of them.
void RunReader(Conn* conn, const Spec& spec, const std::vector<Probe>& probes,
               size_t* next, Clock::time_point end, ConnStats* st) {
  ResultSet rs;
  while (Clock::now() < end) {
    const size_t i = (*next)++ % probes.size();
    const Probe& probe = probes[i];
    conn->NextOp();
    ++st->attempted;
    const Clock::time_point t0 = Clock::now();
    Status s = spec.prepared_reads ? conn->RunProbe(probe.extent, &rs)
                                   : conn->Run(probe.sql, &rs);
    const Clock::time_point t1 = Clock::now();
    if (!s.ok()) {
      st->Fail("read: " + s.ToString());
      continue;
    }
    const double check_start = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    const bool same = SameIds(rs, probe.ids);
    st->check_cpu_s += CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - check_start;
    if (!same) {
      st->Fail("read mismatch: " + probe.sql);
      continue;
    }
    st->rows += rs.rows.size();
    st->AddRead(Micros(t1 - t0), i);
  }
}

// The writer's position in the stream and the clock it last set; carried
// across the windows of a traced run.
struct WriterState {
  size_t next = 0;
  int64_t ct = 0;
};

// Runs one action as SET CURRENT_TIME (when the clock moved), BEGIN WORK,
// its statements, COMMIT WORK. Returns false when any step failed.
bool RunAction(Conn* conn, const WriteAction& action, WriterState* w,
               ConnStats* st) {
  ResultSet rs;
  Status s;
  if (action.ct != w->ct) {
    s = conn->Run("SET CURRENT_TIME TO " + std::to_string(action.ct), &rs);
    if (!s.ok()) {
      st->Fail("set time: " + s.ToString());
      return false;
    }
    w->ct = action.ct;
  }
  s = conn->Run("BEGIN WORK", &rs);
  for (size_t i = 0; s.ok() && i < action.statements.size(); ++i) {
    s = conn->Run(action.statements[i], &rs);
    if (s.ok() && rs.affected != 1) {
      s = Status::Internal(std::to_string(rs.affected) +
                           " rows affected by " + action.statements[i]);
    }
  }
  if (s.ok()) s = conn->Run("COMMIT WORK", &rs);
  if (!s.ok()) {
    st->Fail("write: " + s.ToString());
    (void)conn->Run("ROLLBACK WORK", &rs);
    return false;
  }
  return true;
}

void RunWriter(Conn* conn, const Spec& spec, const Inputs& in,
               WriterState* w, Clock::time_point start, Clock::time_point end,
               ConnStats* st) {
  ResultSet rs;
  for (uint64_t k = 0; w->next < in.stream.size(); ++k) {
    Clock::time_point due = Clock::now();
    if (spec.writer_rate > 0) {
      // Open loop: action k is due k/rate after the window start, whether
      // or not the previous one finished; latency counts from the due time.
      due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(k) / spec.writer_rate));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      st->lag_us.push_back(Micros(Clock::now() - due));
    } else if (due >= end) {
      break;
    }
    const WriteAction& action = in.stream[w->next++];
    conn->NextOp();
    ++st->attempted;
    if (!RunAction(conn, action, w, st)) continue;
    ++st->writes;
    st->write_us.push_back(Micros(Clock::now() - due));
    if (spec.writer_rate > 0) continue;
    // Closed loop: read back the newest version at the action's time.
    ++st->attempted;
    const Clock::time_point t0 = Clock::now();
    Status s = conn->RunProbe(action.probe, &rs);
    const Clock::time_point t1 = Clock::now();
    const double check_start = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    const bool same = s.ok() && SameIds(rs, action.probe_ids);
    st->check_cpu_s += CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - check_start;
    if (!s.ok()) {
      st->Fail("read back: " + s.ToString());
    } else if (!same) {
      st->Fail("read back mismatch: " + EqualSql(action.probe));
    } else {
      st->rows += rs.rows.size();
      st->AddRead(Micros(t1 - t0), (uint64_t{1} << 32) + w->next);
    }
  }
}

// ------------------------------------------------------------- registry --

// Movement of the server's metrics registry over one or more windows:
// counter values, histogram counts and histogram sums.
class Delta {
 public:
  // Subtracts the registry's current readings (call at a window's start).
  void Begin(grtdb::Server* server) { Accumulate(server, -1); }
  // Adds them back (call at the window's end).
  void End(grtdb::Server* server) { Accumulate(server, +1); }

  double Value(const std::string& name) const { return Get(name).value; }
  double Count(const std::string& name) const { return Get(name).count; }
  double Sum(const std::string& name) const { return Get(name).sum; }
  double Mean(const std::string& name) const {
    return Ratio(Sum(name), Count(name));
  }

 private:
  struct Sample {
    double value = 0;
    double count = 0;
    double sum = 0;
  };
  void Accumulate(grtdb::Server* server, double sign) {
    for (const auto& m : server->metrics().Snapshot()) {
      Sample& s = samples_[m.name];
      s.value += sign * static_cast<double>(m.value);
      s.count += sign * static_cast<double>(m.count);
      s.sum += sign * static_cast<double>(m.sum);
    }
  }
  Sample Get(const std::string& name) const {
    auto it = samples_.find(name);
    return it == samples_.end() ? Sample{} : it->second;
  }

  std::map<std::string, Sample> samples_;
};

// ------------------------------------------------------------ the server --

struct Served {
  std::unique_ptr<grtdb::Server> server;
  grtdb::ServerSession* control = nullptr;  // embedded, for checks
  std::string am;
};

std::string Workdir(const std::string& dir, const std::string& file) {
  return dir + "/" + file;
}

// Creates a server with the workload's blade variant and loads the base.
// `*seconds` times only the server-side set-up statements.
Status SetUp(const Spec& spec, const Inputs& in, const std::string& workdir,
             size_t span_capacity, Served* out, double* seconds) {
  grtdb::ServerOptions options;
  options.span_capacity = span_capacity;
  out->server = std::make_unique<grtdb::Server>(options);
  grtdb::GRTreeBladeOptions blade;
  if (spec.external_file) {
    blade.am_name = "grtree_file_am";
    blade.prefix = "grf";
    blade.storage = grtdb::GRTreeBladeOptions::Storage::kExternalFile;
    blade.external_dir = workdir;
  }
  out->am = blade.am_name;
  GRTDB_RETURN_IF_ERROR(grtdb::RegisterGRTreeBlade(out->server.get(), blade));
  out->control = out->server->CreateSession();

  const std::string script =
      "CREATE TABLE t (id int, e grt_timeextent);\n"
      "CREATE INDEX " + std::string(kIndex) + " ON t(e " + blade.prefix +
      "_opclass) USING " + blade.am_name + ";\n"
      "SET CURRENT_TIME TO " + std::to_string(in.base_ct) + ";\n"
      "LOAD FROM '" + Workdir(workdir, "base.unl") + "' INSERT INTO t;\n";
  ResultSet rs;
  const Clock::time_point t0 = Clock::now();
  Status s = out->server->ExecuteScript(out->control, script, &rs);
  *seconds = Seconds(Clock::now() - t0);
  if (s.ok() && rs.affected != in.base.size()) {
    s = Status::Internal("LOAD stored " + std::to_string(rs.affected) +
                         " of " + std::to_string(in.base.size()) + " rows");
  }
  return s;
}

// sys_index_stats' summary row for the index, after UPDATE STATISTICS.
Status IndexStats(Served* served, uint64_t* nodes, uint64_t* entries,
                  uint64_t* height) {
  ResultSet rs;
  GRTDB_RETURN_IF_ERROR(served->server->Execute(
      served->control, "UPDATE STATISTICS FOR INDEX " + std::string(kIndex),
      &rs));
  GRTDB_RETURN_IF_ERROR(
      served->server->Execute(served->control, "SELECT * FROM sys_index_stats",
                              &rs));
  for (const auto& row : rs.rows) {
    if (row.size() >= 6 && row[0] == kIndex && row[2] == "all") {
      *height = std::strtoull(row[3].c_str(), nullptr, 10);
      *nodes = std::strtoull(row[4].c_str(), nullptr, 10);
      *entries = std::strtoull(row[5].c_str(), nullptr, 10);
      return Status::OK();
    }
  }
  return Status::NotFound("no sys_index_stats row for the index");
}

// The index file reopened the way a restarted blade would: external file,
// then the WAL with Recover(), then the tree.
Status ReopenedAnswers(Served* served, const std::string& workdir,
                       const std::vector<Probe>& probes, int64_t ct,
                       const Relation& state, std::string* mismatch) {
  std::vector<uint8_t> record;
  GRTDB_RETURN_IF_ERROR(
      served->server->AmCatalogGet(served->am, kIndex, &record));
  // The blade's catalog record starts with the layout byte and the anchor.
  if (record.size() < 9) return Status::Corruption("short AM record");
  const grtdb::NodeId anchor = grtdb::LoadU64(record.data() + 1);
  const std::string path =
      Workdir(workdir, "grtree_" + std::string(kIndex) + ".dat");
  auto file_or = grtdb::ExternalFileNodeStore::Open(path);
  if (!file_or.ok()) return file_or.status();
  std::unique_ptr<grtdb::ExternalFileNodeStore> file =
      std::move(file_or).value();
  auto wal_or = grtdb::WalNodeStore::Open(file.get(), path + ".wal");
  if (!wal_or.ok()) return wal_or.status();
  std::unique_ptr<grtdb::WalNodeStore> wal = std::move(wal_or).value();
  GRTDB_RETURN_IF_ERROR(wal->Recover());
  auto tree_or = grtdb::GRTree::Open(wal.get(), anchor, {});
  if (!tree_or.ok()) return tree_or.status();
  std::unique_ptr<grtdb::GRTree> tree = std::move(tree_or).value();
  // The tree's payloads are row ids, so compare the extents it returns
  // with the oracle ids' extents, as multisets.
  for (const Probe& probe : probes) {
    const bool equal = probe.sql.find("Equal(") != std::string::npos;
    std::vector<grtdb::GRTree::Entry> entries;
    GRTDB_RETURN_IF_ERROR(tree->SearchAll(
        equal ? grtdb::PredicateOp::kEqual : grtdb::PredicateOp::kOverlaps,
        probe.extent, ct, &entries));
    std::vector<std::string> got;
    std::vector<std::string> want;
    for (const auto& e : entries) got.push_back(ExtentText(e.extent));
    for (uint64_t id : probe.ids) want.push_back(ExtentText(state.at(id)));
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (got != want && mismatch->empty()) *mismatch = "reopened: " + probe.sql;
  }
  return Status::OK();
}

// ----------------------------------------------------------------- run --

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workdir;
  int readers = -1;  // override of the workload's reader count
  bool corrupt_oracle = false;
};

// One or more measuring windows, run one after another into the same
// per-connection stats.
struct Window {
  std::vector<ConnStats> conns;
  double seconds = 0;
  double cpu_s = 0;  // process CPU time over the windows

  template <typename F>
  double Sum(F f) const {
    double total = 0;
    for (const ConnStats& c : conns) total += static_cast<double>(f(c));
    return total;
  }
  std::vector<double> Merge(std::vector<double> ConnStats::*field) const {
    std::vector<double> out;
    for (const ConnStats& c : conns) {
      out.insert(out.end(), (c.*field).begin(), (c.*field).end());
    }
    return out;
  }
  double Ops() const {
    return Sum([](const ConnStats& c) { return c.reads + c.writes; });
  }
  double Statements() const {
    return Sum([](const ConnStats& c) { return c.statements; });
  }
  double Rows() const {
    return Sum([](const ConnStats& c) { return c.rows; });
  }
  // CPU microseconds the process (server, wire and client library) spent,
  // without the benchmark's answer checks.
  double CpuUs() const {
    return (cpu_s - Sum([](const ConnStats& c) { return c.check_cpu_s; })) *
           1e6;
  }
  // The median over probes of each probe's median sampled read latency.
  // Probes differ in cost by an order of magnitude, and some reads of any
  // probe wait behind the writer or a host stall; the median of the pooled
  // latencies moves with the mix of probes a window ran and with the share
  // of stalled reads, while each probe's own median does not.
  double ProbeMedianReadUs() const {
    std::map<uint64_t, std::vector<double>> by_probe;
    for (const ConnStats& c : conns) {
      for (size_t i = 0; i < c.read_us.size(); ++i) {
        by_probe[c.read_key[i]].push_back(c.read_us[i]);
      }
    }
    std::vector<double> medians;
    for (auto& entry : by_probe) medians.push_back(Median(entry.second));
    return Median(std::move(medians));
  }
};

class Bench {
 public:
  Bench(const Options& options, const Spec& spec)
      : opt_(options), spec_(spec) {}

  int Run();

 private:
  void RunWindow(double seconds, int trace_every, Window* w);
  void AddTracedMetrics(const Window& untraced, const Window& traced,
                        const Delta& d, Metrics* out);
  void EmbeddedReplay(const std::vector<Probe>& probes, Metrics* out);
  void FinalChecks();
  void Fail(const std::string& what) {
    ++failed_;
    if (first_error_.empty()) first_error_ = what;
  }

  Options opt_;
  Spec spec_;
  Inputs in_;
  std::vector<Probe> probes_;
  Served served_;
  std::unique_ptr<grtdb::net::NetServer> net_;
  std::vector<std::unique_ptr<Conn>> conns_;  // readers, then the writer
  std::vector<uint64_t> open_trace_ids_;      // each connection's first ping
  WriterState writer_;
  int readers_ = 0;
  std::vector<size_t> reader_next_;  // each reader's position in probes_
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::string first_error_;
  uint64_t nodes_after_load_ = 0;
  std::vector<Probe> final_probes_;
  Relation final_state_;
  BenchTrace bench_trace_;
};

// Runs the workload for `seconds` more, adding to `*w`.
void Bench::RunWindow(double seconds, int trace_every, Window* w) {
  w->conns.resize(conns_.size());
  for (size_t i = 0; i < conns_.size(); ++i) {
    conns_[i]->StartWindow(&w->conns[i], trace_every, spec_.trace_cap);
  }
  const double attempted =
      w->Sum([](const ConnStats& c) { return c.attempted; });
  const double failed = w->Sum([](const ConnStats& c) { return c.failed; });
  const double cpu_start = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int r = 0; r < readers_; ++r) {
    threads.emplace_back(RunReader, conns_[r].get(), std::cref(spec_),
                         std::cref(probes_), &reader_next_[r], end,
                         &w->conns[r]);
  }
  if (spec_.writer) {
    threads.emplace_back(RunWriter, conns_.back().get(), std::cref(spec_),
                         std::cref(in_), &writer_, start, end,
                         &w->conns.back());
  }
  for (std::thread& t : threads) t.join();
  w->seconds += Seconds(Clock::now() - start);
  w->cpu_s += CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu_start;
  attempted_ += static_cast<uint64_t>(
      w->Sum([](const ConnStats& c) { return c.attempted; }) - attempted);
  failed_ += static_cast<uint64_t>(
      w->Sum([](const ConnStats& c) { return c.failed; }) - failed);
  for (const ConnStats& c : w->conns) {
    if (first_error_.empty()) first_error_ = c.first_error;
  }
}

// CHECK INDEX plus fixed oracle queries at the final current time, through
// the server and (external file) through a reopened index.
void Bench::FinalChecks() {
  final_state_ = ApplyStream(in_.base, in_.stream, writer_.next);
  const int64_t ct = writer_.ct;
  final_probes_ = StairProbes(final_state_, ct);
  final_probes_.resize(4);
  for (Probe& p : RectProbes(final_state_, ct, opt_.seed ^ 0x7ec7, 4)) {
    final_probes_.push_back(std::move(p));
  }
  for (Probe& p :
       EqualProbes(final_state_, ct, false, opt_.seed ^ 0xe0a1, 8)) {
    final_probes_.push_back(std::move(p));
  }
  grtdb::Server* server = served_.server.get();
  ResultSet rs;
  ++attempted_;
  Status s = server->Execute(served_.control,
                             "CHECK INDEX " + std::string(kIndex), &rs);
  if (!s.ok()) Fail("CHECK INDEX: " + s.ToString());
  for (const Probe& probe : final_probes_) {
    ++attempted_;
    s = server->Execute(served_.control, probe.sql, &rs);
    if (!s.ok()) {
      Fail("final: " + s.ToString());
    } else if (!SameIds(rs, probe.ids)) {
      Fail("final mismatch: " + probe.sql);
    }
  }
  if (spec_.external_file) {
    ++attempted_;
    std::string mismatch;
    s = ReopenedAnswers(&served_, opt_.workdir, final_probes_, ct,
                        final_state_, &mismatch);
    if (!s.ok()) Fail("reopen: " + s.ToString());
    if (!mismatch.empty()) Fail(mismatch);
  }
}

// The workload's reads through Server::ExecutePrepared / Execute on an
// embedded session: the same statements without the wire. Also collects
// the per-statement QueryProfile, which times each purpose call in ns.
void Bench::EmbeddedReplay(const std::vector<Probe>& probes, Metrics* out) {
  BenchTrace::Scope span(&bench_trace_, "server.embedded");
  grtdb::Server* server = served_.server.get();
  grtdb::ServerSession* session = server->CreateSession();
  ResultSet rs;
  bool ok = server->Prepare(session, "probe", kProbeSql, &rs).ok();
  std::vector<double> us;
  double getnext_ns = 0, getnext_calls = 0, scanned = 0, returned = 0;
  const size_t rounds = spec_.prepared_reads ? probes.size() : 32;
  for (size_t i = 0; ok && i < rounds; ++i) {
    const Probe& probe = probes[i % probes.size()];
    const Clock::time_point t0 = Clock::now();
    Status s;
    if (spec_.prepared_reads) {
      s = server->ExecutePrepared(session, "probe", {ProbeParam(probe.extent)},
                                  &rs);
    } else {
      s = server->Execute(session, probe.sql, &rs);
    }
    us.push_back(Micros(Clock::now() - t0));
    ++attempted_;
    if (!s.ok() || !SameIds(rs, probe.ids)) {
      Fail("embedded: " + probe.sql);
      ok = false;
    }
    const grtdb::obs::QueryProfile& prof = session->profile();
    getnext_ns += static_cast<double>(
        prof.call_ns(grtdb::obs::PurposeFn::kAmGetNext));
    getnext_calls +=
        static_cast<double>(prof.calls(grtdb::obs::PurposeFn::kAmGetNext));
    scanned += static_cast<double>(prof.rows_scanned);
    returned += static_cast<double>(prof.rows_returned);
  }
  (void)server->CloseSession(session);
  out->Add("server.embedded_p50_us", "us", Median(us));
  out->Add("server.useful_row_ratio", "ratio", Ratio(returned, scanned));
  out->Add("blades.getnext_ns", "ns", Ratio(getnext_ns, getnext_calls));
}

// Per-layer metrics of a traced run: counters over its untraced quarters
// (tracing would inflate the timing histograms), spans over its traced
// quarters.
void Bench::AddTracedMetrics(const Window& untraced, const Window& traced,
                             const Delta& d, Metrics* out) {
  const double stmts = untraced.Statements();
  const double rows = untraced.Rows();
  const double commits = d.Value("wal.commits");
  out->Add("net.bytes_out_per_row", "B",
           Ratio(d.Value("net.bytes_out"), rows));
  const double hits = d.Value("plan_cache.hits");
  out->Add("server.plan_cache_hit_ratio", "ratio",
           Ratio(hits, hits + d.Value("plan_cache.misses")));
  out->Add("blades.am_open_per_stmt", "count",
           Ratio(d.Value("vii.am_open.calls"), stmts));
  out->Add("blades.am_open_us", "us", d.Mean("vii.am_open.us"));
  out->Add("blades.getnext_per_row", "count",
           Ratio(d.Value("vii.am_getnext.calls"), rows));
  out->Add("blades.insert_us", "us", d.Mean("vii.am_insert.us"));
  // Logical deletes reach the blade as am_update (grt_delete followed by
  // grt_insert, Table 5); a physical DELETE would be am_delete.
  out->Add("blades.delete_us", "us",
           Ratio(d.Sum("vii.am_update.us") + d.Sum("vii.am_delete.us"),
                 d.Count("vii.am_update.us") + d.Count("vii.am_delete.us")));
  out->Add("core.node_reads_per_stmt", "count",
           Ratio(d.Value("cache.reads"), stmts));
  out->Add("core.node_reads_per_row", "count",
           Ratio(d.Value("cache.reads"), rows));
  const double cache_hits = d.Value("cache.hits");
  out->Add("storage.cache_hit_ratio", "ratio",
           Ratio(cache_hits, cache_hits + d.Value("cache.misses")));
  out->Add("storage.cache_misses_per_stmt", "count",
           Ratio(d.Value("cache.misses"), stmts));
  out->Add("storage.cache_evictions_per_stmt", "count",
           Ratio(d.Value("cache.evictions"), stmts));
  const double pager_hits = d.Value("pager.hits");
  out->Add("storage.pager_hit_ratio", "ratio",
           Ratio(pager_hits, pager_hits + d.Value("pager.misses")));
  out->Add("storage.pager_physical_reads_per_stmt", "count",
           Ratio(d.Value("pager.physical_reads"), stmts));
  out->Add("storage.cache_write_backs_per_commit", "count",
           Ratio(d.Value("cache.write_backs"), commits));
  out->Add("txn.lock_acquisitions_per_stmt", "count",
           Ratio(d.Value("lock.acquisitions"), stmts));
  out->Add("txn.lock_waits_per_stmt", "count",
           Ratio(d.Value("lock.waits"), stmts));
  out->Add("txn.lock_timeouts", "count", d.Value("lock.timeouts"));
  out->Add("txn.deadlocks", "count", d.Value("lock.deadlocks"));

  // Spans: mean self time per traced statement, by phase.
  using grtdb::obs::SpanName;
  const std::map<uint64_t, RequestAttribution> attributed =
      AttributeTraces(served_.server->span_tracer().Snapshot());
  double self_us[grtdb::obs::kSpanNameCount] = {};
  double coverage = 0, traced_rows = 0, traced_n = 0, missing = 0;
  for (const ConnStats& c : traced.conns) {
    for (const auto& [id, result_rows] : c.traced) {
      auto it = attributed.find(id);
      if (it == attributed.end()) {
        ++missing;
        continue;
      }
      for (size_t n = 0; n < grtdb::obs::kSpanNameCount; ++n) {
        self_us[n] += it->second.self_us[n];
      }
      coverage += it->second.coverage;
      traced_rows += static_cast<double>(result_rows);
      ++traced_n;
    }
  }
  auto per_stmt = [&](SpanName name) {
    return Ratio(self_us[static_cast<size_t>(name)], traced_n);
  };
  out->Add("net.decode_us", "us", per_stmt(SpanName::kWireDecode));
  // The accept-queue wait is paid once per connection, on its first
  // request: the ping each connection opened with under a trace id.
  double queue_wait_us = 0;
  for (uint64_t id : open_trace_ids_) {
    auto it = attributed.find(id);
    if (it != attributed.end()) {
      queue_wait_us +=
          it->second.self_us[static_cast<size_t>(SpanName::kQueueWait)];
    }
  }
  out->Add("net.queue_wait_us", "us",
           Ratio(queue_wait_us, static_cast<double>(open_trace_ids_.size())));
  out->Add("net.respond_us", "us", per_stmt(SpanName::kRespond));
  out->Add("server.gate_wait_us", "us", per_stmt(SpanName::kGateWait));
  out->Add("server.plan_us", "us", per_stmt(SpanName::kPlan));
  out->Add("server.exec_self_us", "us", per_stmt(SpanName::kExec));
  out->Add("server.exec_ns_per_row", "ns",
           Ratio(self_us[static_cast<size_t>(SpanName::kExec)] * 1000.0,
                 traced_rows));
  out->Add("blades.purpose_self_us", "us", per_stmt(SpanName::kPurpose));
  out->Add("storage.node_io_us", "us", per_stmt(SpanName::kNodeIo));
  out->Add("storage.wal_wait_us", "us", per_stmt(SpanName::kWalWait));
  out->Add("txn.lock_wait_us", "us", per_stmt(SpanName::kLockWait));
  out->Add("obs.phase_coverage", "ratio", Ratio(coverage, traced_n));
  out->Add("obs.spans_evicted", "count",
           static_cast<double>(served_.server->span_tracer().evicted()));
  out->Add("obs.traces_missing", "count", missing);
  out->Add("obs.trace_overhead_frac", "ratio",
           1.0 - Ratio(Ratio(traced.Ops(), traced.seconds),
                       Ratio(untraced.Ops(), untraced.seconds)));
}

int Bench::Run() {
  readers_ = opt_.readers >= 0 ? opt_.readers : spec_.readers;
  // Sized so a writer never runs dry: far above any rate the writer
  // sustains over the window.
  const size_t stream_actions =
      spec_.writer ? static_cast<size_t>(opt_.seconds * 1000) + 64 : 0;
  in_ = MakeInputs(opt_.seed, spec_.base_actions, stream_actions);
  writer_.ct = in_.base_ct;
  if (spec_.prepared_reads) {
    probes_ = EqualProbes(in_.base, in_.base_ct, spec_.frozen_probes,
                          opt_.seed ^ 0x9e37, kProbeCount);
  } else {
    probes_ = StairProbes(in_.base, in_.base_ct);
  }
  if (opt_.corrupt_oracle && !probes_.empty()) {
    probes_[0].ids.push_back(~0ull);  // an answer no server can give
  }
  {
    std::ofstream load(Workdir(opt_.workdir, "base.unl"));
    load << in_.load_rows;
    if (!load) {
      std::fprintf(stderr, "wirebench: cannot write the LOAD file\n");
      return 2;
    }
  }

  // Set-up, timed several times on fresh servers; the last one serves.
  const size_t span_capacity =
      opt_.trace ? kSpanCapacity : grtdb::obs::SpanTracer::kDefaultCapacity;
  std::vector<double> setup_s;
  for (int i = 0; i < (opt_.trace ? 1 : kSetups); ++i) {
    served_ = Served();
    double seconds = 0;
    Status s = SetUp(spec_, in_, opt_.workdir, span_capacity, &served_,
                     &seconds);
    if (!s.ok()) {
      std::fprintf(stderr, "wirebench: set-up failed: %s\n",
                   s.ToString().c_str());
      return 2;
    }
    setup_s.push_back(seconds);
  }
  uint64_t entries = 0, height = 0;
  if (Status s = IndexStats(&served_, &nodes_after_load_, &entries, &height);
      !s.ok()) {
    std::fprintf(stderr, "wirebench: %s\n", s.ToString().c_str());
    return 2;
  }

  grtdb::net::NetServerOptions net_options;
  net_options.num_workers = readers_ + (spec_.writer ? 1 : 0) + 1;
  net_ = std::make_unique<grtdb::net::NetServer>(served_.server.get(),
                                                 net_options);
  if (Status s = net_->Start(); !s.ok()) {
    std::fprintf(stderr, "wirebench: listen: %s\n", s.ToString().c_str());
    return 2;
  }
  const int connections = readers_ + (spec_.writer ? 1 : 0);
  for (int i = 0; i < connections; ++i) {
    conns_.push_back(std::make_unique<Conn>(i));
    open_trace_ids_.push_back(opt_.trace ? kOpenTraceBase + i : 0);
    if (Status s = conns_.back()->Open(net_->port(), spec_.prepared_reads,
                                       open_trace_ids_.back());
        !s.ok()) {
      std::fprintf(stderr, "wirebench: connect: %s\n", s.ToString().c_str());
      return 2;
    }
  }

  // Readers start spread evenly over the probes.
  for (int r = 0; r < readers_; ++r) {
    reader_next_.push_back(static_cast<size_t>(r) * probes_.size() /
                           static_cast<size_t>(readers_));
  }

  // Warm-up: first-request costs and the climb to steady throughput land
  // outside the measured windows. Its operations are checked like the rest.
  {
    Window warmup;
    RunWindow(kWarmupSeconds, 0, &warmup);
  }

  Metrics metrics;
  Window main_window;
  std::vector<double> slice_ops, slice_rows, slice_cpu;
  if (!opt_.trace) {
    // The host's load swings over seconds, so the window is cut into
    // slices and rates and medians are reported as the median slice.
    for (int i = 0; i < kSlices; ++i) {
      const double seconds = main_window.seconds;
      const double ops = main_window.Ops();
      const double rows = main_window.Rows();
      const double cpu_us = main_window.CpuUs();
      RunWindow(opt_.seconds / kSlices, 0, &main_window);
      const double slice_seconds = main_window.seconds - seconds;
      const double slice_ops_done = main_window.Ops() - ops;
      slice_ops.push_back(Ratio(slice_ops_done, slice_seconds));
      slice_rows.push_back(Ratio(main_window.Rows() - rows, slice_seconds));
      slice_cpu.push_back(Ratio(main_window.CpuUs() - cpu_us, slice_ops_done));
    }
  } else {
    // Untraced and traced quarters alternate, so drift cancels out of
    // their throughput ratio. Counters come from the untraced quarters.
    Window traced;
    Delta counters;
    for (int pair = 0; pair < 2; ++pair) {
      const double ops = main_window.Ops();
      counters.Begin(served_.server.get());
      RunWindow(opt_.seconds / 4, 0, &main_window);
      counters.End(served_.server.get());
      // Spread each connection's traced operations over the window.
      const double ops_per_conn =
          (main_window.Ops() - ops) / static_cast<double>(conns_.size());
      RunWindow(
          opt_.seconds / 4,
          std::max(1, static_cast<int>(ops_per_conn / spec_.trace_cap) + 1),
          &traced);
    }
    AddTracedMetrics(main_window, traced, counters, &metrics);
  }

  if (opt_.trace) {
    BenchTrace::Scope span(&bench_trace_, "net.ping");
    std::vector<double> rtt;
    for (int i = 0; i < 2000; ++i) {
      const Clock::time_point t0 = Clock::now();
      ++attempted_;
      if (!conns_[0]->Ping().ok()) Fail("ping");
      rtt.push_back(Micros(Clock::now() - t0));
    }
    metrics.Add("net.ping_rtt_us", "us", Median(rtt));
  }
  conns_.clear();
  net_->Stop();

  if (spec_.writer) FinalChecks();
  uint64_t nodes = 0;
  if (Status s = IndexStats(&served_, &nodes, &entries, &height); !s.ok()) {
    Fail("index stats: " + s.ToString());
  }

  if (opt_.trace) {
    // The workload's reads for the embedded path and the in-memory tree.
    // wal_ingest's read-backs change answer as later actions freeze
    // versions, so its final Equal probes stand in for them.
    const bool on_final = readers_ == 0 && spec_.writer;
    std::vector<Probe> reads;
    for (const Probe& p : on_final ? final_probes_ : probes_) {
      if (!on_final || p.sql.find("Equal(") != std::string::npos) {
        reads.push_back(p);
      }
    }
    EmbeddedReplay(reads, &metrics);
    LayerInputs layer;
    layer.inputs = &in_;
    layer.actions_run = writer_.next;
    layer.read_op = spec_.prepared_reads ? grtdb::PredicateOp::kEqual
                                         : grtdb::PredicateOp::kOverlaps;
    for (const Probe& p : reads) {
      layer.read_queries.push_back(p.extent);
      layer.read_ids.push_back(p.ids);
      layer.statements.push_back(p.sql);
      layer.literals.push_back(ExtentText(p.extent));
    }
    layer.read_ct = on_final ? writer_.ct : in_.base_ct;
    layer.reads_after_stream = on_final;
    for (size_t i = 0; i < writer_.next; ++i) {
      for (const std::string& sql : in_.stream[i].statements) {
        layer.statements.push_back(sql);
      }
      for (const grtdb::IndexOp& op : in_.stream[i].ops) {
        layer.literals.push_back(ExtentText(op.extent));
      }
    }
    layer.external_file = spec_.external_file;
    layer.workdir = opt_.workdir;
    layer.served_nodes_after_load = nodes_after_load_;
    std::string error;
    ++attempted_;
    if (!TimeLayerCalls(layer, &bench_trace_, &metrics, &error)) {
      Fail("layer calls: " + error);
    }
    metrics.Add("core.nodes", "count", static_cast<double>(nodes));
    metrics.Add("core.height", "count", static_cast<double>(height));
    metrics.Add("bench.ops_per_s", "ops/s",
                Ratio(main_window.Ops(), main_window.seconds));
    metrics.Add("bench.rows_per_s", "rows/s",
                Ratio(main_window.Rows(), main_window.seconds));
    metrics.Add("bench.read_p50_us", "us", main_window.ProbeMedianReadUs());
    metrics.Add("bench.read_p99_us", "us",
                Quantile(main_window.Merge(&ConnStats::read_us), 0.99));
    const std::vector<double> writes = main_window.Merge(&ConnStats::write_us);
    metrics.Add("bench.write_p50_us", "us", Quantile(writes, 0.5));
    metrics.Add("bench.write_p99_us", "us", Quantile(writes, 0.99));
    metrics.Add("bench.send_lag_p99_us", "us",
                Quantile(main_window.Merge(&ConnStats::lag_us), 0.99));
    const std::string trace_path =
        Workdir(opt_.workdir, "bench_spans.json");
    if (!bench_trace_.WriteChromeJson(trace_path)) {
      Fail("cannot write " + trace_path);
    }
  } else {
    const std::vector<double> reads = main_window.Merge(&ConnStats::read_us);
    const std::vector<double> writes = main_window.Merge(&ConnStats::write_us);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics.Add("setup_s", "s", Median(setup_s));
    metrics.Add("read_p50_us", "us", main_window.ProbeMedianReadUs());
    metrics.Add("cpu_us_per_op", "us", Median(slice_cpu));
    metrics.Add("read_p99_us", "us", Quantile(reads, 0.99));
    metrics.Add("write_p50_us", "us", Quantile(writes, 0.5));
    metrics.Add("write_p99_us", "us", Quantile(writes, 0.99));
    metrics.Add("ops_per_s", "ops/s", Median(slice_ops));
    metrics.Add("rows_per_s", "rows/s", Median(slice_rows));
    metrics.Add("error_rate", "ratio",
                Ratio(static_cast<double>(failed_),
                      static_cast<double>(attempted_)));
    metrics.Add("peak_rss_mb", "MiB",
                static_cast<double>(usage.ru_maxrss) / 1024.0);
    metrics.Add("index_bytes_per_row", "B",
                Ratio(static_cast<double>(nodes) * grtdb::kPageSize,
                      static_cast<double>(entries)));
  }

  const bool correct = failed_ == 0;
  std::printf("wirebench %s seed=%llu trace=%d: %.0f ops in %.2f s, "
              "%llu failed of %llu%s%s\n",
              spec_.name, static_cast<unsigned long long>(opt_.seed),
              opt_.trace ? 1 : 0, main_window.Ops(), main_window.seconds,
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_),
              first_error_.empty() ? "" : "; first: ",
              first_error_.c_str());
  metrics.Print(stdout);
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"hardware_concurrency\": %u, \"build_type\": \"%s\", "
      "\"connections\": %d, \"readers\": %d, \"writer\": %s, "
      "\"base_actions\": %llu, \"base_rows\": %zu, "
      "\"index_nodes_after_load\": %llu, \"writer_rate_per_s\": %g, "
      "\"writer_actions\": %zu, \"send_lag_p99_us\": %.1f, "
      "\"seconds\": %g, \"span_capacity\": %zu}, "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      spec_.name, static_cast<unsigned long long>(opt_.seed),
      std::thread::hardware_concurrency(), WIREBENCH_BUILD_TYPE,
      readers_ + (spec_.writer ? 1 : 0), readers_,
      spec_.writer ? "true" : "false",
      static_cast<unsigned long long>(spec_.base_actions), in_.base.size(),
      static_cast<unsigned long long>(nodes_after_load_), spec_.writer_rate,
      writer_.next, Quantile(main_window.Merge(&ConnStats::lag_us), 0.99),
      opt_.seconds, span_capacity, correct ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), metrics.Json().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wirebench

int main(int argc, char** argv) {
  wirebench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--corrupt-oracle") {
      options.corrupt_oracle = true;
      continue;
    }
    if (value == nullptr) {
      std::fprintf(stderr, "wirebench: %s needs a value\n", arg.c_str());
      return 2;
    }
    ++i;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (arg == "--workdir") {
      options.workdir = value;
    } else if (arg == "--readers") {
      options.readers = std::atoi(value);
    } else {
      std::fprintf(stderr, "wirebench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  const wirebench::Spec* spec = wirebench::FindSpec(options.workload);
  if (spec == nullptr || options.seconds <= 0 || options.workdir.empty() ||
      (options.readers == 0 && !spec->writer)) {
    std::fprintf(stderr,
                 "usage: wirebench --workload point_lookup|current_scan|"
                 "mixed_rw|wal_ingest --seed N --seconds S --trace 0|1 "
                 "--workdir DIR [--readers N] [--corrupt-oracle]\n");
    return 2;
  }
  return wirebench::Bench(options, *spec).Run();
}
