// Multi-threaded observability stress: writers hammer shared registry
// counters/histograms, the trace ring, the span tracer, and the heat
// tracker while readers snapshot, render, and flip trace classes. The
// third -DGRTDB_SANITIZE=thread target (next to wal_stress and
// cache_stress): the interesting races are the lock-free trace enabled
// check against SetClass, the relaxed metric updates against Snapshot,
// the span tracer's relaxed sampling gate against set_sample_every while
// scopes record into the ring racing Snapshot/Clear, and the heat
// tracker's relaxed gate against RecordAccess racing Snapshot/Clear. A
// second phase runs the same heat machinery inside a live server: scan
// traffic feeds sys_hot_nodes while UPDATE STATISTICS races CREATE/DROP
// INDEX and concurrent sys_hot_nodes readers. A third phase races Clear()
// against admissions at the heat tracker's node cap.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "blade/trace.h"
#include "blades/grtree_blade.h"
#include "obs/heat_tracker.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "obs/slow_query_log.h"
#include "obs/span_tracer.h"
#include "server/server.h"
#ifdef GRTDB_WITNESS
#include "txn/witness.h"
#endif

using grtdb::TraceFacility;
using grtdb::obs::Counter;
using grtdb::obs::HeatAccess;
using grtdb::obs::HeatTracker;
using grtdb::obs::Histogram;
using grtdb::obs::HotNode;
using grtdb::obs::MetricSample;
using grtdb::obs::MetricsRegistry;
using grtdb::obs::PurposeFn;
using grtdb::obs::QueryProfile;
using grtdb::obs::ScopedProfile;
using grtdb::obs::SlowQueryEntry;
using grtdb::obs::SlowQueryLog;
using grtdb::obs::SpanName;
using grtdb::obs::SpanRecord;
using grtdb::obs::SpanScope;
using grtdb::obs::SpanTracer;
using grtdb::obs::TraceHandle;
using grtdb::obs::TraceScope;

namespace {

constexpr int kWriters = 8;
constexpr int kOpsPerWriter = 20000;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    std::exit(1);
  }
}

}  // namespace


// Phase two: the heat machinery inside a live server. Scanner sessions
// feed sys_hot_nodes through the grtree blade's node cache while UPDATE
// STATISTICS (shared statement gate, walks every index) races CREATE/DROP
// INDEX (exclusive gate) and concurrent sys_hot_nodes readers — the
// cross-layer interleavings behind the contention observatory.
static void ServerHeatPhase() {
  grtdb::Server server;
  Check(grtdb::RegisterGRTreeBlade(&server).ok(), "register grtree blade");

  auto exec = [&server](grtdb::ServerSession* session, const std::string& sql) {
    grtdb::ResultSet result;
    const grtdb::Status status = server.Execute(session, sql, &result);
    if (!status.ok()) {
      std::fprintf(stderr, "FAIL: %s -> %s\n", sql.c_str(),
                   status.ToString().c_str());
      std::exit(1);
    }
    return result;
  };

  grtdb::ServerSession* admin = server.CreateSession();
  exec(admin, "CREATE TABLE t (id int, e grt_timeextent)");
  exec(admin, "CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am");
  // The DDL churn gets its own table: a second grtree index on t(e) would
  // trip the duplicate-index guard.
  exec(admin, "CREATE TABLE ddl_t (id int, e grt_timeextent)");
  exec(admin, "SET CURRENT_TIME TO 20000");
  exec(admin, "SET HEAT_TRACK = 1");
  for (int i = 0; i < 64; ++i) {
    exec(admin, "INSERT INTO t VALUES (" + std::to_string(i) +
                    ", '20000, UC, " + std::to_string(19900 + i) + ", NOW')");
  }

  constexpr int kScanners = 2;
  constexpr int kSysReaders = 2;
  constexpr int kScansPerThread = 300;
  constexpr int kStatsRounds = 100;
  constexpr int kDdlRounds = 40;

  std::vector<std::thread> threads;
  for (int s = 0; s < kScanners; ++s) {
    grtdb::ServerSession* session = server.CreateSession();
    threads.emplace_back([&exec, session] {
      for (int i = 0; i < kScansPerThread; ++i) {
        exec(session, "SELECT id FROM t WHERE Overlaps(e, "
                      "'20000, UC, 19900, NOW')");
      }
    });
  }
  {
    grtdb::ServerSession* session = server.CreateSession();
    threads.emplace_back([&exec, session] {
      for (int i = 0; i < kStatsRounds; ++i) {
        exec(session, "UPDATE STATISTICS");
      }
    });
  }
  {
    grtdb::ServerSession* session = server.CreateSession();
    threads.emplace_back([&exec, session] {
      for (int i = 0; i < kDdlRounds; ++i) {
        exec(session, "CREATE INDEX tmp_idx ON ddl_t(e grt_opclass) "
                      "USING grtree_am");
        exec(session, "DROP INDEX tmp_idx");
      }
    });
  }
  for (int r = 0; r < kSysReaders; ++r) {
    grtdb::ServerSession* session = server.CreateSession();
    threads.emplace_back([&exec, session] {
      for (int i = 0; i < kScansPerThread; ++i) {
        const grtdb::ResultSet result =
            exec(session, "SELECT * FROM sys_hot_nodes");
        Check(result.columns.size() == 6, "sys_hot_nodes has 6 columns");
        for (const auto& row : result.rows) {
          Check(row.size() == 6, "sys_hot_nodes row shape");
          Check(!row[0].empty(), "sys_hot_nodes store label");
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // The scanners ran with the gate armed the whole phase and nothing
  // cleared the tracker, so the index the traffic hammered must rank.
  const grtdb::ResultSet final_heat =
      exec(admin, "SELECT * FROM sys_hot_nodes");
  Check(!final_heat.rows.empty(), "heat survived the phase");
  bool saw_t_idx = false;
  for (const auto& row : final_heat.rows) {
    if (row[0] == "t_idx") saw_t_idx = true;
  }
  Check(saw_t_idx, "t_idx shows in sys_hot_nodes");
  std::printf("obs_stress heat phase OK: %zu hot nodes\n",
              final_heat.rows.size());
}

// Phase three: the heat tracker's node cap under concurrent admission and
// Clear(). Writers admit fresh keys (each writer its own store, node ids
// counting up) while the main thread clears repeatedly; once they stop, a
// single thread offers four caps' worth of keys the tracker has never
// seen. Every admission and every Clear() must have kept the count exact,
// or the refill is admitted past the cap.
static void HeatCapPhase() {
  constexpr size_t kCap = 256;
  constexpr int kTrials = 50;
  constexpr int kCapWriters = 6;
  constexpr int kClears = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    HeatTracker heat(kCap);
    heat.set_enabled(true);
    std::atomic<int> running{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < kCapWriters; ++w) {
      writers.emplace_back([&heat, &running, &stop, w] {
        const uint32_t store = heat.RegisterStore("cap_" + std::to_string(w));
        running.fetch_add(1, std::memory_order_relaxed);
        for (uint64_t node = 0; !stop.load(std::memory_order_relaxed);
             ++node) {
          heat.RecordAccess(store, node, HeatAccess::kRead);
        }
      });
    }
    while (running.load(std::memory_order_relaxed) < kCapWriters) {
      std::this_thread::yield();
    }
    for (int c = 0; c < kClears; ++c) heat.Clear();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : writers) t.join();

    const uint32_t refill = heat.RegisterStore("cap_refill");
    for (uint64_t node = 0; node < 4 * kCap; ++node) {
      heat.RecordAccess(refill, node, HeatAccess::kRead);
    }
    Check(heat.Snapshot().size() <= kCap,
          "heat tracker cap holds after Clear() races admissions");
  }
  std::printf("obs_stress heat cap phase OK: %d trials\n", kTrials);
}

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
  MetricsRegistry registry;
  TraceFacility trace(/*capacity=*/256);
  trace.SetClass("stress", 1);
  SlowQueryLog slow_log;
  slow_log.set_threshold_ns(1);
  SpanTracer tracer(/*capacity=*/512);
  tracer.set_sample_every(1);
  // Small cap so the stress drives both the admission and the dropped()
  // paths; the toggler flips the gate against in-flight RecordAccess.
  HeatTracker heat(/*max_nodes=*/256);
  heat.set_enabled(true);

  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, &trace, &slow_log, &tracer, &heat, w] {
      // Half the threads resolve handles up front (the subsystem pattern),
      // half go through the registry every time (contends the mutex).
      Counter* cached = registry.GetCounter("stress.ops");
      Histogram* latency = registry.GetHistogram("stress.us");
      // Two labels across the writers: RegisterStore's dedup runs
      // concurrently and every cache of a store aggregates into one id.
      const uint32_t store =
          heat.RegisterStore(w % 2 == 0 ? "stress_idx_a" : "stress_idx_b");
      QueryProfile profile;
      ScopedProfile scope(&profile);
      for (int i = 0; i < kOpsPerWriter; ++i) {
        if (w % 2 == 0) {
          cached->Add();
          latency->Record(static_cast<uint64_t>(i % 4096));
        } else {
          registry.GetCounter("stress.ops")->Add();
          registry.GetHistogram("stress.us")->Record(
              static_cast<uint64_t>(i % 4096));
        }
        registry.GetGauge("stress.gauge")->Set(i);
        profile.CountCall(PurposeFn::kAmGetNext, "am_getnext");
        ++profile.node_reads;
        // Mostly-disabled tracing (the fast path), with periodic records.
        trace.Tprintf("quiet", 5, "never emitted %d", i);
        if (i % 64 == 0) trace.Tprintf("stress", 1, "w%d op %d", w, i);
        // Periodic slow-statement admissions contending the log's ring.
        if (i % 128 == 0) {
          slow_log.MaybeRecord("stress query", 1 + i, profile);
        }
        // Heat traffic, gated exactly like the production recording
        // sites: a handful of keys take most of the hits (the decayed
        // ranking the heat reader checks) while the tail wanders past
        // the node cap into dropped().
        if (heat.enabled()) {
          const uint64_t node = i % 16 == 0 ? static_cast<uint64_t>(i)
                                            : static_cast<uint64_t>(i % 7);
          heat.RecordAccess(store, node,
                            i % 4 == 0 ? HeatAccess::kWrite : HeatAccess::kRead,
                            /*pin_wait_ns=*/i % 512 == 0 ? 1000 : 0);
        }
        // Span traffic: the sampling gate races the toggler's
        // set_sample_every; sampled iterations drive the net-server shape
        // (root scope, nested child, one retroactive EmitSpan) into the
        // shared ring racing the span reader's Snapshot/Clear.
        const TraceHandle handle =
            tracer.StartTrace(i % 509 == 0 ? 0x1D0000u + i : 0);
        if (handle.active()) {
          TraceScope root(handle, SpanName::kRequest);
          SpanScope exec(SpanName::kExec, static_cast<uint64_t>(w));
          if (i % 32 == 0) {
            const TraceHandle here = grtdb::obs::CurrentTraceHandle();
            tracer.EmitSpan(here, SpanName::kLockWait, 1, 2,
                            static_cast<uint64_t>(i));
          }
        }
      }
      Check(profile.calls(PurposeFn::kAmGetNext) ==
                static_cast<uint64_t>(kOpsPerWriter),
            "thread-local profile count");
    });
  }

  // Readers: registry snapshots, trace renders, and class flips racing the
  // writers' Enabled() checks.
  std::thread snapshotter([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const MetricSample& s : registry.Snapshot()) {
        Check(!s.name.empty(), "sample has a name");
      }
    }
  });
  std::thread trace_reader([&trace, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)trace.log();
      (void)trace.records();
      (void)trace.dropped();
    }
  });
  std::thread toggler([&trace, &tracer, &heat, &stop] {
    int level = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      trace.SetClass("flippy", level % 3);
      trace.SetClass("quiet", 0);
      // Race the writers' StartTrace relaxed load: every, off, 1-in-4.
      static const uint32_t kRates[3] = {1, 0, 4};
      tracer.set_sample_every(kRates[level % 3]);
      // Race the writers' heat.enabled() relaxed load (mostly on, so
      // traffic definitely reaches the shards).
      heat.set_enabled(level % 4 != 3);
      ++level;
    }
    heat.set_enabled(true);
  });
  // Span ring under load: Snapshot() ordering and bounds hold at every
  // instant, and periodic Clear() races the writers' Record().
  std::thread span_reader([&tracer, &stop] {
    uint64_t rounds = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<SpanRecord> spans = tracer.Snapshot();
      Check(spans.size() <= tracer.capacity(), "span ring bounded");
      for (size_t i = 1; i < spans.size(); ++i) {
        Check(spans[i].seq > spans[i - 1].seq, "span ring oldest-first");
      }
      (void)tracer.SnapshotTrace(0x1D0000u);
      if (++rounds % 64 == 0) tracer.Clear();
    }
  });
  // Heat tracker under load: Snapshot() ranking and the node cap hold at
  // every instant while writers record and the toggler flips the gate;
  // periodic Clear() races in-flight RecordAccess.
  std::thread heat_reader([&heat, &stop] {
    uint64_t rounds = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<HotNode> nodes = heat.Snapshot();
      Check(nodes.size() <= heat.max_nodes(), "heat tracker bounded");
      for (size_t i = 1; i < nodes.size(); ++i) {
        Check(nodes[i].heat <= nodes[i - 1].heat, "heat ranked descending");
      }
      (void)heat.dropped();
      if (++rounds % 128 == 0) heat.Clear();
    }
  });
  // Slow-query ring and exporter under load: Snapshot() and ExportText()
  // race the writers' admissions and relaxed metric updates, and the
  // threshold flips race the writers' MaybeRecord fast-path check.
  std::thread slow_reader([&slow_log, &registry, &stop] {
    uint64_t flips = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<SlowQueryEntry> entries = slow_log.Snapshot();
      Check(entries.size() <= slow_log.capacity(), "slow ring bounded");
      for (size_t i = 1; i < entries.size(); ++i) {
        Check(entries[i].seq > entries[i - 1].seq, "slow ring oldest-first");
      }
      const std::string text = registry.ExportText();
      Check(text.empty() || text.rfind("# TYPE ", 0) == 0,
            "exporter renders under load");
      slow_log.set_threshold_ns(++flips % 3 == 0 ? 0 : 1);
    }
    slow_log.set_threshold_ns(1);
  });

  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();
  trace_reader.join();
  toggler.join();
  span_reader.join();
  heat_reader.join();
  slow_reader.join();

  const uint64_t expected =
      static_cast<uint64_t>(kWriters) * static_cast<uint64_t>(kOpsPerWriter);
  Check(registry.GetCounter("stress.ops")->value() == expected,
        "counter total");
  Check(registry.GetHistogram("stress.us")->count() == expected,
        "histogram total");
  Check(trace.log().size() <= 256, "ring bounded");
  // Span accounting: wire-id starts (1 in 509 iterations) sample
  // regardless of the gate, so traffic definitely reached the ring; the
  // admitted/evicted counters only ever grow (Clear drops records, not
  // history).
  Check(tracer.admitted() > 0, "span tracer saw traffic");
  Check(tracer.admitted() >= tracer.evicted(), "span eviction accounting");
  Check(tracer.Snapshot().size() <= tracer.capacity(), "span ring bounded");
  // Heat accounting: the reader's last Clear may land after the writers
  // finish, so only the bound holds here — the ranking invariants were
  // checked at every instant of the run by the heat reader.
  Check(heat.Snapshot().size() <= heat.max_nodes(), "heat tracker bounded");
  std::printf("obs_stress OK: %llu ops, %zu trace records, %llu dropped, "
              "%llu spans admitted (%llu evicted), %zu hot nodes "
              "(%llu heat drops)\n",
              static_cast<unsigned long long>(expected), trace.log().size(),
              static_cast<unsigned long long>(trace.dropped()),
              static_cast<unsigned long long>(tracer.admitted()),
              static_cast<unsigned long long>(tracer.evicted()),
              heat.Snapshot().size(),
              static_cast<unsigned long long>(heat.dropped()));

  ServerHeatPhase();
  HeatCapPhase();
  return WitnessVerdict();
}
