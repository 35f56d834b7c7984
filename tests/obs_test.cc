#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "blades/access_method.h"
#include "blades/btree_blade.h"
#include "blades/gist_blade.h"
#include "blades/grtree_blade.h"
#include "blades/rstar_blade.h"
#include "obs/heat_tracker.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "obs/slow_query_log.h"
#include "obs/span_tracer.h"
#include "server/server.h"
#include "storage/node_cache.h"
#include "storage/node_store.h"
#include "storage/wal_store.h"

namespace grtdb {
namespace {

// ---- registry unit tests -------------------------------------------------

TEST(MetricsRegistry, CounterHandlesAreStableAndSharedByName) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("x");
  obs::Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  a->Add();
  a->Add(4);
  EXPECT_EQ(b->value(), 5u);
  EXPECT_NE(registry.GetCounter("y"), a);
}

// Each thread adds to its own stripe of a counter; the stripes sum to
// exactly what every thread added.
TEST(MetricsRegistry, CounterAddsFromEightThreadsSumExactly) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("hits");
  constexpr uint64_t kThreads = 8;
  constexpr uint64_t kAdds = 20000;
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter, t] {
      for (uint64_t i = 0; i < kAdds; ++i) counter->Add(i % 2 == 0 ? 1 : t);
    });
  }
  for (std::thread& thread : threads) thread.join();
  uint64_t expected = 0;
  for (uint64_t t = 0; t < kThreads; ++t) expected += kAdds / 2 * (1 + t);
  EXPECT_EQ(counter->value(), expected);
  EXPECT_EQ(registry.Snapshot()[0].value, static_cast<int64_t>(expected));
}

// Threads take stripes round-robin, so 2 * kStripes threads started one
// after another leave every stripe non-zero; Reset and ResetAll zero them
// all.
TEST(MetricsRegistry, ResetZeroesEveryStripe) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("c");
  obs::Counter* other = registry.GetCounter("d");
  auto add_from_every_stripe = [&] {
    for (size_t t = 0; t < 2 * obs::Counter::kStripes; ++t) {
      std::thread([&] {
        counter->Add(3);
        other->Add(5);
      }).join();
    }
  };
  add_from_every_stripe();
  EXPECT_EQ(counter->value(), 6 * obs::Counter::kStripes);
  counter->Reset();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(other->value(), 10 * obs::Counter::kStripes);
  add_from_every_stripe();
  EXPECT_EQ(counter->value(), 6 * obs::Counter::kStripes);
  registry.ResetAll();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(other->value(), 0u);
  counter->Add(7);
  EXPECT_EQ(counter->value(), 7u);
}

// The exposition text of counters and gauges, byte for byte: striping the
// counters changed how they count, not what they print.
TEST(MetricsRegistry, ExportTextOfCountersAndGaugesIsUnchanged) {
  obs::MetricsRegistry registry;
  obs::Counter* hits = registry.GetCounter("cache.hits");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([hits] { hits->Add(10); });
  }
  for (std::thread& thread : threads) thread.join();
  registry.GetCounter("a-b")->Add();
  registry.GetGauge("pool.free")->Set(-4);
  EXPECT_EQ(registry.ExportText(),
            "# TYPE grtdb_a_b counter\n"
            "grtdb_a_b 1\n"
            "# TYPE grtdb_cache_hits counter\n"
            "grtdb_cache_hits 40\n"
            "# TYPE grtdb_pool_free gauge\n"
            "grtdb_pool_free -4\n");
}

TEST(MetricsRegistry, GaugeTracksLastValue) {
  obs::MetricsRegistry registry;
  obs::Gauge* g = registry.GetGauge("pool.free");
  g->Set(100);
  g->Add(-25);
  EXPECT_EQ(g->value(), 75);
}

TEST(MetricsRegistry, HistogramBucketsByPowerOfTwo) {
  obs::Histogram h;
  h.Record(0);     // bucket 0: v == 0
  h.Record(1);     // bucket 1: [1, 2)
  h.Record(3);     // bucket 2: [2, 4)
  h.Record(1000);  // bucket 10: [512, 1024)
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1004u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(10), 1u);
  EXPECT_EQ(obs::Histogram::BucketBound(10), 1024u);
  // Everything at or above 2^20 lands in the overflow bucket.
  h.Record(~0ull);
  EXPECT_EQ(h.bucket(obs::Histogram::kBuckets - 1), 1u);
}

// A tally merged in one step leaves what recording its samples one by one
// leaves: the same buckets, count and sum.
TEST(MetricsRegistry, HistogramMergeEqualsRecordingEachSample) {
  obs::Histogram recorded;
  obs::Histogram merged;
  obs::HistogramTally tally;
  for (uint64_t v : {0ull, 1ull, 3ull, 3ull, 700ull, 1ull << 30, ~0ull >> 1}) {
    recorded.Record(v);
    tally.Record(v);
  }
  merged.Record(5);
  recorded.Record(5);
  merged.Merge(tally);
  EXPECT_EQ(merged.count(), recorded.count());
  EXPECT_EQ(merged.sum(), recorded.sum());
  for (size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    EXPECT_EQ(merged.bucket(i), recorded.bucket(i)) << "bucket " << i;
  }
}

TEST(MetricsRegistry, QuantileEstimatesFromBuckets) {
  obs::Histogram h;
  // Empty histogram: every quantile is 0 (the edge case EXPORT METRICS
  // must not divide by).
  EXPECT_EQ(h.Quantile(0.5), 0u);
  EXPECT_EQ(h.Quantile(0.99), 0u);

  // All mass at zero.
  for (int i = 0; i < 10; ++i) h.Record(0);
  EXPECT_EQ(h.Quantile(0.5), 0u);

  // 90 fast samples in [2,4), 10 slow ones in [512,1024): the median stays
  // in the fast bucket, the p99 lands in the slow one.
  h.Reset();
  for (int i = 0; i < 90; ++i) h.Record(3);
  for (int i = 0; i < 10; ++i) h.Record(700);
  const uint64_t p50 = h.Quantile(0.5);
  EXPECT_GE(p50, 2u);
  EXPECT_LE(p50, 4u);
  const uint64_t p99 = h.Quantile(0.99);
  EXPECT_GE(p99, 512u);
  EXPECT_LE(p99, 1024u);
  // p100 of the overflow bucket reports its lower bound.
  h.Record(~0ull);
  EXPECT_EQ(h.Quantile(1.0),
            obs::Histogram::BucketBound(obs::Histogram::kBuckets - 2));
}

TEST(MetricsRegistry, ExportTextEmitsQuantileGauges) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("rpc.us");
  for (int i = 0; i < 100; ++i) h->Record(3);
  registry.GetHistogram("empty.us");  // registered, never recorded

  const std::string text = registry.ExportText();
  EXPECT_NE(text.find("# TYPE grtdb_rpc_us_p50 gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE grtdb_rpc_us_p99 gauge\n"), std::string::npos);
  // Every sample is 3 (bucket [2,4)), so both quantiles interpolate
  // inside that bucket.
  const auto value_of = [&](const std::string& series) -> long {
    const size_t at = text.find("\n" + series + " ");
    if (at == std::string::npos) return -1;
    return std::stol(text.substr(at + series.size() + 2));
  };
  EXPECT_GE(value_of("grtdb_rpc_us_p50"), 2);
  EXPECT_LE(value_of("grtdb_rpc_us_p50"), 4);
  EXPECT_GE(value_of("grtdb_rpc_us_p99"), 2);
  EXPECT_LE(value_of("grtdb_rpc_us_p99"), 4);
  // The empty histogram still exports, with 0 quantiles.
  EXPECT_EQ(value_of("grtdb_empty_us_p50"), 0);
  EXPECT_EQ(value_of("grtdb_empty_us_p99"), 0);
}

TEST(MetricsRegistry, SnapshotIsSortedAndTyped) {
  obs::MetricsRegistry registry;
  registry.GetCounter("b.counter")->Add(7);
  registry.GetGauge("a.gauge")->Set(-3);
  obs::Histogram* h = registry.GetHistogram("c.latency");
  h->Record(3);
  h->Record(3);

  const std::vector<obs::MetricSample> samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a.gauge");
  EXPECT_EQ(std::string(samples[0].KindName()), "gauge");
  EXPECT_EQ(samples[0].value, -3);
  EXPECT_EQ(samples[1].name, "b.counter");
  EXPECT_EQ(samples[1].value, 7);
  EXPECT_EQ(samples[2].name, "c.latency");
  EXPECT_EQ(samples[2].count, 2u);
  EXPECT_EQ(samples[2].sum, 6u);
  EXPECT_EQ(samples[2].buckets, "lt4:2");

  registry.ResetAll();
  for (const obs::MetricSample& s : registry.Snapshot()) {
    EXPECT_EQ(s.value, 0) << s.name;
    EXPECT_EQ(s.count, 0u) << s.name;
  }
}

// ---- NodeCache <-> registry agreement ------------------------------------

class MapStore final : public NodeStore {
 public:
  Status AllocateNode(NodeId* id) override {
    *id = next_id_++;
    pages_[*id] = std::vector<uint8_t>(kPageSize, 0);
    return Status::OK();
  }
  Status FreeNode(NodeId id) override {
    pages_.erase(id);
    return Status::OK();
  }
  Status ReadNode(NodeId id, uint8_t* out) override {
    auto it = pages_.find(id);
    if (it == pages_.end()) return Status::NotFound("no node");
    std::memcpy(out, it->second.data(), kPageSize);
    return Status::OK();
  }
  Status WriteNode(NodeId id, const uint8_t* data) override {
    pages_[id].assign(data, data + kPageSize);
    return Status::OK();
  }
  uint64_t LoOfNode(NodeId) const override { return 0; }
  Status Flush() override { return Status::OK(); }

 private:
  std::map<NodeId, std::vector<uint8_t>> pages_;
  NodeId next_id_ = 0;
};

// The acceptance check: the cache.* registry counters mirror the cache's
// own NodeStoreStats exactly.
TEST(NodeCacheMetrics, RegistryCountersMatchCacheStats) {
  obs::MetricsRegistry registry;
  MapStore inner;
  NodeCache cache(&inner, /*capacity=*/2);
  cache.set_metrics(&registry);

  std::vector<NodeId> ids(4);
  uint8_t page[kPageSize] = {};
  for (NodeId& id : ids) {
    ASSERT_TRUE(cache.AllocateNode(&id).ok());
    ASSERT_TRUE(cache.WriteNode(id, page).ok());
  }
  // Hits on resident nodes, misses + evictions cycling through all four.
  for (int round = 0; round < 3; ++round) {
    for (NodeId id : ids) {
      ASSERT_TRUE(cache.ReadNode(id, page).ok());
      ASSERT_TRUE(cache.ReadNode(id, page).ok());  // immediate re-read: hit
    }
  }

  const NodeStoreStats& stats = cache.stats();
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_EQ(registry.GetCounter("cache.reads")->value(), stats.node_reads);
  EXPECT_EQ(registry.GetCounter("cache.writes")->value(), stats.node_writes);
  EXPECT_EQ(registry.GetCounter("cache.hits")->value(), stats.cache_hits);
  EXPECT_EQ(registry.GetCounter("cache.misses")->value(), stats.cache_misses);
  EXPECT_EQ(registry.GetCounter("cache.evictions")->value(),
            stats.cache_evictions);
  EXPECT_EQ(registry.GetCounter("cache.write_backs")->value(),
            stats.cache_write_backs);
}

// With a profile installed, reads are charged to the running statement.
TEST(NodeCacheMetrics, ChargesCurrentProfile) {
  MapStore inner;
  NodeCache cache(&inner, /*capacity=*/1);
  NodeId a, b;
  uint8_t page[kPageSize] = {};
  ASSERT_TRUE(cache.AllocateNode(&a).ok());
  ASSERT_TRUE(cache.WriteNode(a, page).ok());
  ASSERT_TRUE(cache.AllocateNode(&b).ok());
  ASSERT_TRUE(cache.WriteNode(b, page).ok());  // evicts a

  obs::QueryProfile profile;
  {
    obs::ScopedProfile scope(&profile);
    ASSERT_TRUE(cache.ReadNode(a, page).ok());  // miss: a was evicted
    ASSERT_TRUE(cache.ReadNode(a, page).ok());  // hit
  }
  EXPECT_EQ(profile.node_reads, 2u);
  EXPECT_EQ(profile.cache_hits, 1u);
  // Outside the scope nothing is charged.
  ASSERT_TRUE(cache.ReadNode(a, page).ok());
  EXPECT_EQ(profile.node_reads, 2u);
}

// ---- end-to-end through SQL ----------------------------------------------

// External-file storage so the WAL (and its commit histogram) is in play;
// the default node cache (64 frames) sits under it.
class ObsSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GRTreeBladeOptions options;
    options.storage = GRTreeBladeOptions::Storage::kExternalFile;
    // Per-process directory: ctest runs each case as its own process, and
    // every fixture instance creates the same grtree_t_idx.dat — sharing
    // TempDir() lets concurrent cases clobber each other's space file.
    options.external_dir =
        ::testing::TempDir() + "obs_sql_" + std::to_string(::getpid());
    std::filesystem::create_directories(options.external_dir);
    ASSERT_TRUE(RegisterGRTreeBlade(&server_, options).ok());
    session_ = server_.CreateSession();
    MustExec("CREATE TABLE t (id int, e grt_timeextent)");
    MustExec("CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am");
    MustExec("SET CURRENT_TIME TO 20000");
    for (int i = 0; i < 40; ++i) {
      MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", '20000, UC, " +
               std::to_string(19900 + i) + ", NOW')");
    }
  }

  Status Exec(const std::string& sql) {
    return server_.Execute(session_, sql, &result_);
  }

  void MustExec(const std::string& sql) {
    Status status = Exec(sql);
    ASSERT_TRUE(status.ok()) << sql << " -> " << status.ToString();
  }

  // sys_metrics rows keyed by metric name (row: name kind value count sum
  // buckets).
  std::map<std::string, std::vector<std::string>> MetricsByName() {
    std::map<std::string, std::vector<std::string>> out;
    for (const auto& row : result_.rows) {
      out[row[0]].assign(row.begin(), row.end());
    }
    return out;
  }

  Server server_;
  ServerSession* session_ = nullptr;
  ResultSet result_;
};

TEST_F(ObsSqlTest, SysMetricsReturnsLiveCounters) {
  MustExec("SELECT id FROM t WHERE Overlaps(e, '20000, UC, 19900, NOW')");
  MustExec("SELECT * FROM sys_metrics");
  ASSERT_EQ(result_.columns.size(), 6u);
  auto metrics = MetricsByName();

  // WAL: every index mutation committed through the group-commit pipeline,
  // so the commit-latency histogram has samples.
  ASSERT_TRUE(metrics.count("wal.commits"));
  EXPECT_GE(std::stoull(metrics["wal.commits"][2]), 40u);
  ASSERT_TRUE(metrics.count("wal.commit_us"));
  EXPECT_EQ(metrics["wal.commit_us"][1], "histogram");
  EXPECT_GT(std::stoull(metrics["wal.commit_us"][3]), 0u);  // count
  EXPECT_FALSE(metrics["wal.commit_us"][5].empty());        // buckets
  ASSERT_TRUE(metrics.count("wal.batch_size"));
  EXPECT_GT(std::stoull(metrics["wal.batch_size"][3]), 0u);

  // Node cache: the inserts and the index scan went through it.
  ASSERT_TRUE(metrics.count("cache.reads"));
  EXPECT_GT(std::stoull(metrics["cache.reads"][2]), 0u);
  ASSERT_TRUE(metrics.count("cache.hits"));
  EXPECT_GT(std::stoull(metrics["cache.hits"][2]), 0u);

  // VII purpose functions: 40 inserts each called am_insert once.
  ASSERT_TRUE(metrics.count("vii.am_insert.calls"));
  EXPECT_EQ(std::stoull(metrics["vii.am_insert.calls"][2]), 40u);
  ASSERT_TRUE(metrics.count("vii.am_getnext.us"));
  EXPECT_GT(std::stoull(metrics["vii.am_getnext.us"][3]), 0u);

  // Locks and the synthetic trace counter are always present.
  ASSERT_TRUE(metrics.count("lock.acquisitions"));
  EXPECT_GT(std::stoull(metrics["lock.acquisitions"][2]), 0u);
  ASSERT_TRUE(metrics.count("trace.dropped"));
}

TEST_F(ObsSqlTest, CacheCountersAgreeBetweenSnapshots) {
  // Two snapshots around a query: the deltas must reflect the work.
  MustExec("SELECT value FROM sys_metrics WHERE name = 'cache.reads'");
  ASSERT_EQ(result_.rows.size(), 1u);
  const uint64_t before = std::stoull(result_.rows[0][0]);
  MustExec("SELECT id FROM t WHERE Overlaps(e, '20000, UC, 19900, NOW')");
  const uint64_t profile_reads = session_->profile().node_reads;
  EXPECT_GT(profile_reads, 0u);
  MustExec("SELECT value FROM sys_metrics WHERE name = 'cache.reads'");
  const uint64_t after = std::stoull(result_.rows[0][0]);
  EXPECT_EQ(after - before, profile_reads);
}

TEST_F(ObsSqlTest, ExplainProfileReportsFig6Sequence) {
  obs::Counter* getnext = server_.metrics().GetCounter("vii.am_getnext.calls");
  const uint64_t counter_before = getnext->value();

  MustExec("EXPLAIN PROFILE SELECT id FROM t "
           "WHERE Overlaps(e, '20000, UC, 19900, NOW')");
  // The inner statement's rows come through, followed by PROFILE lines.
  EXPECT_EQ(result_.rows.size(), 40u);
  const obs::QueryProfile& profile = session_->profile();

  // Fig. 6(b): am_open -> [am_scancost during planning] -> am_beginscan ->
  // am_getnext* -> am_endscan -> am_close; the final am_getnext returns
  // "no more", so calls == rows + 1.
  const auto& seq = profile.sequence();
  ASSERT_GE(seq.size(), 5u);
  EXPECT_EQ(seq.front(), obs::PurposeFn::kAmOpen);
  EXPECT_EQ(seq[seq.size() - 2], obs::PurposeFn::kAmEndScan);
  EXPECT_EQ(seq.back(), obs::PurposeFn::kAmClose);
  const auto begin_it =
      std::find(seq.begin(), seq.end(), obs::PurposeFn::kAmBeginScan);
  const auto first_next =
      std::find(seq.begin(), seq.end(), obs::PurposeFn::kAmGetNext);
  ASSERT_NE(begin_it, seq.end());
  ASSERT_NE(first_next, seq.end());
  EXPECT_LT(begin_it, first_next);  // every getnext comes after beginscan
  const uint64_t getnext_calls = profile.calls(obs::PurposeFn::kAmGetNext);
  EXPECT_EQ(getnext_calls, profile.rows_scanned + 1);
  EXPECT_EQ(profile.rows_returned, 40u);

  // Cross-check: registry counter delta == profile count.
  EXPECT_EQ(getnext->value() - counter_before, getnext_calls);

  // And the rendered report says the same.
  std::vector<std::string> profile_lines;
  for (const std::string& line : result_.messages) {
    if (line.rfind("PROFILE", 0) == 0) profile_lines.push_back(line);
  }
  ASSERT_FALSE(profile_lines.empty());
  bool saw_getnext = false, saw_sequence = false, saw_rows = false;
  for (const std::string& line : profile_lines) {
    if (line.rfind("PROFILE am_getnext calls=" +
                       std::to_string(getnext_calls),
                   0) == 0) {
      saw_getnext = true;
    }
    if (line.rfind("PROFILE sequence: am_open", 0) == 0 &&
        line.find(" am_getnext x") != std::string::npos) {
      saw_sequence = true;
    }
    if (line == "PROFILE rows_scanned=" + std::to_string(profile.rows_scanned) +
                    " rows_returned=40") {
      saw_rows = true;
    }
  }
  EXPECT_TRUE(saw_getnext);
  EXPECT_TRUE(saw_sequence);
  EXPECT_TRUE(saw_rows);
}

// The vii.<fn>.calls counters and vii.<fn>.us histograms are fed once per
// statement from the session's tally, never per call: after every
// statement (an index scan, an INSERT, a DELETE through the index, EXPLAIN
// PROFILE, a prepared EXECUTE, a failed INSERT) and after the session
// closes, each function's counter delta equals its histogram's count delta
// and the calls the statements' profiles counted.
TEST_F(ObsSqlTest, PurposeMetricsFoldOncePerStatementExactly) {
  auto name = [](size_t i) {
    return std::string("vii.") +
           obs::PurposeFnName(static_cast<obs::PurposeFn>(i));
  };
  auto calls_of = [&](size_t i) {
    return server_.metrics().GetCounter(name(i) + ".calls");
  };
  auto us_of = [&](size_t i) {
    return server_.metrics().GetHistogram(name(i) + ".us");
  };
  uint64_t base_calls[obs::kPurposeFnCount];
  uint64_t base_count[obs::kPurposeFnCount];
  for (size_t i = 0; i < obs::kPurposeFnCount; ++i) {
    base_calls[i] = calls_of(i)->value();
    base_count[i] = us_of(i)->count();
  }
  uint64_t profiled[obs::kPurposeFnCount] = {};
  auto expect_exact = [&](const std::string& after) {
    SCOPED_TRACE("after " + after);
    uint64_t total = 0;
    for (size_t i = 0; i < obs::kPurposeFnCount; ++i) {
      const obs::Histogram* us = us_of(i);
      uint64_t in_buckets = 0;
      for (size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
        in_buckets += us->bucket(b);
      }
      const uint64_t calls = calls_of(i)->value() - base_calls[i];
      EXPECT_EQ(calls, profiled[i]) << name(i);
      EXPECT_EQ(us->count() - base_count[i], profiled[i]) << name(i);
      EXPECT_EQ(in_buckets, us->count()) << name(i);
      total += calls;
    }
    EXPECT_GT(total, 0u);
  };
  auto run = [&](const std::string& sql, bool ok) {
    EXPECT_EQ(Exec(sql).ok(), ok) << sql;
    for (size_t i = 0; i < obs::kPurposeFnCount; ++i) {
      profiled[i] += session_->profile().fn_calls[i];
    }
    expect_exact(sql);
  };
  run("SELECT id FROM t WHERE Overlaps(e, '20000, UC, 19900, NOW')", true);
  run("INSERT INTO t VALUES (40, '20000, UC, 19940, NOW')", true);
  run("DELETE FROM t WHERE ContainedIn(e, '19000, UC, 19935, 20000')", true);
  run("EXPLAIN PROFILE SELECT id FROM t "
      "WHERE Overlaps(e, '20000, UC, 19900, NOW')",
      true);
  run("PREPARE p AS SELECT id FROM t WHERE Overlaps(e, ?)", true);
  run("EXECUTE p ('20000, UC, 19910, NOW')", true);
  WalNodeStore* wal =
      static_cast<IndexStack*>(
          server_.catalog().FindIndex("t_idx")->am_state.get())
          ->wal.get();
  ASSERT_NE(wal, nullptr);
  wal->SetWriteHookForTesting([](int, const uint8_t*, size_t) -> ssize_t {
    errno = EIO;
    return -1;
  });
  run("INSERT INTO t VALUES (41, '20000, UC, 19941, NOW')", false);
  wal->SetWriteHookForTesting(nullptr);
  // The failed INSERT reached am_insert: two calls, one per INSERT.
  EXPECT_EQ(profiled[static_cast<size_t>(obs::PurposeFn::kAmInsert)], 2u);
  ASSERT_TRUE(server_.CloseSession(session_).ok());
  session_ = nullptr;
  expect_exact("CloseSession");
}

TEST_F(ObsSqlTest, ExplainProfileRequiresAStatement) {
  EXPECT_FALSE(Exec("EXPLAIN PROFILE").ok());
}

TEST_F(ObsSqlTest, SysTraceReturnsRecords) {
  // "wal" level 2 traces every group commit, so the insert is guaranteed
  // to leave a record.
  MustExec("SET TRACE wal TO 2");
  MustExec("INSERT INTO t VALUES (99, '20000, UC, 19999, NOW')");
  MustExec("SELECT * FROM sys_trace");
  ASSERT_FALSE(result_.rows.empty());
  ASSERT_EQ(result_.columns.size(), 6u);
  std::set<std::string> classes;
  for (const auto& row : result_.rows) classes.insert(row[3]);
  EXPECT_TRUE(classes.count("wal"));
  // seq (column 0) is monotonically increasing.
  for (size_t i = 1; i < result_.rows.size(); ++i) {
    EXPECT_LT(std::stoll(result_.rows[i - 1][0]), std::stoll(result_.rows[i][0]));
  }
}

TEST_F(ObsSqlTest, SysLocksShowsHeldLocks) {
  MustExec("BEGIN WORK");
  MustExec("INSERT INTO t VALUES (100, '20000, UC, 19999, NOW')");
  MustExec("SELECT * FROM sys_locks");
  ASSERT_FALSE(result_.rows.empty());
  std::set<std::string> modes;
  for (const auto& row : result_.rows) modes.insert(row[3]);
  EXPECT_TRUE(modes.count("X"));  // the insert's exclusive table lock
  MustExec("COMMIT WORK");
}

// ---- slow-query log -------------------------------------------------------

TEST(SlowQueryLog, RingIsBoundedOldestFirstAndZeroDisables) {
  obs::SlowQueryLog log;
  EXPECT_EQ(log.threshold_ns(), 0u);  // disabled by default
  obs::QueryProfile profile;
  log.MaybeRecord("before threshold", 1ull << 40, profile);
  EXPECT_TRUE(log.Snapshot().empty());

  log.set_threshold_ns(1);
  for (int i = 0; i < 70; ++i) {
    log.MaybeRecord("q" + std::to_string(i), 5, profile);
  }
  std::vector<obs::SlowQueryEntry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), obs::SlowQueryLog::kDefaultCapacity);
  EXPECT_EQ(entries.front().sql, "q6");  // the oldest six were evicted
  EXPECT_EQ(entries.back().sql, "q69");
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].seq, entries[i - 1].seq + 1);  // admission order
  }

  // Below the threshold: not retained.
  log.set_threshold_ns(10);
  log.MaybeRecord("fast", 9, profile);
  EXPECT_EQ(log.Snapshot().back().sql, "q69");
  // Threshold 0 turns retention back off entirely.
  log.set_threshold_ns(0);
  log.MaybeRecord("slowest ever", 1ull << 60, profile);
  EXPECT_EQ(log.Snapshot().back().sql, "q69");
}

TEST_F(ObsSqlTest, SlowQueryLogCapturesProfilesAboveThreshold) {
  // Threshold 1 ns: every statement from here on is "slow".
  MustExec("SET SLOW_QUERY_NS = 1");
  MustExec("SELECT id FROM t WHERE Overlaps(e, '20000, UC, 19900, NOW')");
  MustExec("SELECT * FROM sys_slow_queries");
  ASSERT_FALSE(result_.rows.empty());
  ASSERT_EQ(result_.columns.size(), 12u);
  EXPECT_EQ(result_.columns[1], "session");
  EXPECT_EQ(result_.columns[2], "trace_id");
  // The scan we just ran is retained with its Fig. 6 breakdown, stamped
  // with the session that ran it (untraced, so trace_id stays 0).
  bool found = false;
  for (const auto& row : result_.rows) {
    if (row[11].find("Overlaps") == std::string::npos) continue;
    found = true;
    EXPECT_NE(row[1], "0");   // session id
    EXPECT_EQ(row[2], "0");   // trace_id: tracing was off
    EXPECT_EQ(row[5], "40");  // rows_returned
    EXPECT_NE(row[10].find("am_getnext calls="), std::string::npos)
        << row[10];
    EXPECT_NE(row[10].find("am_open calls="), std::string::npos) << row[10];
  }
  EXPECT_TRUE(found);

  // Back to 0: new statements are no longer retained.
  MustExec("SET SLOW_QUERY_NS = 0");
  MustExec("SELECT id FROM t WHERE id = 31337");
  MustExec("SELECT * FROM sys_slow_queries");
  for (const auto& row : result_.rows) {
    EXPECT_EQ(row[11].find("31337"), std::string::npos) << row[11];
  }
}

// Every entry point reaches slow-query retention: each statement of a
// script under its own text, and a wire-level PREPARE as "PREPARE <name>".
TEST_F(ObsSqlTest, SlowQueryLogRetainsScriptAndPrepareStatements) {
  MustExec("SET SLOW_QUERY_NS = 1");
  ASSERT_TRUE(server_
                  .ExecuteScript(session_,
                                 "SELECT id FROM t WHERE id = 7;\n"
                                 "  SELECT id FROM t WHERE id = 8 ;\n",
                                 &result_)
                  .ok());
  ASSERT_TRUE(
      server_.Prepare(session_, "probe", "SELECT id FROM t WHERE id = ?",
                      &result_)
          .ok());
  MustExec("SET SLOW_QUERY_NS = 0");
  MustExec("SELECT * FROM sys_slow_queries");
  std::map<std::string, std::vector<std::string>> by_sql;
  for (const auto& row : result_.rows) {
    by_sql[row[11]].assign(row.begin(), row.end());
  }
  ASSERT_TRUE(by_sql.count("SELECT id FROM t WHERE id = 7"));
  ASSERT_TRUE(by_sql.count("SELECT id FROM t WHERE id = 8"));
  ASSERT_TRUE(by_sql.count("PREPARE probe"));
  // Each script statement carries its own profile: a 40-row sequential
  // scan returning one row.
  EXPECT_EQ(by_sql["SELECT id FROM t WHERE id = 7"][4], "40");
  EXPECT_EQ(by_sql["SELECT id FROM t WHERE id = 8"][5], "1");
  EXPECT_NE(by_sql["PREPARE probe"][1], "0");  // session id
}

// Sequential scans count every row they read, whatever statement drives
// them: UPDATE and UNLOAD included.
TEST_F(ObsSqlTest, ExplainProfileCountsRowsScannedByUpdateAndUnload) {
  MustExec("EXPLAIN PROFILE UPDATE t SET id = 7 WHERE id = 3");
  EXPECT_EQ(result_.affected, 1u);
  EXPECT_NE(std::find(result_.messages.begin(), result_.messages.end(),
                      "PROFILE rows_scanned=40 rows_returned=0"),
            result_.messages.end());
  const std::string path = ::testing::TempDir() + "obs_unload_" +
                           std::to_string(::getpid()) + ".unl";
  MustExec("EXPLAIN PROFILE UNLOAD TO '" + path +
           "' SELECT * FROM t WHERE id > 30");
  std::remove(path.c_str());
  EXPECT_EQ(result_.affected, 9u);
  EXPECT_NE(std::find(result_.messages.begin(), result_.messages.end(),
                      "PROFILE rows_scanned=40 rows_returned=0"),
            result_.messages.end());
}

// EXPLAIN PROFILE on scans past 4096 purpose calls: the sequence is kept as
// runs, so a long getnext run renders whole; only a statement of more than
// 4096 runs loses its tail, and the per-function counts stay exact.
class ProfileSequenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(RegisterGRTreeBlade(&server_).ok());
    session_ = server_.CreateSession();
    MustExec("CREATE TABLE t (id int, e grt_timeextent)");
    MustExec("SET CURRENT_TIME TO 20000");
    // Rows first, index second: CREATE INDEX builds in one statement.
    MustExec("BEGIN WORK");
    for (int i = 0; i < kRows; ++i) {
      // Row i is valid on day 15000 + i only.
      const std::string day = std::to_string(15000 + i);
      MustExec("INSERT INTO t VALUES (" + std::to_string(i) + ", '20000, UC, " +
               day + ", " + day + "')");
    }
    MustExec("COMMIT WORK");
    MustExec("CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am");
  }

  void MustExec(const std::string& sql) {
    Status status = server_.Execute(session_, sql, &result_);
    ASSERT_TRUE(status.ok()) << sql << " -> " << status.ToString();
  }

  std::string ProfileLine(const std::string& prefix) const {
    for (const std::string& line : result_.messages) {
      if (line.rfind(prefix, 0) == 0) return line;
    }
    return "";
  }

  static constexpr int kRows = 5000;
  Server server_;
  ServerSession* session_ = nullptr;
  ResultSet result_;
};

TEST_F(ProfileSequenceTest, LongIndexScanRendersItsWholeSequence) {
  MustExec("EXPLAIN PROFILE SELECT id FROM t "
           "WHERE Overlaps(e, '20000, UC, 15000, 19999')");
  EXPECT_EQ(result_.rows.size(), static_cast<size_t>(kRows));
  EXPECT_EQ(ProfileLine("PROFILE sequence:"),
            "PROFILE sequence: am_open am_scancost am_beginscan "
            "am_getnext x5001 am_endscan am_close");
  EXPECT_EQ(ProfileLine("PROFILE rows_scanned="),
            "PROFILE rows_scanned=5000 rows_returned=5000");
}

TEST_F(ProfileSequenceTest, IndexDeletePastTheRunCapDropsOnlyTheTail) {
  // 2500 deletes alternate getnext and delete: 5006 calls in 5006 runs, so
  // the last 910 calls fall past the 4096-run cap.
  MustExec("EXPLAIN PROFILE DELETE FROM t "
           "WHERE Overlaps(e, '20000, UC, 15000, 17499')");
  EXPECT_EQ(result_.affected, 2500u);
  const std::string seq = ProfileLine("PROFILE sequence:");
  const std::string head =
      "PROFILE sequence: am_open am_scancost am_beginscan "
      "am_getnext am_delete am_getnext am_delete ";
  const std::string tail = " am_delete am_getnext ... +910 dropped";
  ASSERT_GE(seq.size(), head.size() + tail.size());
  EXPECT_EQ(seq.substr(0, head.size()), head);
  EXPECT_EQ(seq.substr(seq.size() - tail.size()), tail);
  EXPECT_EQ(seq.find(" x", head.size()), std::string::npos);  // no repeats
  size_t kept_deletes = 0;
  for (size_t at = seq.find(" am_delete"); at != std::string::npos;
       at = seq.find(" am_delete", at + 1)) {
    ++kept_deletes;
  }
  EXPECT_EQ(kept_deletes, 2046u);  // 4096 runs = 3 + 2046 pairs + 1
  EXPECT_EQ(ProfileLine("PROFILE am_getnext calls=")
                .rfind("PROFILE am_getnext calls=2501 ", 0),
            0u);
  EXPECT_EQ(ProfileLine("PROFILE am_delete calls=")
                .rfind("PROFILE am_delete calls=2500 ", 0),
            0u);
  EXPECT_EQ(ProfileLine("PROFILE rows_scanned="),
            "PROFILE rows_scanned=2500 rows_returned=0");
}

// ---- metrics exporter -----------------------------------------------------

TEST_F(ObsSqlTest, ExportMetricsRoundTripsTheRegistryText) {
  MustExec("EXPORT METRICS");
  ASSERT_EQ(result_.columns, std::vector<std::string>{"line"});
  ASSERT_FALSE(result_.rows.empty());
  std::string joined;
  for (const auto& row : result_.rows) {
    joined += row[0];
    joined += '\n';
  }
  EXPECT_EQ(joined, server_.metrics().ExportText());

  bool saw_counter_type = false, saw_insert_calls = false,
       saw_histogram_bucket = false, saw_inf = false;
  for (const auto& row : result_.rows) {
    const std::string& line = row[0];
    if (line.rfind("# TYPE grtdb_", 0) == 0 &&
        line.find(" counter") != std::string::npos) {
      saw_counter_type = true;
    }
    if (line == "grtdb_vii_am_insert_calls 40") saw_insert_calls = true;
    if (line.rfind("grtdb_wal_commit_us_bucket{le=\"", 0) == 0) {
      saw_histogram_bucket = true;
    }
    if (line.find("_bucket{le=\"+Inf\"}") != std::string::npos) saw_inf = true;
  }
  EXPECT_TRUE(saw_counter_type);
  EXPECT_TRUE(saw_insert_calls);  // the fixture's 40 inserts
  EXPECT_TRUE(saw_histogram_bucket);
  EXPECT_TRUE(saw_inf);
}

// ---- span tracer ---------------------------------------------------------

TEST(SpanTracer, ScopesNestIntoAParentChildTree) {
  obs::SpanTracer tracer;
  const obs::TraceHandle handle = tracer.StartTraceForced();
  ASSERT_TRUE(handle.active());
  {
    obs::TraceScope root(handle, obs::SpanName::kRequest);
    ASSERT_TRUE(root.active());
    {
      obs::SpanScope exec(obs::SpanName::kExec);
      ASSERT_TRUE(exec.active());
      obs::SpanScope purpose(obs::SpanName::kPurpose, 7);
      ASSERT_TRUE(purpose.active());
    }
    obs::SpanScope plan(obs::SpanName::kPlan);
  }
  // No trace installed anymore: further scopes are inert.
  obs::SpanScope after(obs::SpanName::kExec);
  EXPECT_FALSE(after.active());

  const std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(tracer.admitted(), 4u);
  // Scopes record at close, innermost first; seq is admission order.
  std::map<std::string, const obs::SpanRecord*> by_name;
  for (const obs::SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, handle.trace_id);
    by_name[obs::SpanNameString(span.name)] = &span;
  }
  ASSERT_EQ(by_name.size(), 4u);
  const obs::SpanRecord& root = *by_name.at("request");
  const obs::SpanRecord& exec = *by_name.at("exec");
  const obs::SpanRecord& purpose = *by_name.at("purpose");
  const obs::SpanRecord& plan = *by_name.at("plan");
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_EQ(exec.parent_id, root.span_id);
  EXPECT_EQ(plan.parent_id, root.span_id);
  EXPECT_EQ(purpose.parent_id, exec.span_id);
  EXPECT_EQ(purpose.a, 7u);
  // Children start no earlier and end no later than their parent.
  EXPECT_GE(exec.start_ticks, root.start_ticks);
  EXPECT_LE(exec.end_ticks, root.end_ticks);
  EXPECT_GE(purpose.start_ticks, exec.start_ticks);
  EXPECT_LE(purpose.end_ticks, exec.end_ticks);
}

TEST(SpanTracer, HandleCrossesThreadsAndKeepsTheTraceTogether) {
  obs::SpanTracer tracer;
  const obs::TraceHandle handle = tracer.StartTraceForced();
  // The net server's pattern: one thread starts the trace, another adopts
  // it through the copied handle and opens its spans there.
  std::thread worker([handle] {
    obs::TraceScope adopted(handle, obs::SpanName::kRequest);
    obs::SpanScope exec(obs::SpanName::kExec);
  });
  worker.join();
  {
    obs::TraceScope local(handle, obs::SpanName::kQueueWait);
  }
  const std::vector<obs::SpanRecord> spans =
      tracer.SnapshotTrace(handle.trace_id);
  ASSERT_EQ(spans.size(), 3u);
  uint64_t worker_thread = 0, local_thread = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == obs::SpanName::kExec) worker_thread = span.thread;
    if (span.name == obs::SpanName::kQueueWait) local_thread = span.thread;
    EXPECT_EQ(span.trace_id, handle.trace_id);
  }
  EXPECT_NE(worker_thread, local_thread);
}

TEST(SpanTracer, SamplingOffIsInert) {
  obs::SpanTracer tracer;  // sample_every defaults to 0
  const obs::TraceHandle handle = tracer.StartTrace();
  EXPECT_FALSE(handle.active());
  {
    obs::TraceScope root(handle, obs::SpanName::kRequest);
    EXPECT_FALSE(root.active());
    obs::SpanScope child(obs::SpanName::kExec);
    EXPECT_FALSE(child.active());
  }
  EXPECT_EQ(tracer.admitted(), 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST(SpanTracer, OneInNGateAndWireIdsAlwaysSample) {
  obs::SpanTracer tracer;
  tracer.set_sample_every(4);
  int sampled = 0;
  for (int i = 0; i < 40; ++i) {
    if (tracer.StartTrace().active()) ++sampled;
  }
  EXPECT_EQ(sampled, 10);
  tracer.set_sample_every(1);
  EXPECT_TRUE(tracer.StartTrace().active());
  // A client-chosen wire id forces sampling under that id even when the
  // gate is closed, so driver traces stay joinable.
  tracer.set_sample_every(0);
  const obs::TraceHandle wire = tracer.StartTrace(0xABCDu);
  ASSERT_TRUE(wire.active());
  EXPECT_EQ(wire.trace_id, 0xABCDu);
}

TEST(SpanTracer, RingEvictsOldestFirstAndCounts) {
  obs::SpanTracer tracer(4);
  const obs::TraceHandle handle = tracer.StartTraceForced();
  for (uint64_t i = 0; i < 6; ++i) {
    tracer.EmitSpan(handle, obs::SpanName::kExec, i, i + 1, /*a=*/i);
  }
  EXPECT_EQ(tracer.admitted(), 6u);
  EXPECT_EQ(tracer.evicted(), 2u);
  const std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].a, i + 2);  // oldest two evicted, rest in order
    EXPECT_EQ(spans[i].seq, i + 2);
  }
  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST_F(ObsSqlTest, TraceSamplePopulatesSysSpans) {
  MustExec("SET TRACE_SAMPLE = 1");
  MustExec("SELECT id FROM t WHERE Overlaps(e, '20000, UC, 19900, NOW')");
  MustExec("SET TRACE_SAMPLE = 0");
  MustExec("SELECT * FROM sys_spans");
  const std::vector<std::string> expected_cols = {
      "seq",      "trace_id", "span_id", "parent_id", "name",
      "start_ns", "dur_ns",   "thread",  "a",         "b"};
  ASSERT_EQ(result_.columns, expected_cols);
  ASSERT_FALSE(result_.rows.empty());
  // The SELECT and the trailing SET statement each rooted a trace; the
  // SELECT's is the one whose exec did index work (purpose spans). It must
  // carry the full pipeline: one root, parse, gate wait, exec.
  std::map<std::string, std::map<std::string, int>> by_trace;
  for (const auto& row : result_.rows) by_trace[row[1]][row[4]]++;
  bool found_select_trace = false;
  for (const auto& [trace, names] : by_trace) {
    if (names.count("purpose") == 0) continue;
    found_select_trace = true;
    EXPECT_EQ(names.at("request"), 1) << "trace " << trace;
    EXPECT_EQ(names.at("parse"), 1) << "trace " << trace;
    EXPECT_EQ(names.at("gate_wait"), 1) << "trace " << trace;
    EXPECT_EQ(names.at("exec"), 1) << "trace " << trace;
  }
  EXPECT_TRUE(found_select_trace);
}

TEST_F(ObsSqlTest, ExplainTraceRendersTheSpanTree) {
  // EXPLAIN TRACE force-samples its statement; no SET TRACE_SAMPLE needed.
  MustExec("EXPLAIN TRACE SELECT id FROM t "
           "WHERE Overlaps(e, '20000, UC, 19900, NOW')");
  ASSERT_FALSE(result_.messages.empty());
  EXPECT_EQ(result_.messages[0].rfind("TRACE trace_id=", 0), 0u)
      << result_.messages[0];
  bool saw_root = false, saw_indented_exec = false;
  for (const std::string& line : result_.messages) {
    if (line.rfind("TRACE request ", 0) == 0) saw_root = true;
    if (line.find("  exec ") != std::string::npos) saw_indented_exec = true;
  }
  EXPECT_TRUE(saw_root);
  EXPECT_TRUE(saw_indented_exec);
}

TEST_F(ObsSqlTest, DumpTraceJsonEmitsCompleteEvents) {
  MustExec("EXPLAIN TRACE SELECT id FROM t "
           "WHERE Overlaps(e, '20000, UC, 19900, NOW')");
  MustExec("DUMP TRACE JSON");
  ASSERT_EQ(result_.columns, std::vector<std::string>{"json"});
  ASSERT_GE(result_.rows.size(), 3u);  // header, >= 1 event, footer
  std::string joined;
  for (const auto& row : result_.rows) joined += row[0];
  EXPECT_EQ(joined.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(joined.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(joined.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(joined.find("\"name\":\"request\""), std::string::npos);
  EXPECT_EQ(joined.substr(joined.size() - 2), "]}");
}

// ---- heat tracking --------------------------------------------------------

TEST_F(ObsSqlTest, HeatTrackingRanksHotNodesAndDumps) {
  // Dormant by default: the view exists but is empty, and nothing records.
  MustExec("SELECT * FROM sys_hot_nodes");
  const std::vector<std::string> expected_cols = {
      "store", "node", "heat", "reads", "writes", "pin_wait_ns"};
  ASSERT_EQ(result_.columns, expected_cols);
  EXPECT_TRUE(result_.rows.empty());

  MustExec("SET HEAT_TRACK = 1");
  for (int i = 0; i < 8; ++i) {
    MustExec("SELECT id FROM t WHERE Overlaps(e, '20000, UC, 19900, NOW')");
  }
  MustExec("SELECT * FROM sys_hot_nodes");
  ASSERT_FALSE(result_.rows.empty());
  // Every row belongs to the fixture's one index, reads dominate (the
  // workload is scans), and the ranking is heat-descending.
  double last_heat = 1e300;
  for (const auto& row : result_.rows) {
    EXPECT_EQ(row[0], "t_idx");
    EXPECT_GT(std::stoull(row[3]), 0u) << "reads";
    const double heat = std::stod(row[2]);
    EXPECT_LE(heat, last_heat);
    last_heat = heat;
  }

  MustExec("DUMP HEAT");
  ASSERT_EQ(result_.columns, expected_cols);
  ASSERT_FALSE(result_.rows.empty());
  ASSERT_FALSE(result_.messages.empty());
  EXPECT_EQ(result_.messages[0].rfind("heat tracker: on", 0), 0u)
      << result_.messages[0];

  MustExec("DUMP HEAT JSON");
  ASSERT_EQ(result_.columns, std::vector<std::string>{"json"});
  std::string joined;
  for (const auto& row : result_.rows) joined += row[0];
  EXPECT_EQ(joined.rfind("{\"enabled\":true", 0), 0u);
  EXPECT_NE(joined.find("\"store\":\"t_idx\""), std::string::npos);
  EXPECT_NE(joined.find("\"pin_wait_ns\":"), std::string::npos);
  EXPECT_EQ(joined.substr(joined.size() - 2), "]}");

  // Gate off: recorded heat is retained for post-hoc reads, but new
  // accesses no longer move the counters.
  MustExec("SET HEAT_TRACK = 0");
  MustExec("SELECT * FROM sys_hot_nodes");
  ASSERT_FALSE(result_.rows.empty());
  uint64_t reads_before = 0;
  for (const auto& row : result_.rows) reads_before += std::stoull(row[3]);
  MustExec("SELECT id FROM t WHERE Overlaps(e, '20000, UC, 19900, NOW')");
  MustExec("SELECT * FROM sys_hot_nodes");
  uint64_t reads_after = 0;
  for (const auto& row : result_.rows) reads_after += std::stoull(row[3]);
  EXPECT_EQ(reads_after, reads_before);
}

// The node cap, single-threaded: keys past the cap are counted, not kept,
// and Clear() frees the whole cap for new keys.
TEST(HeatTracker, NodeCapDropsExcessKeysAndClearReadmits) {
  obs::HeatTracker heat(/*max_nodes=*/8);
  heat.set_enabled(true);
  const uint32_t store = heat.RegisterStore("cap");
  for (uint64_t node = 0; node < 20; ++node) {
    heat.RecordAccess(store, node, obs::HeatAccess::kRead);
  }
  EXPECT_EQ(heat.Snapshot().size(), 8u);
  EXPECT_EQ(heat.dropped(), 12u);

  heat.Clear();
  EXPECT_TRUE(heat.Snapshot().empty());
  EXPECT_EQ(heat.dropped(), 0u);
  for (uint64_t node = 100; node < 120; ++node) {
    heat.RecordAccess(store, node, obs::HeatAccess::kRead);
  }
  EXPECT_EQ(heat.Snapshot().size(), 8u);
  EXPECT_EQ(heat.dropped(), 12u);
}

// The plain DUMP forms are renderings of their views: the same columns
// and the same rows as SELECT * (the DUMP adds only its summary message).
// Sampling is off and nothing touches the index between each pair, so the
// underlying rings cannot move; neither statement records flight events
// before its view is read.
TEST_F(ObsSqlTest, PlainDumpsReturnTheRowsOfTheirViews) {
  MustExec("SET HEAT_TRACK = 1");
  MustExec("EXPLAIN TRACE SELECT id FROM t "
           "WHERE Overlaps(e, '20000, UC, 19900, NOW')");
  MustExec("SET HEAT_TRACK = 0");
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"DUMP TRACE", "sys_spans"},
      {"DUMP HEAT", "sys_hot_nodes"},
      {"DUMP FLIGHT", "sys_flight"},
  };
  for (const auto& [dump, view] : pairs) {
    SCOPED_TRACE(dump);
    MustExec(dump);
    const ResultSet dumped = result_;
    ASSERT_FALSE(dumped.rows.empty());
    ASSERT_EQ(dumped.messages.size(), 1u);
    MustExec("SELECT * FROM " + view);
    EXPECT_EQ(dumped.columns, result_.columns);
    EXPECT_EQ(dumped.rows, result_.rows);
  }

  // sys_flight is a view like the others: filterable, read-only, reserved,
  // and listed.
  MustExec("SELECT event FROM sys_flight WHERE event = 'txn_commit'");
  ASSERT_FALSE(result_.rows.empty());
  EXPECT_EQ(result_.columns, std::vector<std::string>{"event"});
  EXPECT_TRUE(Exec("INSERT INTO sys_flight VALUES (1)").IsInvalidArgument());
  EXPECT_TRUE(Exec("DELETE FROM sys_flight").IsInvalidArgument());
  EXPECT_TRUE(Exec("UPDATE sys_flight SET a = 1").IsInvalidArgument());
  EXPECT_TRUE(Exec("CREATE TABLE sys_flight (x int)").IsInvalidArgument());
  EXPECT_TRUE(Exec("DROP TABLE sys_flight").IsInvalidArgument());
  const Status unknown = Exec("SELECT * FROM sys_nonsense");
  EXPECT_NE(unknown.message().find("sys_flight"), std::string::npos);
}

TEST_F(ObsSqlTest, SetHeatTrackValidatesItsArgument) {
  EXPECT_FALSE(Exec("SET HEAT_TRACK = 2").ok());
  EXPECT_FALSE(Exec("SET HEAT_TRACK = 'on'").ok());
  MustExec("SET HEAT_TRACK TO 1");
  MustExec("SET HEAT_TRACK = 0");
}

// ---- sessions view --------------------------------------------------------

TEST_F(ObsSqlTest, SysSessionsShowsLiveSessionState) {
  MustExec("BEGIN WORK");
  MustExec("INSERT INTO t VALUES (600, '20000, UC, 19999, NOW')");
  MustExec("SELECT * FROM sys_sessions");
  const std::vector<std::string> expected_cols = {
      "session", "peer",         "state", "statement", "txn",
      "explicit_txn", "locks",   "trace_id", "statements"};
  ASSERT_EQ(result_.columns, expected_cols);
  bool found = false;
  for (const auto& row : result_.rows) {
    if (row[0] != std::to_string(session_->id())) continue;
    found = true;
    EXPECT_EQ(row[1], "embedded");  // no net front end stamped a peer
    // The view materializes while this very SELECT runs, so the session
    // reports itself active on it.
    EXPECT_EQ(row[2], "active");
    EXPECT_NE(row[3].find("sys_sessions"), std::string::npos) << row[3];
    EXPECT_NE(row[4], "0");  // the explicit transaction is open
    EXPECT_EQ(row[5], "1");
    EXPECT_GT(std::stoll(row[6]), 0);  // the INSERT's locks are held
    EXPECT_GT(std::stoull(row[8]), 2u);  // fixture setup statements count
  }
  EXPECT_TRUE(found);
  MustExec("COMMIT WORK");
  // The next statement boundary re-mirrors: transaction gone.
  MustExec("SELECT id FROM t WHERE id = -1");
  EXPECT_EQ(session_->info().txn, 0u);
  EXPECT_FALSE(session_->info().active);
  EXPECT_NE(session_->info().statement.find("id = -1"), std::string::npos);
}

// ---- contention and wait-for views ----------------------------------------

TEST_F(ObsSqlTest, SysContentionAndSysWaitsAttributeLockWaits) {
  // Uncontended so far: both views are empty (contention rows are born
  // only when someone actually blocks).
  MustExec("SELECT * FROM sys_contention");
  EXPECT_TRUE(result_.rows.empty());
  MustExec("SELECT * FROM sys_waits");
  EXPECT_TRUE(result_.rows.empty());

  // Hold the table's X lock in an explicit transaction, then let a second
  // session block on it.
  MustExec("BEGIN WORK");
  MustExec("INSERT INTO t VALUES (700, '20000, UC, 19999, NOW')");
  const TxnId holder_txn = session_->txn_session().current_txn()->id();

  ServerSession* other = server_.CreateSession();
  std::thread blocked([&] {
    ResultSet r;
    // Succeeds once the holder commits (the wait is under the 500 ms
    // default lock timeout unless the snapshot loop below stalls; a
    // timeout would still feed sys_contention, which is what we assert).
    Status st = server_.Execute(
        other, "INSERT INTO t VALUES (701, '20000, UC, 19999, NOW')", &r);
    (void)st;
  });

  // Catch the waiter on the wait-for graph while it is parked.
  bool saw_edge = false;
  for (int i = 0; i < 200 && !saw_edge; ++i) {
    MustExec("SELECT * FROM sys_waits");
    for (const auto& row : result_.rows) {
      if (row[0] != "table") continue;
      saw_edge = true;
      EXPECT_EQ(row[3], "X");
      EXPECT_EQ(row[5], std::to_string(holder_txn));  // blocked on us
      EXPECT_GE(std::stoll(row[4]), 0);               // waited_ns
    }
    if (!saw_edge) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(saw_edge);
  MustExec("COMMIT WORK");
  blocked.join();

  // The wait persists as history after the lock is gone.
  MustExec("SELECT * FROM sys_waits");
  EXPECT_TRUE(result_.rows.empty());
  MustExec("SELECT * FROM sys_contention");
  ASSERT_FALSE(result_.rows.empty());
  bool found = false;
  for (const auto& row : result_.rows) {
    if (row[0] != "table") continue;
    found = true;
    EXPECT_GE(std::stoull(row[2]), 1u);  // waits
    EXPECT_GT(std::stoull(row[3]), 0u);  // wait_ns
    EXPECT_GE(std::stoull(row[4]), 1u);  // max_wait_ns
    EXPECT_EQ(row[7], std::to_string(holder_txn));  // last_holder
  }
  EXPECT_TRUE(found);
  ASSERT_TRUE(server_.CloseSession(other).ok());
}

// ---- units agreement across time surfaces ---------------------------------

// sys_spans, sys_slow_queries, and DUMP FLIGHT all report wall-clock
// nanoseconds on the span tracer's clock origin, so one statement's numbers
// line up across all three without conversion.
TEST_F(ObsSqlTest, TimeSurfacesAgreeOnOneStatementInNanoseconds) {
  MustExec("SET TRACE_SAMPLE = 1");
  MustExec("SET SLOW_QUERY_NS = 1");
  // The insert group-commits through the WAL, leaving a txn_commit flight
  // event inside the statement's request span.
  MustExec("INSERT INTO t VALUES (800, '20000, UC, 19999, NOW')");
  MustExec("SET TRACE_SAMPLE = 0");
  MustExec("SET SLOW_QUERY_NS = 0");

  // Surface 1: the slow-query log's total_ns and the trace id.
  MustExec("SELECT * FROM sys_slow_queries");
  uint64_t total_ns = 0, trace_id = 0;
  for (const auto& row : result_.rows) {
    if (row[11].find("VALUES (800") == std::string::npos) continue;
    trace_id = std::stoull(row[2]);
    total_ns = std::stoull(row[3]);
  }
  ASSERT_NE(trace_id, 0u);
  ASSERT_GT(total_ns, 0u);

  // Surface 2: the same statement's request span.
  MustExec("SELECT * FROM sys_spans");
  uint64_t start_ns = 0, dur_ns = 0;
  bool span_found = false;
  for (const auto& row : result_.rows) {
    if (row[1] != std::to_string(trace_id) || row[4] != "request") continue;
    span_found = true;
    start_ns = std::stoull(row[5]);
    dur_ns = std::stoull(row[6]);
  }
  ASSERT_TRUE(span_found);
  // The request span wraps parse + exec, so it can only be longer than the
  // executor's own total — and not by more than parse overhead (bounded
  // generously for slow CI machines).
  constexpr uint64_t kSlackNs = 100'000'000;  // 100 ms
  EXPECT_GE(dur_ns + kSlackNs / 100, total_ns);
  EXPECT_LT(dur_ns - std::min(dur_ns, total_ns), kSlackNs);

  // Surface 3: the insert's txn_commit flight event falls inside the
  // request window (same clock origin, same unit).
  MustExec("DUMP FLIGHT");
  ASSERT_EQ(result_.columns[1], "ns");
  bool event_in_window = false;
  for (const auto& row : result_.rows) {
    if (row[2] != "txn_commit") continue;
    const uint64_t event_ns = std::stoull(row[1]);
    if (event_ns + kSlackNs >= start_ns &&
        event_ns <= start_ns + dur_ns + kSlackNs) {
      event_in_window = true;
    }
  }
  EXPECT_TRUE(event_in_window);
}

// ---- index-health telemetry ----------------------------------------------

// All four DataBlades registered side by side, each with an index the
// test can hand-count against sys_index_stats.
class IndexStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(RegisterGRTreeBlade(&server_).ok());
    ASSERT_TRUE(RegisterRStarBlade(&server_).ok());
    ASSERT_TRUE(RegisterBtreeBlade(&server_).ok());
    ASSERT_TRUE(RegisterGistBlade(&server_).ok());
    ASSERT_TRUE(RegisterIntRangeOpclass(&server_).ok());
    session_ = server_.CreateSession();
    MustExec("SET CURRENT_TIME TO 20000");

    MustExec("CREATE TABLE hist (id int, e grt_timeextent)");
    MustExec("CREATE INDEX hist_grt ON hist(e grt_opclass) USING grtree_am");
    MustExec("CREATE TABLE hist2 (id int, e grt_timeextent)");
    MustExec("CREATE INDEX hist_rst ON hist2(e rst_opclass) USING rstar_am");
    for (int i = 0; i < 40; ++i) {
      const std::string extent =
          "'20000, UC, " + std::to_string(19900 + i) + ", NOW'";
      MustExec("INSERT INTO hist VALUES (" + std::to_string(i) + ", " +
               extent + ")");
      MustExec("INSERT INTO hist2 VALUES (" + std::to_string(i) + ", " +
               extent + ")");
    }

    MustExec("CREATE TABLE emp (name text, salary int)");
    MustExec("CREATE INDEX emp_bt ON emp(salary) USING btree_am");
    for (int i = 0; i < 50; ++i) {
      MustExec("INSERT INTO emp VALUES ('e" + std::to_string(i) + "', " +
               std::to_string(1000 + 7 * i) + ")");
    }

    MustExec("CREATE TABLE bookings (room text, slot intrange)");
    MustExec("CREATE INDEX bk_gist ON bookings(slot ir_opclass) "
             "USING gist_am");
    for (int i = 0; i < 30; ++i) {
      MustExec("INSERT INTO bookings VALUES ('r" + std::to_string(i) +
               "', '[" + std::to_string(10 * i) + "," +
               std::to_string(10 * i + 15) + "]')");
    }
  }

  Status Exec(const std::string& sql) {
    return server_.Execute(session_, sql, &result_);
  }

  void MustExec(const std::string& sql) {
    Status status = Exec(sql);
    ASSERT_TRUE(status.ok()) << sql << " -> " << status.ToString();
  }

  // sys_index_stats rows for one index, keyed by the level column ("all"
  // is the summary row).
  std::map<std::string, std::vector<std::string>> StatsForIndex(
      const std::string& index) {
    std::map<std::string, std::vector<std::string>> out;
    for (const auto& row : result_.rows) {
      if (row[0] == index) out[row[2]].assign(row.begin(), row.end());
    }
    return out;
  }

  Server server_;
  ServerSession* session_ = nullptr;
  ResultSet result_;
};

TEST_F(IndexStatsTest, UpdateStatisticsFeedsSysIndexStatsForAllFourBlades) {
  // Advance the clock so the still-growing extents (inserted at 20000)
  // resolve to regions with a positive area.
  MustExec("SET CURRENT_TIME TO 21000");
  MustExec("UPDATE STATISTICS");  // bare form: every index with am_stats
  MustExec("SELECT * FROM sys_index_stats");
  ASSERT_EQ(result_.columns.size(), 12u);

  const struct {
    const char* index;
    const char* am;
    uint64_t entries;
  } kExpected[] = {{"hist_grt", "grtree_am", 40},
                   {"hist_rst", "rstar_am", 40},
                   {"emp_bt", "btree_am", 50},
                   {"bk_gist", "gist_am", 30}};
  for (const auto& expect : kExpected) {
    SCOPED_TRACE(expect.index);
    auto stats = StatsForIndex(expect.index);
    ASSERT_TRUE(stats.count("all")) << "summary row missing";
    const auto& all = stats["all"];
    EXPECT_EQ(all[1], expect.am);
    const int64_t height = std::stoll(all[3]);
    const uint64_t nodes = std::stoull(all[4]);
    EXPECT_GE(height, 1);
    EXPECT_GE(nodes, 1u);
    // The walker's entry count must equal the rows the test inserted.
    EXPECT_EQ(std::stoull(all[5]), expect.entries);

    // Exactly `height` per-level rows (leaf = level 0), whose node counts
    // sum to the summary's total and whose leaf level carries every entry.
    uint64_t level_nodes = 0;
    for (int64_t level = 0; level < height; ++level) {
      ASSERT_TRUE(stats.count(std::to_string(level)))
          << "missing level " << level;
      level_nodes += std::stoull(stats[std::to_string(level)][4]);
    }
    EXPECT_EQ(stats.size(), static_cast<size_t>(height) + 1);
    EXPECT_EQ(level_nodes, nodes);
    EXPECT_EQ(std::stoull(stats["0"][5]), expect.entries);
  }

  // Blade-specific health signals. Every GR-tree extent is still current
  // (TTend = UC), so all 40 leaf regions are growing and none are dead.
  auto grt = StatsForIndex("hist_grt");
  EXPECT_EQ(std::stoull(grt["all"][9]), 40u);  // growing_regions
  EXPECT_EQ(std::stoull(grt["all"][8]), 0u);   // dead_entries
  EXPECT_GT(std::stod(grt["all"][10]), 0.0);   // growing_area
  EXPECT_EQ(std::stoll(grt["all"][11]), 21000);  // computed_at = current time

  // Occupancy is a real fraction where node capacity is defined; the GiST
  // blade's variable-length keys leave it undefined (reported as 0).
  for (const char* index : {"hist_grt", "hist_rst", "emp_bt"}) {
    auto stats = StatsForIndex(index);
    const double occupancy = std::stod(stats["all"][6]);
    EXPECT_GT(occupancy, 0.0) << index;
    EXPECT_LE(occupancy, 1.0) << index;
  }
  EXPECT_EQ(std::stod(StatsForIndex("bk_gist")["all"][6]), 0.0);
}

TEST_F(IndexStatsTest, UpdateStatisticsForIndexRefreshesOnlyThatIndex) {
  MustExec("UPDATE STATISTICS");
  MustExec("INSERT INTO emp VALUES ('late', 9999)");
  MustExec("INSERT INTO bookings VALUES ('late', '[900,910]')");
  MustExec("UPDATE STATISTICS FOR INDEX emp_bt");
  MustExec("SELECT * FROM sys_index_stats");
  // emp_bt was recomputed and sees the new row; bk_gist still shows the
  // snapshot from the first pass.
  EXPECT_EQ(std::stoull(StatsForIndex("emp_bt")["all"][5]), 51u);
  EXPECT_EQ(std::stoull(StatsForIndex("bk_gist")["all"][5]), 30u);
}

TEST_F(IndexStatsTest, CheckIndexReachesAmCheckInAllFourBlades) {
  for (const char* index : {"hist_grt", "hist_rst", "emp_bt", "bk_gist"}) {
    SCOPED_TRACE(index);
    MustExec(std::string("CHECK INDEX ") + index);
  }
}

TEST_F(IndexStatsTest, UnknownSysViewListsTheAvailableViews) {
  const Status status = Exec("SELECT * FROM sys_nonsense");
  ASSERT_FALSE(status.ok());
  const std::string rendered = status.ToString();
  EXPECT_NE(rendered.find("available system views"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("sys_index_stats"), std::string::npos);
  EXPECT_NE(rendered.find("sys_slow_queries"), std::string::npos);
  EXPECT_NE(rendered.find("sys_metrics"), std::string::npos);
}

// Observability off: no registry traffic, but EXPLAIN PROFILE still counts
// calls (bench_obs_overhead compares exactly these two configurations).
TEST(ObsDisabled, ProfileWorksWithoutRegistry) {
  ServerOptions server_options;
  server_options.observability = false;
  Server server(server_options);
  GRTreeBladeOptions options;
  ASSERT_TRUE(RegisterGRTreeBlade(&server, options).ok());
  ServerSession* session = server.CreateSession();
  ResultSet result;
  auto exec = [&](const std::string& sql) {
    Status status = server.Execute(session, sql, &result);
    ASSERT_TRUE(status.ok()) << sql << " -> " << status.ToString();
  };
  exec("CREATE TABLE t (id int, e grt_timeextent)");
  exec("CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am");
  exec("SET CURRENT_TIME TO 20000");
  for (int i = 0; i < 30; ++i) {
    exec("INSERT INTO t VALUES (" + std::to_string(i) + ", '20000, UC, " +
         std::to_string(19900 + i) + ", NOW')");
  }
  exec("EXPLAIN PROFILE SELECT id FROM t "
       "WHERE Overlaps(e, '20000, UC, 19000, NOW')");
  EXPECT_GT(session->profile().calls(obs::PurposeFn::kAmGetNext), 0u);
  bool saw_profile = false;
  for (const std::string& line : result.messages) {
    if (line.rfind("PROFILE", 0) == 0) saw_profile = true;
  }
  EXPECT_TRUE(saw_profile);

  // The registry saw no subsystem wiring: sys_metrics carries only the
  // synthetic trace.dropped row.
  exec("SELECT name FROM sys_metrics");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "trace.dropped");
}

}  // namespace
}  // namespace grtdb
