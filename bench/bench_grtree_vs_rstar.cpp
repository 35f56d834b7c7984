// T5 — the headline claim (§3, [BJSS98]): the GR-tree outperforms
// R*-tree-based alternatives on now-relative bitemporal data because its
// bounding regions produce less overlap and dead space. Both trees run on
// identical page-based node stores; the baseline indexes UC/NOW through
// the maximum-timestamp transform and must verify candidates against the
// exact geometry (extra false positives = extra I/O).

#include <cstdio>
#include <cstring>
#include <set>
#include <unordered_map>

#include "bench/bench_util.h"
#include "blades/rstar_blade.h"
#include "core/grtree.h"
#include "rstar/rstar_tree.h"
#include "storage/pager.h"
#include "storage/space.h"
#include "temporal/predicates.h"
#include "workload/workload.h"

namespace grtdb {
namespace {

using bench::Fmt;
using bench::TablePrinter;

constexpr int64_t kMaxTimestamp = 200000;
// --smoke shrinks the run for the ctest smoke label; the answer check holds
// either way.
int g_actions = 12000;
int g_sweep_queries = 400;
int g_queries = 300;

struct Pair {
  MemorySpace grt_space;
  MemorySpace rst_space;
  std::unique_ptr<Pager> grt_pager;
  std::unique_ptr<Pager> rst_pager;
  std::unique_ptr<PagerNodeStore> grt_store;
  std::unique_ptr<PagerNodeStore> rst_store;
  std::unique_ptr<GRTree> grt;
  std::unique_ptr<RStarTree> rst;
  std::vector<std::pair<TimeExtent, uint64_t>> live;
  std::unordered_map<uint64_t, TimeExtent> live_by_payload;
  uint64_t grt_insert_reads = 0;
  uint64_t grt_insert_writes = 0;
  uint64_t rst_insert_reads = 0;
  uint64_t rst_insert_writes = 0;
  uint64_t ops = 0;
};

void BuildPair(Pair& pair, double now_fraction, uint64_t seed, int actions,
               int64_t* out_ct) {
  pair.grt_pager = std::make_unique<Pager>(&pair.grt_space, 8192);
  pair.rst_pager = std::make_unique<Pager>(&pair.rst_space, 8192);
  pair.grt_store = std::make_unique<PagerNodeStore>(pair.grt_pager.get());
  pair.rst_store = std::make_unique<PagerNodeStore>(pair.rst_pager.get());
  NodeId anchor;
  auto grt_or = GRTree::Create(pair.grt_store.get(), GRTree::Options{},
                               &anchor);
  bench::Check(grt_or.status(), "grt create");
  pair.grt = std::move(grt_or).value();
  auto rst_or = RStarTree::Create(pair.rst_store.get(), RStarTree::Options{},
                                  &anchor);
  bench::Check(rst_or.status(), "rst create");
  pair.rst = std::move(rst_or).value();

  WorkloadOptions wopts;
  wopts.seed = seed;
  wopts.now_relative_fraction = now_fraction;
  BitemporalWorkload workload(wopts);
  for (int action = 0; action < actions; ++action) {
    for (const IndexOp& op : workload.NextAction()) {
      ++pair.ops;
      if (op.kind == IndexOp::Kind::kInsert) {
        bench::Check(pair.grt->Insert(op.extent, op.payload, op.ct),
                     "grt insert");
        bench::Check(pair.rst->Insert(
                         TransformExtent(op.extent, kMaxTimestamp),
                         op.payload),
                     "rst insert");
      } else {
        bool found = false;
        bench::Check(pair.grt->Delete(op.extent, op.payload, op.ct, &found),
                     "grt delete");
        bench::Check(pair.rst->Delete(
                         TransformExtent(op.extent, kMaxTimestamp),
                         op.payload, &found),
                     "rst delete");
      }
    }
  }
  pair.grt_insert_reads = pair.grt_store->stats().node_reads;
  pair.grt_insert_writes = pair.grt_store->stats().node_writes;
  pair.rst_insert_reads = pair.rst_store->stats().node_reads;
  pair.rst_insert_writes = pair.rst_store->stats().node_writes;
  for (const auto& [payload, extent] : workload.live()) {
    pair.live.emplace_back(extent, payload);
    pair.live_by_payload.emplace(payload, extent);
  }
  *out_ct = workload.current_time();
}

struct QueryResult {
  double grt_reads = 0.0;
  double rst_reads = 0.0;
  double rst_false_positives = 0.0;
  uint64_t mismatches = 0;
};

QueryResult RunQueries(Pair& pair, int64_t ct, uint64_t seed, int count,
                       int64_t span, bool stair_queries) {
  WorkloadOptions wopts;
  wopts.seed = seed;
  BitemporalWorkload probe(wopts);
  QueryResult out;
  for (int q = 0; q < count; ++q) {
    // Stair queries ask for "current and valid around vt1" — the
    // characteristic now-relative query; rect queries are bitemporal
    // range probes.
    TimeExtent query = probe.GroundRectQuery(span);
    if (stair_queries) {
      const int64_t vt1 = query.vt_begin.chronon();
      query = TimeExtent(Timestamp::FromChronon(ct), Timestamp::UC(),
                         Timestamp::FromChronon(std::min(vt1, ct)),
                         Timestamp::NOW());
    }
    // GR-tree.
    pair.grt_store->ResetStats();
    std::vector<GRTree::Entry> grt_results;
    bench::Check(pair.grt->SearchAll(PredicateOp::kOverlaps, query, ct,
                                     &grt_results),
                 "grt search");
    out.grt_reads += static_cast<double>(pair.grt_store->stats().node_reads);

    // R*-tree + exact verification.
    pair.rst_store->ResetStats();
    std::vector<RStarTree::Entry> candidates;
    bench::Check(
        pair.rst->SearchAll(TransformExtent(query, kMaxTimestamp),
                            &candidates),
        "rst search");
    out.rst_reads += static_cast<double>(pair.rst_store->stats().node_reads);
    std::set<uint64_t> verified;
    const Region query_region = ResolveExtent(query, ct);
    for (const auto& candidate : candidates) {
      // Exact-geometry check against the data tuple (the §3 final step);
      // in the DataBlade this is a base-table read per candidate.
      auto it = pair.live_by_payload.find(candidate.payload);
      if (it != pair.live_by_payload.end() &&
          ResolveExtent(it->second, ct).Overlaps(query_region)) {
        verified.insert(candidate.payload);
      }
    }
    out.rst_false_positives +=
        static_cast<double>(candidates.size() - verified.size());
    std::set<uint64_t> grt_answers;
    for (const auto& entry : grt_results) grt_answers.insert(entry.payload);
    if (grt_answers != verified) ++out.mismatches;
  }
  out.grt_reads /= count;
  out.rst_reads /= count;
  out.rst_false_positives /= count;
  return out;
}

const char* Agree(const QueryResult& result) {
  return result.mismatches == 0 ? "yes" : "NO";
}

}  // namespace
}  // namespace grtdb

// Exits 1 when the two trees' answers differ on any query.
int main(int argc, char** argv) {
  using namespace grtdb;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_actions = 1500;
      g_sweep_queries = 50;
      g_queries = 40;
    }
  }
  uint64_t mismatches = 0;
  std::printf("T5: GR-tree vs R*-tree(max-timestamp transform) on "
              "now-relative bitemporal data\n");
  std::printf("(identical page stores; reads = tree node accesses per "
              "query; the baseline additionally pays one base-table read "
              "per false positive)\n");

  std::printf("\nSweep over the now-relative fraction "
              "(%d actions, %d overlap queries):\n\n",
              g_actions, g_sweep_queries);
  bench::TablePrinter sweep(
      {"now-rel fraction", "live tuples", "GR reads/q", "R* reads/q",
       "R* false pos/q", "effective R*/GR", "GR writes/op", "R* writes/op",
       "answers agree"});
  for (double fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    Pair pair;
    int64_t ct;
    BuildPair(pair, fraction, 77, g_actions, &ct);
    QueryResult result =
        RunQueries(pair, ct, 1234, g_sweep_queries, 60, false);
    mismatches += result.mismatches;
    const double rst_effective = result.rst_reads + result.rst_false_positives;
    sweep.AddRow(
        {Fmt(fraction, 2), std::to_string(pair.live.size()),
         Fmt(result.grt_reads, 1), Fmt(result.rst_reads, 1),
         Fmt(result.rst_false_positives, 1),
         Fmt(rst_effective / result.grt_reads, 2),
         Fmt(static_cast<double>(pair.grt_insert_writes) /
                 static_cast<double>(pair.ops),
             2),
         Fmt(static_cast<double>(pair.rst_insert_writes) /
                 static_cast<double>(pair.ops),
             2),
         Agree(result)});
  }
  sweep.Print();

  std::printf("\nSweep over query extent (now-rel fraction 0.75):\n\n");
  bench::TablePrinter spans({"query span (days)", "GR reads/q", "R* reads/q",
                             "R* false pos/q", "effective R*/GR",
                             "answers agree"});
  {
    Pair pair;
    int64_t ct;
    BuildPair(pair, 0.75, 78, g_actions, &ct);
    for (int64_t span : {5, 30, 120, 365}) {
      QueryResult result =
          RunQueries(pair, ct, 4321 + span, g_queries, span, false);
      mismatches += result.mismatches;
      spans.AddRow(
          {std::to_string(span), Fmt(result.grt_reads, 1),
           Fmt(result.rst_reads, 1), Fmt(result.rst_false_positives, 1),
           Fmt((result.rst_reads + result.rst_false_positives) /
                   result.grt_reads,
               2),
           Agree(result)});
    }
  }
  spans.Print();

  std::printf("\nNow-relative (stair-shaped) queries — \"current and valid "
              "since vt1\" (now-rel fraction 0.75):\n\n");
  bench::TablePrinter stairs({"now-rel fraction", "GR reads/q", "R* reads/q",
                              "R* false pos/q", "effective R*/GR",
                              "answers agree"});
  for (double fraction : {0.25, 0.75}) {
    Pair pair;
    int64_t ct;
    BuildPair(pair, fraction, 80, g_actions, &ct);
    QueryResult result = RunQueries(pair, ct, 555, g_queries, 30, true);
    mismatches += result.mismatches;
    stairs.AddRow(
        {Fmt(fraction, 2), Fmt(result.grt_reads, 1),
         Fmt(result.rst_reads, 1), Fmt(result.rst_false_positives, 1),
         Fmt((result.rst_reads + result.rst_false_positives) /
                 result.grt_reads,
             2),
         Agree(result)});
  }
  stairs.Print();

  std::printf("\nAging: the same index queried at later current times "
              "(no maintenance in either tree):\n\n");
  bench::TablePrinter aging({"current time", "GR reads/q", "R* reads/q",
                             "R* false pos/q", "answers agree"});
  {
    Pair pair;
    int64_t ct;
    BuildPair(pair, 0.75, 79, g_actions, &ct);
    for (int64_t delta : {0, 365, 1825, 7300}) {
      QueryResult result =
          RunQueries(pair, ct + delta, 777, g_queries, 60, false);
      mismatches += result.mismatches;
      aging.AddRow({"ct+" + std::to_string(delta), Fmt(result.grt_reads, 1),
                    Fmt(result.rst_reads, 1),
                    Fmt(result.rst_false_positives, 1), Agree(result)});
    }
  }
  aging.Print();
  if (mismatches > 0) {
    std::printf("\nbench_grtree_vs_rstar: answers differ on %llu queries\n",
                static_cast<unsigned long long>(mismatches));
    return 1;
  }
  return 0;
}
