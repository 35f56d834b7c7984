// T9 — §5.5 deletions: (a) retrieve-and-delete scans under the three
// cursor policies (restart after every delete / restart only on
// condensation — the prototype's compromise / postponed re-insertion), and
// (b) vacuuming: bulk deletion of old entries one-by-one vs dropping the
// index and rebuilding it with the bulk-loading algorithm. Exits 1 when
// any "consistent" cell reads NO.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/grtree.h"
#include "storage/pager.h"
#include "storage/space.h"
#include "workload/workload.h"

namespace grtdb {
namespace {

using bench::Fmt;
using bench::TablePrinter;

struct Built {
  MemorySpace space;
  std::unique_ptr<Pager> pager;
  std::unique_ptr<PagerNodeStore> store;
  std::unique_ptr<GRTree> tree;
  int64_t ct = 0;
  std::vector<GRTree::Entry> live;
};

void Build(Built& built, DeletionPolicy policy, uint64_t seed, int actions) {
  built.pager = std::make_unique<Pager>(&built.space, 8192);
  built.store = std::make_unique<PagerNodeStore>(built.pager.get());
  GRTree::Options options;
  options.deletion_policy = policy;
  NodeId anchor;
  auto tree_or = GRTree::Create(built.store.get(), options, &anchor);
  bench::Check(tree_or.status(), "create");
  built.tree = std::move(tree_or).value();
  WorkloadOptions wopts;
  wopts.seed = seed;
  BitemporalWorkload workload(wopts);
  for (int action = 0; action < actions; ++action) {
    for (const IndexOp& op : workload.NextAction()) {
      if (op.kind == IndexOp::Kind::kInsert) {
        bench::Check(built.tree->Insert(op.extent, op.payload, op.ct),
                     "insert");
      } else {
        bool found = false;
        bench::Check(built.tree->Delete(op.extent, op.payload, op.ct, &found),
                     "delete");
      }
    }
  }
  built.ct = workload.current_time();
  for (const auto& [payload, extent] : workload.live()) {
    built.live.push_back(GRTree::Entry{extent, payload});
  }
}

const char* PolicyName(DeletionPolicy policy) {
  switch (policy) {
    case DeletionPolicy::kRestartAlways:
      return "restart after every delete";
    case DeletionPolicy::kRestartOnCondense:
      return "restart on condense (prototype)";
    case DeletionPolicy::kPostponeReinsert:
      return "postponed re-insertion";
  }
  return "?";
}

}  // namespace
}  // namespace grtdb

int main() {
  using namespace grtdb;
  std::printf("T9: deletion strategies (§5.5)\n");

  std::printf("\nRetrieve-and-delete of ~35%% of a 10000-action index "
              "(cursor-driven, as a DELETE statement runs):\n\n");
  bool all_consistent = true;
  bench::TablePrinter policies({"policy", "deleted", "cursor restarts",
                                "node reads", "node writes", "ms",
                                "consistent after"});
  for (DeletionPolicy policy :
       {DeletionPolicy::kRestartAlways, DeletionPolicy::kRestartOnCondense,
        DeletionPolicy::kPostponeReinsert}) {
    Built built;
    Build(built, policy, 31, 10000);
    // Delete everything overlapping the older half of transaction time.
    const TimeExtent target =
        TimeExtent::Ground(0, 10000 + (built.ct - 10000) / 2, 0, 100000);
    built.store->ResetStats();
    bench::Timer timer;
    auto cursor_or =
        built.tree->Search(PredicateOp::kOverlaps, target, built.ct);
    bench::Check(cursor_or.status(), "search");
    auto cursor = std::move(cursor_or).value();
    uint64_t deleted = 0;
    while (true) {
      bool has = false;
      GRTree::Entry entry;
      bench::Check(cursor->Next(&has, &entry), "next");
      if (!has) break;
      bool found = false;
      bench::Check(
          built.tree->Delete(entry.extent, entry.payload, built.ct, &found),
          "delete");
      if (found) ++deleted;
      if (policy == DeletionPolicy::kRestartAlways) cursor->Reset();
    }
    bench::Check(built.tree->FlushPending(built.ct), "flush");
    const double ms = timer.ElapsedMs();
    const Status check = built.tree->CheckConsistency(built.ct);
    all_consistent = all_consistent && check.ok();
    policies.AddRow({PolicyName(policy), std::to_string(deleted),
                     std::to_string(cursor->restarts()),
                     std::to_string(built.store->stats().node_reads),
                     std::to_string(built.store->stats().node_writes),
                     Fmt(ms, 1), check.ok() ? "yes" : "NO"});
  }
  policies.Print();

  std::printf("\nVacuuming (delete all data older than a cutoff, ~2/3 of "
              "the index):\n\n");
  bench::TablePrinter vacuum({"approach", "remaining", "node reads",
                              "node writes", "ms", "consistent"});
  for (int approach = 0; approach < 2; ++approach) {
    Built built;
    Build(built, DeletionPolicy::kRestartOnCondense, 32, 10000);
    const int64_t cutoff = 10000 + 2 * (built.ct - 10000) / 3;
    built.store->ResetStats();
    bench::Timer timer;
    if (approach == 0) {
      // One-by-one deletion through the index.
      auto cursor_or = built.tree->Search(
          PredicateOp::kOverlaps, TimeExtent::Ground(0, cutoff, 0, 1000000),
          built.ct);
      bench::Check(cursor_or.status(), "search");
      auto cursor = std::move(cursor_or).value();
      while (true) {
        bool has = false;
        GRTree::Entry entry;
        bench::Check(cursor->Next(&has, &entry), "next");
        if (!has) break;
        // Vacuum only frozen history: keep current (UC) tuples.
        if (entry.extent.IsCurrent()) continue;
        bool found = false;
        bench::Check(built.tree->Delete(entry.extent, entry.payload,
                                        built.ct, &found),
                     "delete");
      }
    } else {
      // Drop and rebuild via bulk loading (the paper's "straightforward
      // solution").
      std::vector<GRTree::Entry> keep;
      for (const GRTree::Entry& entry : built.live) {
        const bool old = !entry.extent.IsCurrent() &&
                         entry.extent.tt_end.chronon() <= cutoff;
        if (!old) keep.push_back(entry);
      }
      bench::Check(built.tree->Drop(), "drop");
      GRTree::Options options;
      NodeId anchor;
      auto tree_or = GRTree::Create(built.store.get(), options, &anchor);
      bench::Check(tree_or.status(), "create");
      built.tree = std::move(tree_or).value();
      bench::Check(built.tree->BulkLoad(std::move(keep), built.ct), "bulk");
    }
    const double ms = timer.ElapsedMs();
    const Status check = built.tree->CheckConsistency(built.ct);
    all_consistent = all_consistent && check.ok();
    vacuum.AddRow({approach == 0 ? "index deletion, one-by-one"
                                 : "drop + bulk-load rebuild",
                   std::to_string(built.tree->size()),
                   std::to_string(built.store->stats().node_reads),
                   std::to_string(built.store->stats().node_writes),
                   Fmt(ms, 1), check.ok() ? "yes" : "NO"});
  }
  vacuum.Print();
  std::printf("\n(The two vacuum approaches retain slightly different sets "
              "on purpose: one-by-one keeps every tuple not matched by the "
              "cutoff predicate through the index, the rebuild filters the "
              "live set directly; both keep all current tuples.)\n");
  return all_consistent ? 0 : 1;
}
