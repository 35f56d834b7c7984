#include "layers.h"

#include <chrono>
#include <memory>

#include "sql/parser.h"
#include "storage/node_cache.h"
#include "storage/node_store.h"
#include "storage/sbspace.h"
#include "storage/space.h"
#include "storage/wal_store.h"
#include "temporal/predicates.h"
#include "txn/lock_manager.h"

namespace wirebench {
namespace {

using Clock = std::chrono::steady_clock;
using grtdb::GRTree;
using grtdb::NodeId;
using grtdb::Status;

// Keeps timed results observable so the calls are not optimized away.
volatile uint64_t g_sink = 0;

double NsSince(Clock::time_point start, double calls) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
             .count() /
         calls;
}

// Loads the LOAD file's rows in file order at the base time, as the
// served LOAD did. `insert_us` receives the mean insert time.
Status LoadTree(GRTree* tree, const Inputs& in, double* insert_us) {
  const Clock::time_point start = Clock::now();
  for (const auto& [id, extent] : in.base) {
    GRTDB_RETURN_IF_ERROR(tree->Insert(extent, id, in.base_ct));
  }
  if (insert_us != nullptr) {
    *insert_us = NsSince(start, static_cast<double>(in.base.size())) / 1000.0;
  }
  return Status::OK();
}

// Replays the stream prefix the served index received; returns the mean
// GRTree::Insert time over its inserts.
Status ReplayStream(GRTree* tree, const LayerInputs& in, double* insert_us) {
  double insert_ns = 0, inserts = 0;
  for (size_t i = 0; i < in.actions_run; ++i) {
    const WriteAction& action = in.inputs->stream[i];
    for (const grtdb::IndexOp& op : action.ops) {
      if (op.kind == grtdb::IndexOp::Kind::kDelete) {
        bool found = false;
        GRTDB_RETURN_IF_ERROR(
            tree->Delete(op.extent, op.payload, action.ct, &found));
        if (!found) return Status::NotFound("stream delete missed");
        continue;
      }
      const Clock::time_point start = Clock::now();
      GRTDB_RETURN_IF_ERROR(tree->Insert(op.extent, op.payload, action.ct));
      insert_ns += NsSince(start, 1);
      ++inserts;
    }
  }
  *insert_us = Ratio(insert_ns, inserts) / 1000.0;
  return Status::OK();
}

// Mean SearchAll time over the workload's reads, each checked against its
// oracle ids (the tree's payloads are the id column here).
Status TimeSearches(GRTree* tree, const LayerInputs& in, double* search_us) {
  const size_t rounds = std::max<size_t>(in.read_queries.size(), 64);
  std::vector<GRTree::Entry> entries;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < rounds; ++i) {
    const size_t q = i % in.read_queries.size();
    entries.clear();
    GRTDB_RETURN_IF_ERROR(
        tree->SearchAll(in.read_op, in.read_queries[q], in.read_ct, &entries));
    std::vector<uint64_t> ids;
    for (const GRTree::Entry& e : entries) ids.push_back(e.payload);
    std::sort(ids.begin(), ids.end());
    if (ids != in.read_ids[q]) {
      return Status::Corruption("in-memory tree disagrees with the oracle on " +
                                ExtentText(in.read_queries[q]));
    }
  }
  *search_us = NsSince(start, static_cast<double>(rounds)) / 1000.0;
  return Status::OK();
}

// NodeCache::ViewNode on resident frames (hits) and on a cyclic scan over
// more nodes than frames, which LRU turns into all misses.
Status TimeNodeCache(grtdb::NodeStore* store, NodeId first, uint64_t count,
                     double* hit_ns, double* miss_ns) {
  constexpr size_t kFrames = 64;
  if (count <= kFrames) return Status::InvalidArgument("index too small");
  grtdb::NodeView view;
  {
    grtdb::NodeCache cache(store, kFrames);
    for (uint64_t i = 0; i < 32; ++i) {
      GRTDB_RETURN_IF_ERROR(cache.ViewNode(first + i, &view));
      view.Reset();
    }
    constexpr int kCalls = 200000;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      GRTDB_RETURN_IF_ERROR(cache.ViewNode(first + i % 32, &view));
      g_sink = g_sink + view.data()[0];
      view.Reset();
    }
    *hit_ns = NsSince(start, kCalls);
  }
  grtdb::NodeCache cache(store, kFrames);
  constexpr int kCalls = 20000;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    GRTDB_RETURN_IF_ERROR(cache.ViewNode(first + i % count, &view));
    g_sink = g_sink + view.data()[0];
    view.Reset();
  }
  *miss_ns = NsSince(start, kCalls);
  return Status::OK();
}

// WalNodeStore::Commit on the external-file layout, one transaction per
// GRTree::Insert of a base row, as the blade's am_insert commits.
Status TimeWalCommits(const Inputs& inputs, const std::string& workdir,
                      Metrics* out) {
  constexpr size_t kCommits = 200;
  const std::string path = workdir + "/layer_wal.dat";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  auto file_or = grtdb::ExternalFileNodeStore::Open(path);
  if (!file_or.ok()) return file_or.status();
  std::unique_ptr<grtdb::ExternalFileNodeStore> file =
      std::move(file_or).value();
  auto wal_or = grtdb::WalNodeStore::Open(file.get(), path + ".wal");
  if (!wal_or.ok()) return wal_or.status();
  std::unique_ptr<grtdb::WalNodeStore> wal = std::move(wal_or).value();
  GRTDB_RETURN_IF_ERROR(wal->Recover());
  GRTDB_RETURN_IF_ERROR(wal->Begin());
  NodeId anchor = grtdb::kInvalidNodeId;
  auto tree_or = GRTree::Create(wal.get(), {}, &anchor);
  if (!tree_or.ok()) return tree_or.status();
  std::unique_ptr<GRTree> tree = std::move(tree_or).value();
  GRTDB_RETURN_IF_ERROR(wal->Commit());
  const grtdb::WalStats before = wal->wal_stats();
  double commit_ns = 0;
  size_t commits = 0;
  for (const auto& [id, extent] : inputs.base) {
    if (commits == kCommits) break;
    GRTDB_RETURN_IF_ERROR(wal->Begin());
    GRTDB_RETURN_IF_ERROR(tree->Insert(extent, id, inputs.base_ct));
    const Clock::time_point start = Clock::now();
    GRTDB_RETURN_IF_ERROR(wal->Commit());
    commit_ns += NsSince(start, 1);
    ++commits;
  }
  const grtdb::WalStats after = wal->wal_stats();
  out->Add("storage.wal_commit_us", "us",
           Ratio(commit_ns, static_cast<double>(commits)) / 1000.0);
  out->Add("storage.wal_syncs_per_commit", "count",
           Ratio(static_cast<double>(after.syncs - before.syncs),
                 static_cast<double>(after.transactions_committed -
                                     before.transactions_committed)));
  out->Add("storage.wal_bytes_per_user_byte", "ratio",
           Ratio(static_cast<double>(after.log_bytes - before.log_bytes),
                 kUserRowBytes * static_cast<double>(commits)));
  tree.reset();
  wal.reset();
  file.reset();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return Status::OK();
}

}  // namespace

bool TimeLayerCalls(const LayerInputs& in, BenchTrace* trace, Metrics* out,
                    std::string* error) {
  auto fail = [&](const std::string& what, const Status& s) {
    *error = what + ": " + s.ToString();
    return false;
  };
  const Inputs& inputs = *in.inputs;

  // The in-memory store: the single-LO layout on an sbspace over memory.
  grtdb::MemorySpace space;
  auto sbspace_or = grtdb::Sbspace::Open(&space, 512);
  if (!sbspace_or.ok()) return fail("sbspace", sbspace_or.status());
  std::unique_ptr<grtdb::Sbspace> sbspace = std::move(sbspace_or).value();
  auto lo_or = grtdb::SingleLoNodeStore::Open(sbspace.get(), {});
  if (!lo_or.ok()) return fail("single-LO store", lo_or.status());
  std::unique_ptr<grtdb::SingleLoNodeStore> lo_store = std::move(lo_or).value();
  NodeId anchor = grtdb::kInvalidNodeId;
  auto tree_or = GRTree::Create(lo_store.get(), {}, &anchor);
  if (!tree_or.ok()) return fail("tree", tree_or.status());
  std::unique_ptr<GRTree> tree = std::move(tree_or).value();

  double insert_us = 0;
  {
    BenchTrace::Scope span(trace, "core.load");
    if (Status s = LoadTree(tree.get(), inputs, &insert_us); !s.ok()) {
      return fail("load", s);
    }
  }
  grtdb::GRTreeStats stats;
  if (Status s = tree->ComputeStats(inputs.base_ct, 0, &stats); !s.ok()) {
    return fail("stats", s);
  }
  if (stats.nodes != in.served_nodes_after_load) {
    *error = "in-memory tree has " + std::to_string(stats.nodes) +
             " nodes, the served index " +
             std::to_string(in.served_nodes_after_load);
    return false;
  }
  // Slots [anchor, anchor + nodes] were allocated in order by the load.
  const uint64_t node_slots = stats.nodes + 1;

  double search_us = 0;
  Status s;
  if (!in.reads_after_stream) {
    BenchTrace::Scope span(trace, "core.search");
    s = TimeSearches(tree.get(), in, &search_us);
    if (!s.ok()) return fail("search", s);
  }
  if (in.actions_run > 0) {
    BenchTrace::Scope span(trace, "core.insert");
    s = ReplayStream(tree.get(), in, &insert_us);
    if (!s.ok()) return fail("stream replay", s);
  }
  if (in.reads_after_stream) {
    BenchTrace::Scope span(trace, "core.search");
    s = TimeSearches(tree.get(), in, &search_us);
    if (!s.ok()) return fail("search", s);
  }
  out->Add("core.search_us", "us", search_us);
  out->Add("core.insert_us", "us", insert_us);

  // NodeCache over the workload's own layout.
  double hit_ns = 0, miss_ns = 0;
  {
    BenchTrace::Scope span(trace, "storage.node_cache");
    if (in.external_file) {
      const std::string path = in.workdir + "/layer_nodes.dat";
      std::remove(path.c_str());
      auto file_or = grtdb::ExternalFileNodeStore::Open(path);
      if (!file_or.ok()) return fail("external store", file_or.status());
      std::unique_ptr<grtdb::ExternalFileNodeStore> file =
          std::move(file_or).value();
      NodeId file_anchor = grtdb::kInvalidNodeId;
      auto file_tree_or = GRTree::Create(file.get(), {}, &file_anchor);
      if (!file_tree_or.ok()) return fail("file tree", file_tree_or.status());
      s = LoadTree(file_tree_or.value().get(), inputs, nullptr);
      if (s.ok()) {
        s = TimeNodeCache(file.get(), file_anchor, node_slots, &hit_ns,
                          &miss_ns);
      }
      std::remove(path.c_str());
    } else {
      s = TimeNodeCache(lo_store.get(), anchor, node_slots, &hit_ns,
                        &miss_ns);
    }
    if (!s.ok()) return fail("node cache", s);
  }
  out->Add("storage.cache_hit_ns", "ns", hit_ns);
  out->Add("storage.cache_miss_ns", "ns", miss_ns);

  // Pager::FetchPage on resident pages and Sbspace::LoRead of one node,
  // under the single-LO store.
  {
    BenchTrace::Scope span(trace, "storage.pager");
    grtdb::Pager& pager = sbspace->pager();
    const grtdb::PageId pages =
        std::min<grtdb::PageId>(space.page_count(), 256);
    constexpr int kCalls = 200000;
    uint8_t* data = nullptr;
    for (int warm = 0; warm < 2; ++warm) {
      const Clock::time_point start = Clock::now();
      for (int i = 0; i < kCalls; ++i) {
        const grtdb::PageId id = static_cast<grtdb::PageId>(i) % pages;
        s = pager.FetchPage(id, &data);
        if (!s.ok()) return fail("fetch", s);
        g_sink = g_sink + data[0];
        pager.Unpin(id);
      }
      if (warm == 1) {
        out->Add("storage.pager_fetch_ns", "ns", NsSince(start, kCalls));
      }
    }
  }
  {
    BenchTrace::Scope span(trace, "storage.lo_read");
    std::vector<uint8_t> page(grtdb::kPageSize);
    constexpr int kCalls = 50000;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      const uint64_t node = anchor + static_cast<uint64_t>(i) % node_slots;
      s = sbspace->LoRead(lo_store->handle(), node * grtdb::kPageSize,
                          grtdb::kPageSize, page.data());
      if (!s.ok()) return fail("LoRead", s);
      g_sink = g_sink + page[0];
    }
    out->Add("storage.lo_read_ns", "ns", NsSince(start, kCalls));
  }

  {
    BenchTrace::Scope span(trace, "storage.wal_commit");
    s = TimeWalCommits(inputs, in.workdir, out);
    if (!s.ok()) return fail("WAL commits", s);
  }

  // LockManager: an uncontended S acquire and its release.
  {
    BenchTrace::Scope span(trace, "txn.lock_manager");
    grtdb::LockManager locks;
    const grtdb::ResourceId lo{grtdb::ResourceKind::kLargeObject, 1};
    constexpr int kCalls = 200000;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      s = locks.Acquire(1, lo, grtdb::LockMode::kShared);
      if (!s.ok()) return fail("Acquire", s);
      locks.Release(1, lo);
    }
    out->Add("txn.acquire_release_ns", "ns", NsSince(start, kCalls));
  }

  // The temporal predicate on the workload's query/data pairs, and the
  // extent parser on the literals it sends.
  {
    BenchTrace::Scope span(trace, "temporal.overlaps");
    const size_t queries = std::min<size_t>(in.read_queries.size(), 16);
    uint64_t hits = 0;
    const Clock::time_point start = Clock::now();
    for (size_t q = 0; q < queries; ++q) {
      for (const auto& [id, extent] : inputs.base) {
        hits += grtdb::ExtentsOverlap(extent, in.read_queries[q], in.read_ct);
      }
    }
    g_sink = g_sink + hits;
    out->Add("temporal.overlaps_ns", "ns",
             NsSince(start, static_cast<double>(queries * inputs.base.size())));
  }
  {
    BenchTrace::Scope span(trace, "temporal.parse");
    const size_t calls = std::max<size_t>(in.literals.size(), 20000);
    grtdb::TimeExtent extent;
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < calls; ++i) {
      s = grtdb::TimeExtent::Parse(in.literals[i % in.literals.size()],
                                   &extent);
      if (!s.ok()) return fail("TimeExtent::Parse", s);
      g_sink = g_sink + static_cast<uint64_t>(extent.tt_begin.chronon());
    }
    out->Add("temporal.parse_ns", "ns",
             NsSince(start, static_cast<double>(calls)));
  }
  {
    BenchTrace::Scope span(trace, "sql.parse");
    const size_t calls = std::max<size_t>(in.statements.size(), 2000);
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < calls; ++i) {
      grtdb::sql::Statement stmt;
      s = grtdb::sql::Parser::Parse(in.statements[i % in.statements.size()],
                                    &stmt);
      if (!s.ok()) return fail("Parser::Parse", s);
    }
    out->Add("sql.parse_us", "us",
             NsSince(start, static_cast<double>(calls)) / 1000.0);
  }
  return true;
}

}  // namespace wirebench
