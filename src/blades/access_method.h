#ifndef GRTDB_BLADES_ACCESS_METHOD_H_
#define GRTDB_BLADES_ACCESS_METHOD_H_

#include <memory>
#include <string>
#include <vector>

#include "blades/locking_store.h"
#include "common/status.h"
#include "dbdk/bladesmith.h"
#include "server/server.h"
#include "storage/node_cache.h"
#include "storage/wal_store.h"

namespace grtdb {

// The secondary-access-method skeleton every in-tree blade shares: one
// registration path for a purpose-function table (paper §4 Steps 2-4) and
// one index lifecycle over one server-owned store stack per index (Table
// 5). A blade supplies only what differs: its tree, its qualification
// translation, am_getnext, insert/remove, check and stats walk.

// ---------------------------------------------------------- registration --

// Exports each non-empty hook of `fns` into `project.library` as
// <prefix>_<suffix> (grt_create, grt_getnext, ...) and runs BladeSmith's
// registration script for `project` with them: its routines first, then
// one CREATE FUNCTION per hook (RETURNING float for am_scancost, int
// otherwise), then the access method `am_name` with its purpose properties
// in Fig. 6 order, then the project's operator classes (the access
// method's default one among them).
Status RegisterAccessMethod(Server* server, const std::string& am_name,
                            const std::string& prefix,
                            const PurposeFunctions& fns,
                            BladeProject project);

// ------------------------------------------------------------ the stack --

// Where an index keeps its nodes (paper §5.3): one large object, one per
// node, one per subtree cluster, or an operating-system file. Only the
// GR-tree blade offers the choice; the other blades use kSingleLo.
enum class IndexLayout { kSingleLo, kLoPerNode, kLoPerSubtree, kExternalFile };

// Frames in each index's node cache: the size of the sbspace buffer pool,
// so an index the pool holds also fits its cache. Frames are allocated on
// first use, so a small index pays only for the nodes it has.
inline constexpr size_t kIndexCacheFrames = kSbspacePoolPages;

// An index's store stack, built once by am_create and owned by the server
// (IndexDef::am_state) until am_drop: the base layout, the node cache
// directly above it and, for kExternalFile, the WAL above the cache. Every
// statement's tree runs on this one stack, so the cache stays warm from
// statement to statement. Members are destroyed in reverse, WAL → cache →
// base, so the cache's write-back lands in a live base store.
struct IndexStack {
  std::unique_ptr<NodeStore> base;
  // Below the WAL: safe because the WAL flushes its inner store (here the
  // cache, which writes back) before every log truncation.
  std::unique_ptr<NodeCache> cache;
  // kExternalFile only: the developer-built recovery layer of §5.3 — the
  // server's own logging covers sbspace LOs, an OS file gets nothing.
  std::unique_ptr<WalNodeStore> wal;
  NodeId anchor = kInvalidNodeId;
  std::string path;  // kExternalFile: the index file; its log is path.wal
};

// Builds the stack of the index am_create is creating into
// desc->am_state: fresh storage in `layout` (kLoPerSubtree clusters
// `nodes_per_lo` nodes; kExternalFile replaces `path` and its log), the
// cache, and for kExternalFile the WAL over a new, empty log.
Status BuildIndexStack(MiCallContext& ctx, MiAmTableDesc* desc,
                       IndexLayout layout = IndexLayout::kSingleLo,
                       uint64_t nodes_per_lo = 1,
                       const std::string& path = "");

// The AM catalog record of a single-LO index ("the table associated with
// the access method", Table 5): its large object and anchor node.
Status PutLoRecord(MiCallContext& ctx, MiAmTableDesc* desc);

// ---------------------------------------------------- one statement's open --

// One statement's open index — the Tree object of Table 5, kept in the
// index descriptor's user data from am_open (or am_create) to am_close:
// the statement's view of the shared stack. Blades derive TreeHandle and
// add what the statement captures (the B-tree's compare(), the GiST
// extension).
struct IndexHandle {
  IndexStack* stack = nullptr;
  // §5.3 LO two-phase locking for this statement's transaction, above the
  // shared cache (every layout but kExternalFile, whose WAL runs bare).
  std::unique_ptr<LockingNodeStore> locking;
  NodeStore* store = nullptr;  // what the tree runs on: the WAL or `locking`
  // Set by every call that writes nodes; am_close writes back only then.
  bool wrote = false;
};

template <typename Tree>
struct TreeHandle : IndexHandle {
  std::unique_ptr<Tree> tree;
};

template <typename Handle>
Handle* HandleOf(MiAmTableDesc* desc) {
  return static_cast<Handle*>(static_cast<IndexHandle*>(desc->user_data));
}

// Takes the statement's handle out of the descriptor.
template <typename Handle>
std::unique_ptr<Handle> TakeHandle(MiAmTableDesc* desc) {
  std::unique_ptr<Handle> handle(HandleOf<Handle>(desc));
  desc->user_data = nullptr;
  return handle;
}

// am_open's core (and am_create's, after BuildIndexStack): unless the
// descriptor already holds a handle, attaches a new `Handle` to the
// index's stack — no mutex, no I/O — and gives it the tree `make_tree`
// returns: Tree::Create in am_create, Tree::Open from the anchor (a cache
// hit) otherwise. `make_tree` also captures what the statement needs.
template <typename Handle, typename MakeTree>
Status OpenHandle(MiCallContext& ctx, MiAmTableDesc* desc,
                  MakeTree make_tree) {
  // Table 5, am_open step 1: invoked right after am_create -> exit (the
  // descriptor already carries the Tree object).
  if (desc->just_created || desc->user_data != nullptr) return Status::OK();
  auto* stack = static_cast<IndexStack*>(desc->am_state->get());
  if (stack == nullptr) {
    return Status::Internal("index '" + desc->index->name +
                            "' has no store stack");
  }
  auto handle = std::make_unique<Handle>();
  handle->stack = stack;
  if (stack->wal != nullptr) {
    handle->store = stack->wal.get();
  } else {
    handle->locking = std::make_unique<LockingNodeStore>(
        stack->cache.get(), &ctx.server->lock_manager(), ctx.session);
    handle->store = handle->locking.get();
  }
  auto tree_or = make_tree(handle.get());
  if (!tree_or.ok()) return tree_or.status();
  handle->tree = std::move(tree_or).value();
  desc->user_data = static_cast<IndexHandle*>(handle.release());
  return Status::OK();
}

// am_close's core, before the handle goes: writes the statement's dirty
// nodes back while its exclusive LO locks are still held (a read-only
// statement leaves the cache as it is) and releases its shared LO locks
// where the isolation level allows.
Status EndStatement(IndexHandle* handle);

template <typename Handle>
Status CloseHandle(MiAmTableDesc* desc) {
  std::unique_ptr<Handle> handle = TakeHandle<Handle>(desc);
  return handle == nullptr ? Status::OK() : EndStatement(handle.get());
}

// am_drop's core once the tree's Drop returned `status`: notes where the
// index lives — the single LO, the cluster LOs, or the file — releases
// the stack before that storage goes, frees it, and forgets the AM
// catalog record.
Status DropIndexStorage(MiCallContext& ctx, MiAmTableDesc* desc,
                        Status status);

// Table 5: am_update = am_delete + am_insert.
AmUpdateFn DeleteThenInsert(AmModifyFn remove, AmModifyFn insert);

// Adds the hooks every blade shares to `fns`, whose am_open, am_insert and
// am_delete are set: am_close (CloseHandle, unless set), am_drop (am_open,
// the tree's Drop, then DropIndexStorage) and am_update.
template <typename Handle>
void AddSharedHooks(PurposeFunctions* fns) {
  if (!fns->am_close) {
    fns->am_close = [](MiCallContext&, MiAmTableDesc* desc) {
      return CloseHandle<Handle>(desc);
    };
  }
  fns->am_drop = [open = fns->am_open](MiCallContext& ctx,
                                       MiAmTableDesc* desc) -> Status {
    GRTDB_RETURN_IF_ERROR(open(ctx, desc));
    // The handle goes before the stack its tree runs on.
    Status dropped = TakeHandle<Handle>(desc)->tree->Drop();
    return DropIndexStorage(ctx, desc, dropped);
  };
  fns->am_update = DeleteThenInsert(fns->am_delete, fns->am_insert);
}

// Builds the IndexStatsReport of one am_stats walk, fed level by level,
// and hands it to the server (sys_index_stats, and the planner's cap on
// am_scancost).
class IndexStatsBuilder {
 public:
  // `max_entries` is a node's capacity in entries; 0 when keys vary in
  // size, which leaves occupancy undefined (0).
  IndexStatsBuilder(MiAmTableDesc* desc, size_t max_entries);

  // One level's numbers; level 0 is the leaf level.
  IndexLevelStats& AddLevel(uint32_t level, uint64_t nodes,
                            uint64_t entries);
  IndexStatsReport& report() { return report_; }
  // Whole-tree occupancy, then Server::ReportIndexStats.
  void Publish(Server* server);

 private:
  IndexStatsReport report_;
  size_t max_entries_;
  uint64_t total_entries_ = 0;
};

}  // namespace grtdb

#endif  // GRTDB_BLADES_ACCESS_METHOD_H_
