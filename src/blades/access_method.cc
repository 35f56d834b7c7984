#include "blades/access_method.h"

#include <cstdio>

#include "storage/layout.h"

namespace grtdb {

namespace {

IndexStack* StackOf(MiAmTableDesc* desc) {
  return static_cast<IndexStack*>(desc->am_state->get());
}

// A hook as its export: the std::any holds the hook's own wrapper type
// (AmSimpleFn, AmScanFn, ...), which CREATE SECONDARY ACCESS_METHOD checks;
// empty when the blade does not provide the hook.
template <typename Fn>
std::any Hook(const Fn& fn) {
  return fn ? std::any(fn) : std::any();
}

}  // namespace

Status RegisterAccessMethod(Server* server, const std::string& am_name,
                            const std::string& prefix,
                            const PurposeFunctions& fns,
                            BladeProject project) {
  if (server->catalog().FindAccessMethod(am_name) != nullptr) {
    return Status::AlreadyExists("access method '" + am_name + "'");
  }
  using F = obs::PurposeFn;
  const std::pair<F, std::any> hooks[] = {
      {F::kAmCreate, Hook(fns.am_create)},
      {F::kAmDrop, Hook(fns.am_drop)},
      {F::kAmOpen, Hook(fns.am_open)},
      {F::kAmClose, Hook(fns.am_close)},
      {F::kAmBeginScan, Hook(fns.am_beginscan)},
      {F::kAmEndScan, Hook(fns.am_endscan)},
      {F::kAmRescan, Hook(fns.am_rescan)},
      {F::kAmGetNext, Hook(fns.am_getnext)},
      {F::kAmInsert, Hook(fns.am_insert)},
      {F::kAmDelete, Hook(fns.am_delete)},
      {F::kAmUpdate, Hook(fns.am_update)},
      {F::kAmScanCost, Hook(fns.am_scancost)},
      {F::kAmStats, Hook(fns.am_stats)},
      {F::kAmCheck, Hook(fns.am_check)},
  };
  BladeLibrary* blade_library =
      server->blade_libraries().Load(project.library);
  project.name = am_name;
  BladeAccessMethod am;
  am.name = am_name;
  for (const auto& [fn, hook] : hooks) {
    if (!hook.has_value()) continue;
    const std::string property = obs::PurposeFnName(fn);
    const std::string name = prefix + "_" + property.substr(3);  // no "am_"
    blade_library->Export(name, hook);
    project.routines.push_back(BladeRoutine{
        name, {"pointer"}, fn == F::kAmScanCost ? "float" : "int", name,
        false});
    am.purpose[property] = name;
  }
  project.access_methods.push_back(std::move(am));
  return server->RunRegistrationScript(
      BladeSmith::GenerateRegistrationSql(project));
}

// ------------------------------------------------------------- the stack --

Status BuildIndexStack(MiCallContext& ctx, MiAmTableDesc* desc,
                       IndexLayout layout, uint64_t nodes_per_lo,
                       const std::string& path) {
  auto stack = std::make_shared<IndexStack>();
  if (layout == IndexLayout::kExternalFile) {
    stack->path = path;
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
    auto store_or = ExternalFileNodeStore::Open(path);
    if (!store_or.ok()) return store_or.status();
    stack->base = std::move(store_or).value();
  } else {
    Sbspace* sbspace = ctx.server->FindSbspace(desc->index->space);
    if (sbspace == nullptr) {
      return Status::NotFound("sbspace '" + desc->index->space + "'");
    }
    if (layout == IndexLayout::kSingleLo) {
      auto store_or = SingleLoNodeStore::Open(sbspace, LoHandle{});
      if (!store_or.ok()) return store_or.status();
      stack->base = std::move(store_or).value();
    } else {
      stack->base = std::make_unique<ClusteredLoNodeStore>(
          sbspace, layout == IndexLayout::kLoPerNode ? 1 : nodes_per_lo);
    }
  }
  // The cache reports to the server's trace ("cache" class), heat tracker
  // (under the index name, so sys_hot_nodes joins sys_index_stats) and,
  // when observability is on, its cache.* metrics.
  Server* server = ctx.server;
  stack->cache =
      std::make_unique<NodeCache>(stack->base.get(), kIndexCacheFrames);
  stack->cache->set_trace(&server->trace());
  stack->cache->set_heat(&server->heat_tracker(), desc->index->name);
  if (server->observability_enabled()) {
    stack->cache->set_metrics(&server->metrics());
  }
  if (layout == IndexLayout::kExternalFile) {
    // §5.3: with an OS file the DataBlade must provide all recovery itself.
    auto wal_or = WalNodeStore::Open(stack->cache.get(), path + ".wal");
    if (!wal_or.ok()) return wal_or.status();
    stack->wal = std::move(wal_or).value();
    stack->wal->set_trace(&server->trace());
    if (server->observability_enabled()) {
      stack->wal->set_metrics(&server->metrics());
    }
  }
  *desc->am_state = std::move(stack);
  return Status::OK();
}

Status PutLoRecord(MiCallContext& ctx, MiAmTableDesc* desc) {
  const IndexStack* stack = StackOf(desc);
  std::vector<uint8_t> record(16);
  StoreU64(record.data(),
           static_cast<SingleLoNodeStore*>(stack->base.get())->handle().id);
  StoreU64(record.data() + 8, stack->anchor);
  return ctx.server->AmCatalogPut(desc->index->access_method,
                                  desc->index->name, std::move(record));
}

// ---------------------------------------------------------- the handles --

Status EndStatement(IndexHandle* handle) {
  Status status = Status::OK();
  if (handle->wrote) status = handle->stack->cache->Flush();
  if (handle->locking != nullptr) handle->locking->ReleaseSharedOnClose();
  return status;
}

Status DropIndexStorage(MiCallContext& ctx, MiAmTableDesc* desc,
                        Status status) {
  const IndexStack* stack = StackOf(desc);
  std::vector<LoHandle> los;
  if (auto* single = dynamic_cast<SingleLoNodeStore*>(stack->base.get())) {
    los.push_back(single->handle());
  } else if (auto* clustered =
                 dynamic_cast<ClusteredLoNodeStore*>(stack->base.get())) {
    los = clustered->cluster_handles();
  }
  const std::string path = stack->path;
  desc->am_state->reset();
  if (status.ok()) {
    Sbspace* sbspace = ctx.server->FindSbspace(desc->index->space);
    for (const LoHandle& lo : los) {
      if (sbspace != nullptr && lo.valid()) {
        Status drop = sbspace->DropLo(lo);
        if (status.ok()) status = drop;
      }
    }
    if (!path.empty()) {
      std::remove(path.c_str());
      std::remove((path + ".wal").c_str());
    }
  }
  Status forget = ctx.server->AmCatalogDelete(desc->index->access_method,
                                              desc->index->name);
  if (status.ok()) status = forget;
  return status;
}

AmUpdateFn DeleteThenInsert(AmModifyFn remove, AmModifyFn insert) {
  return [remove, insert](MiCallContext& ctx, MiAmTableDesc* desc,
                          const Row& oldrow, uint64_t oldrowid,
                          const Row& newrow, uint64_t newrowid) -> Status {
    GRTDB_RETURN_IF_ERROR(remove(ctx, desc, oldrow, oldrowid));
    return insert(ctx, desc, newrow, newrowid);
  };
}

// ----------------------------------------------------------- the stats --

IndexStatsBuilder::IndexStatsBuilder(MiAmTableDesc* desc, size_t max_entries)
    : max_entries_(max_entries) {
  report_.index = desc->index->name;
  report_.access_method = desc->index->access_method;
  report_.free_list = HandleOf<IndexHandle>(desc)->store->FreeListLength();
}

IndexLevelStats& IndexStatsBuilder::AddLevel(uint32_t level, uint64_t nodes,
                                             uint64_t entries) {
  report_.nodes += nodes;
  total_entries_ += entries;
  if (level == 0) report_.entries = entries;
  IndexLevelStats& out = report_.levels.emplace_back();
  out.level = level;
  out.nodes = nodes;
  out.entries = entries;
  if (nodes > 0 && max_entries_ > 0) {
    out.occupancy = static_cast<double>(entries) /
                    static_cast<double>(nodes * max_entries_);
  }
  return out;
}

void IndexStatsBuilder::Publish(Server* server) {
  if (report_.nodes > 0 && max_entries_ > 0) {
    report_.occupancy = static_cast<double>(total_entries_) /
                        static_cast<double>(report_.nodes * max_entries_);
  }
  server->ReportIndexStats(std::move(report_));
}

}  // namespace grtdb
