#ifndef GRTDB_BLADES_INDEX_CACHE_H_
#define GRTDB_BLADES_INDEX_CACHE_H_

#include <memory>

#include "server/catalog.h"
#include "server/server.h"
#include "storage/node_cache.h"

namespace grtdb {

// Frames in each GR-tree and R*-tree index's node cache: the size of the
// sbspace buffer pool, so an index the pool holds also fits its cache.
// Frames are allocated on first use, so a small index pays only for the
// nodes it has.
inline constexpr size_t kIndexCacheFrames = 512;

// The one node cache of `index`, directly above `inner`, reporting to the
// server's trace ("cache" class), heat tracker (under the index name, so
// sys_hot_nodes joins sys_index_stats) and, when observability is on, its
// cache.* metrics.
inline std::unique_ptr<NodeCache> MakeIndexCache(Server* server,
                                                 NodeStore* inner,
                                                 const IndexDef* index) {
  auto cache = std::make_unique<NodeCache>(inner, kIndexCacheFrames);
  cache->set_trace(&server->trace());
  cache->set_heat(&server->heat_tracker(), index->name);
  if (server->observability_enabled()) cache->set_metrics(&server->metrics());
  return cache;
}

}  // namespace grtdb

#endif  // GRTDB_BLADES_INDEX_CACHE_H_
