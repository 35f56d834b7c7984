#ifndef GRTDB_BLADES_RSTAR_BLADE_H_
#define GRTDB_BLADES_RSTAR_BLADE_H_

#include <string>

#include "common/status.h"
#include "rstar/rstar_tree.h"
#include "server/server.h"
#include "temporal/extent.h"

namespace grtdb {

// The comparison baseline: an R*-tree access method over the same
// grt_timeextent column using the maximum-timestamp transform — UC and NOW
// are replaced with a fixed maximum timestamp before indexing, which is how
// a plain spatial index must cope with growing bitemporal regions. Index
// hits are verified against the exact geometry of the base tuples (the
// "check using the exact geometry" step of paper §3), so answers stay
// correct at the price of false index positives and huge dead space —
// precisely what the GR-tree removes (bench T5).
struct RStarBladeOptions {
  std::string am_name = "rstar_am";
  std::string prefix = "rst";
  RStarTree::Options tree;
  // The substitute for UC/NOW; must exceed every ground timestamp in the
  // workload.
  int64_t max_timestamp = 200000;  // ~ year 2517
};

Status RegisterRStarBlade(Server* server,
                          const RStarBladeOptions& options = {});

// The transform itself, exposed for tests and benches.
Rect TransformExtent(const TimeExtent& extent, int64_t max_timestamp);

}  // namespace grtdb

#endif  // GRTDB_BLADES_RSTAR_BLADE_H_
