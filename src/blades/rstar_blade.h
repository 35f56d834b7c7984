#ifndef GRTDB_BLADES_RSTAR_BLADE_H_
#define GRTDB_BLADES_RSTAR_BLADE_H_

#include "common/status.h"
#include "rstar/rect.h"
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
Status RegisterRStarBlade(Server* server);

// The substitute for UC/NOW; exceeds every ground timestamp the workloads
// use.
inline constexpr int64_t kRStarMaxTimestamp = 200000;  // ~ year 2517

// The transform itself, exposed for tests and benches.
Rect TransformExtent(const TimeExtent& extent, int64_t max_timestamp);

}  // namespace grtdb

#endif  // GRTDB_BLADES_RSTAR_BLADE_H_
