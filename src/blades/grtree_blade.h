#ifndef GRTDB_BLADES_GRTREE_BLADE_H_
#define GRTDB_BLADES_GRTREE_BLADE_H_

#include <string>

#include "blades/access_method.h"
#include "common/status.h"
#include "core/grtree.h"
#include "server/server.h"

namespace grtdb {

// Build-time options of the GR-tree DataBlade. The defaults reproduce the
// paper's prototype decisions: hard-coded internal functions (§5.2), the
// whole index in a single smart large object (§5.3), per-statement current
// time unless the session chose SET TIME MODE TRANSACTION (§5.4), and
// scan restart only on condensation (§5.5). The alternatives exist so the
// benches can measure each design discussion.
struct GRTreeBladeOptions {
  // Registered access-method/opclass/purpose-function naming. Changing the
  // prefix lets several blade variants coexist in one server.
  std::string am_name = "grtree_am";
  std::string prefix = "grt";

  GRTree::Options tree;

  // §5.2: false = strategy/support functions are hard-coded inside
  // am_getnext (the paper's choice); true = am_getnext dynamically resolves
  // and invokes the registered strategy UDRs on every candidate entry.
  bool dynamic_dispatch = false;

  // §5.3 storage options. The sbspace layouts get Informix's automatic
  // LO-granularity two-phase locking; kExternalFile gets none (as §5.3
  // laments) and its own WAL instead.
  using Storage = IndexLayout;
  Storage storage = Storage::kSingleLo;
  uint64_t nodes_per_lo = 16;          // kLoPerSubtree cluster size
  std::string external_dir = "/tmp";   // kExternalFile directory
};

// Installs the GR-tree DataBlade into `server`: exports the purpose
// functions and support routines into the blade library, registers the
// grt_timeextent opaque type if needed, and runs the registration SQL
// (CREATE FUNCTION / CREATE SECONDARY ACCESS_METHOD / CREATE OPCLASS) —
// the job BladeManager performs for a real DataBlade.
Status RegisterGRTreeBlade(Server* server,
                           const GRTreeBladeOptions& options = {});

}  // namespace grtdb

#endif  // GRTDB_BLADES_GRTREE_BLADE_H_
