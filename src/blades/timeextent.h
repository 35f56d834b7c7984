#ifndef GRTDB_BLADES_TIMEEXTENT_H_
#define GRTDB_BLADES_TIMEEXTENT_H_

#include <string>

#include "common/status.h"
#include "dbdk/bladesmith.h"
#include "server/server.h"
#include "temporal/extent.h"

namespace grtdb {

// Path under which the GR-tree blade's shared library is registered; the
// paper's CREATE FUNCTION examples use exactly this name.
inline constexpr char kGrtBladeLibrary[] = "usr/functions/grtree.bld";

// SQL name of the opaque type (GRT_TimeExtent_t in the paper's C code).
inline constexpr char kTimeExtentTypeName[] = "grt_timeextent";

// Registers the opaque type grt_timeextent with its type support functions
// (text input/output with UC/NOW handling and the §2 constraint checks,
// binary send/receive, text-file import/export) and registers the four
// bitemporal strategy functions Overlaps/Equal/Contains/ContainedIn as
// UDRs backed by symbols in kGrtBladeLibrary. Idempotent.
Status RegisterTimeExtentType(Server* server);

// The opaque-type id assigned to grt_timeextent (0 if not registered).
uint32_t TimeExtentTypeId(Server* server);

// am_create's key check for the blades that index grt_timeextent: exactly
// one column, of that type.
Status CheckExtentKey(MiCallContext& ctx, const MiAmTableDesc* desc);

// The registration project of an access method `am_name` over
// grt_timeextent: its default operator class <prefix>_opclass, with the
// four bitemporal strategies and the three support functions
// RegisterTimeExtentType registers.
BladeProject ExtentProject(const std::string& am_name,
                           const std::string& prefix);

// Converts between the SQL Value and the C struct behind the opaque type.
Status ExtentFromValue(const Value& value, TimeExtent* out);
Value ValueFromExtent(Server* server, const TimeExtent& extent);

// The current time a DataBlade routine must use (paper §5.4): the
// statement time, or — in per-transaction mode — the value captured in
// named memory the first time the transaction touched the blade (a
// transaction-end callback frees it).
int64_t BladeCurrentTime(MiCallContext& ctx);

}  // namespace grtdb

#endif  // GRTDB_BLADES_TIMEEXTENT_H_
