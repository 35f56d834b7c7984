#ifndef GRTDB_BLADES_GIST_BLADE_H_
#define GRTDB_BLADES_GIST_BLADE_H_

#include <functional>

#include "common/status.h"
#include "gist/gist.h"
#include "server/server.h"

namespace grtdb {

// The paper's conclusion (§7) proposes "a generic extendible tree-based
// access method" following Hellerstein et al. [HNP95] and Aoki [AOK98],
// possibly "as a DataBlade, using specially designed operator classes to
// extend it". This blade is that proposal, built: ONE set of purpose
// functions drives a generalized search tree whose behaviour comes
// entirely from the operator class. The class's SUPPORT list names, in
// order, the extension's primitives:
//   1: consistent   2: union   3: penalty   4: picksplit   5: compress
// exported by the extension's library as the Gist*Fn types below; its
// STRATEGIES list gives the query predicates (matched by position, as for
// the B-tree). Registering a new operator class = supporting a new data
// type, with zero purpose-function changes.
using GistConsistentFn = decltype(GistExtension::consistent);
using GistUnionFn = decltype(GistExtension::unite);
using GistPenaltyFn = decltype(GistExtension::penalty);
using GistPickSplitFn = decltype(GistExtension::pick_split);
// Compress: SQL value (column or query constant) -> GiST key bytes.
using GistCompressFn = std::function<StatusOr<GistKey>(const Value&)>;

Status RegisterGistBlade(Server* server);

// Extension 1: 1-D integer ranges. Registers the opaque type `intrange`
// ("[lo,hi]" text form), the strategy functions RangeOverlaps and
// RangeContains, the five extension primitives, and the operator class
// ir_opclass for gist_am.
Status RegisterIntRangeOpclass(Server* server);

// Extension 2: text with longest-common-prefix keys. Registers the
// strategy functions PrefixMatch and TextEquals plus px_opclass — a second
// data type through the same purpose functions.
Status RegisterPrefixOpclass(Server* server);

}  // namespace grtdb

#endif  // GRTDB_BLADES_GIST_BLADE_H_
