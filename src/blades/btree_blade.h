#ifndef GRTDB_BLADES_BTREE_BLADE_H_
#define GRTDB_BLADES_BTREE_BLADE_H_

#include "common/status.h"
#include "server/server.h"

namespace grtdb {

// A B+-tree secondary access method over integer/date columns, built the
// way the paper describes Informix's own B-tree (§4): the operator class
// declares five strategy functions whose *positions* carry the meaning
//   1: LessThan   2: LessThanOrEqual   3: Equal
//   4: GreaterThanOrEqual   5: GreaterThan
// and one support function, compare(), which the access method resolves
// and invokes *dynamically*. Registering a substitute compare() (and
// matching strategy UDRs) under a new operator class re-orders the index —
// the paper's "0, -1, 1, -2, 2" example. RegisterAbsOpclass() installs
// exactly that ordering (by absolute value, negatives first on ties).
Status RegisterBtreeBlade(Server* server);

// Registers the alternative operator class bt_abs_opclass (strategies
// AbsLessThan .. AbsGreaterThan, support Abscompare) for an already
// registered btree_am — no purpose-function changes required, as §4
// promises.
Status RegisterAbsOpclass(Server* server);

}  // namespace grtdb

#endif  // GRTDB_BLADES_BTREE_BLADE_H_
