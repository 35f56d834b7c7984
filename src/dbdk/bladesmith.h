#ifndef GRTDB_DBDK_BLADESMITH_H_
#define GRTDB_DBDK_BLADESMITH_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace grtdb {

// ---------------------------------------------------------------------------
// The DataBlade Developer's Kit (paper §6.1): BladeSmith manages the
// definition of a DataBlade's objects and generates C skeletons, SQL
// registration/unregistration scripts, and installation metadata;
// BladeManager (dbdk/blade_manager.h) registers the result in a server.
// ---------------------------------------------------------------------------

// A field of an opaque type's internal structure.
struct BladeField {
  std::string name;
  std::string c_type;  // e.g. "mi_integer", "GRT_Timestamp_t"
};

// An opaque type defined in the project. BladeSmith generates the struct
// definition and the skeletons of all type support functions (§6.3: text
// input/output, binary send/receive, text-file import/export).
struct BladeOpaqueType {
  std::string name;        // SQL name, e.g. "grt_timeextent"
  std::string c_name;      // struct name, e.g. "GRT_TimeExtent_t"
  std::vector<BladeField> fields;
};

// A routine in the project: either a SQL-callable UDR (strategy/support
// function) or an access-method purpose function (registered with a
// `pointer` argument, never called from SQL).
struct BladeRoutine {
  std::string name;                    // SQL name
  std::vector<std::string> arg_types;  // SQL type names
  std::string return_type;             // SQL type name
  std::string symbol;                  // C symbol; empty = lowercased name
  bool not_variant = false;
};

// Orders am_* properties as the VII numbers its purpose functions
// (obs::PurposeFn, the Fig. 6 table), so a generated CREATE SECONDARY
// ACCESS_METHOD lists them in that order; other names sort after them.
struct PurposeOrder {
  bool operator()(const std::string& a, const std::string& b) const;
};

// A secondary access method: its purpose-function property map.
struct BladeAccessMethod {
  std::string name;
  char sptype = 'S';
  // am_create -> grt_create, ... (values must name project routines).
  std::map<std::string, std::string, PurposeOrder> purpose;
};

// An operator class (§4 Step 4) of a project's access method (its default
// opclass) or of one already registered: strategy and support functions
// in position order, each naming a project routine.
struct BladeOpclass {
  std::string name;
  std::string access_method;
  bool is_default = false;
  std::vector<std::string> strategies;
  std::vector<std::string> supports;
};

// A BladeSmith project — one per DataBlade (§6.1).
struct BladeProject {
  std::string name;     // e.g. "grtree"
  std::string library;  // e.g. "usr/functions/grtree.bld"
  std::vector<BladeOpaqueType> types;
  std::vector<BladeRoutine> routines;
  std::vector<BladeAccessMethod> access_methods;
  std::vector<BladeOpclass> opclasses;  // created after the access methods
};

// Generates the DataBlade source artifacts. The paper notes BladeSmith
// emits one header, one C source file, and the SQL scripts BladeManager
// runs; it generates full support-function skeletons for opaque types but
// only prototypes for purpose functions (§6.3 last paragraph) — this
// generator reproduces exactly that division of labour.
class BladeSmith {
 public:
  // The C header: opaque-type structs + prototypes of every routine.
  static std::string GenerateHeader(const BladeProject& project);

  // The C source: generated support-function bodies for opaque types
  // (text input/output, send/receive, import/export) and TODO-stub bodies
  // for every project routine.
  static std::string GenerateSource(const BladeProject& project);

  // objects.sql: CREATE FUNCTION for every routine, CREATE SECONDARY
  // ACCESS_METHOD, CREATE OPCLASS — in dependency order.
  static std::string GenerateRegistrationSql(const BladeProject& project);

  // remove.sql: the reverse, in reverse order.
  static std::string GenerateUnregistrationSql(const BladeProject& project);

  // Writes <name>.h, <name>.c, <name>_objects.sql, <name>_remove.sql into
  // `directory`.
  static Status GenerateAll(const BladeProject& project,
                            const std::string& directory);

  // Validates internal consistency: purpose properties name project
  // routines, strategy/support functions exist, types referenced by
  // routines are project types or built-ins.
  static Status Validate(const BladeProject& project);
};

}  // namespace grtdb

#endif  // GRTDB_DBDK_BLADESMITH_H_
