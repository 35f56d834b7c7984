#ifndef GRTDB_SERVER_CATALOG_H_
#define GRTDB_SERVER_CATALOG_H_

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/query_profile.h"
#include "server/table.h"
#include "server/vii.h"

namespace grtdb {

// SYSAMS row: a secondary access method created with CREATE SECONDARY
// ACCESS_METHOD — purpose-function names as registered plus the resolved
// hook table.
struct AccessMethodDef {
  std::string name;
  char sptype = 'S';  // 'S': index lives in an sbspace (paper §4 Step 3)
  // The name each purpose call is recorded under, indexed by obs::PurposeFn:
  // the registered function (am_create -> grt_create, ...), or the generic
  // name where the access method registers none.
  std::array<std::string, obs::kPurposeFnCount> purpose_names;
  PurposeFunctions hooks;
  std::string default_opclass;
};

// A row of SYSOPCLASSES.
struct OpClassDef {
  std::string name;
  std::string access_method;
  std::vector<std::string> strategies;
  std::vector<std::string> supports;
};

// A row of SYSINDICES (+ SYSFRAGMENTS): one virtual index instance.
struct IndexDef {
  std::string name;
  std::string table;
  std::string access_method;
  std::string space;  // sbspace name from CREATE INDEX ... IN <space>
  std::vector<std::string> columns;
  std::vector<std::string> opclasses;  // parallel to columns
  std::vector<int> key_columns;        // resolved column numbers
  std::vector<TypeDesc> key_types;
  // The access method's per-index state (its store stack and node cache),
  // built by am_create and shared by every statement that opens the index.
  // Purpose functions reach it through MiAmTableDesc::am_state; it dies
  // with this entry, or earlier when am_drop releases it.
  std::shared_ptr<void> am_state;
};

// The system catalog: tables plus the SYSAMS / SYSOPCLASSES / SYSINDICES
// registries the CREATE statements populate.
class Catalog {
 public:
  Catalog() = default;

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  Status AddTable(std::unique_ptr<Table> table);
  Table* FindTable(const std::string& name);
  Status DropTable(const std::string& name);
  std::vector<const Table*> AllTables() const;

  Status AddAccessMethod(AccessMethodDef am);
  AccessMethodDef* FindAccessMethod(const std::string& name);
  Status DropAccessMethod(const std::string& name);
  std::vector<const AccessMethodDef*> AllAccessMethods() const;

  Status AddOpClass(OpClassDef opclass);
  const OpClassDef* FindOpClass(const std::string& name) const;
  Status DropOpClass(const std::string& name);
  std::vector<const OpClassDef*> OpClassesOfAccessMethod(
      const std::string& am) const;
  std::vector<const OpClassDef*> AllOpClasses() const;

  Status AddIndex(IndexDef index);
  IndexDef* FindIndex(const std::string& name);
  Status DropIndex(const std::string& name);
  std::vector<IndexDef*> IndexesOnTable(const std::string& table);
  std::vector<const IndexDef*> AllIndexes() const;
  // Drops every index's am_state while the storage it writes into is
  // still alive (the server calls this first on shutdown).
  void ReleaseIndexStates();

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;     // lower-case key
  std::map<std::string, AccessMethodDef> access_methods_;    // lower-case key
  std::map<std::string, OpClassDef> opclasses_;              // lower-case key
  std::map<std::string, IndexDef> indices_;                  // lower-case key
};

}  // namespace grtdb

#endif  // GRTDB_SERVER_CATALOG_H_
