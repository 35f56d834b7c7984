#include "server/catalog.h"

#include "common/strings.h"

namespace grtdb {

Status Catalog::AddTable(std::unique_ptr<Table> table) {
  const std::string key = ToLower(table->name());
  if (tables_.count(key) != 0) {
    return Status::AlreadyExists("table '" + table->name() + "'");
  }
  tables_[key] = std::move(table);
  return Status::OK();
}

Table* Catalog::FindTable(const std::string& name) {
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

Status Catalog::DropTable(const std::string& name) {
  if (tables_.erase(ToLower(name)) == 0) {
    return Status::NotFound("table '" + name + "'");
  }
  return Status::OK();
}

std::vector<const Table*> Catalog::AllTables() const {
  std::vector<const Table*> out;
  out.reserve(tables_.size());
  for (const auto& [key, table] : tables_) out.push_back(table.get());
  return out;
}

std::vector<const AccessMethodDef*> Catalog::AllAccessMethods() const {
  std::vector<const AccessMethodDef*> out;
  out.reserve(access_methods_.size());
  for (const auto& [key, am] : access_methods_) out.push_back(&am);
  return out;
}

std::vector<const OpClassDef*> Catalog::AllOpClasses() const {
  std::vector<const OpClassDef*> out;
  out.reserve(opclasses_.size());
  for (const auto& [key, opclass] : opclasses_) out.push_back(&opclass);
  return out;
}

Status Catalog::AddAccessMethod(AccessMethodDef am) {
  const std::string key = ToLower(am.name);
  if (access_methods_.count(key) != 0) {
    return Status::AlreadyExists("access method '" + am.name + "'");
  }
  access_methods_[key] = std::move(am);
  return Status::OK();
}

AccessMethodDef* Catalog::FindAccessMethod(const std::string& name) {
  auto it = access_methods_.find(ToLower(name));
  return it == access_methods_.end() ? nullptr : &it->second;
}

Status Catalog::DropAccessMethod(const std::string& name) {
  if (access_methods_.erase(ToLower(name)) == 0) {
    return Status::NotFound("access method '" + name + "'");
  }
  return Status::OK();
}

Status Catalog::DropOpClass(const std::string& name) {
  if (opclasses_.erase(ToLower(name)) == 0) {
    return Status::NotFound("operator class '" + name + "'");
  }
  return Status::OK();
}

std::vector<const OpClassDef*> Catalog::OpClassesOfAccessMethod(
    const std::string& am) const {
  std::vector<const OpClassDef*> out;
  for (const auto& [key, opclass] : opclasses_) {
    if (EqualsIgnoreCase(opclass.access_method, am)) out.push_back(&opclass);
  }
  return out;
}

Status Catalog::AddOpClass(OpClassDef opclass) {
  const std::string key = ToLower(opclass.name);
  if (opclasses_.count(key) != 0) {
    return Status::AlreadyExists("operator class '" + opclass.name + "'");
  }
  opclasses_[key] = std::move(opclass);
  return Status::OK();
}

const OpClassDef* Catalog::FindOpClass(const std::string& name) const {
  auto it = opclasses_.find(ToLower(name));
  return it == opclasses_.end() ? nullptr : &it->second;
}

Status Catalog::AddIndex(IndexDef index) {
  const std::string key = ToLower(index.name);
  if (indices_.count(key) != 0) {
    return Status::AlreadyExists("index '" + index.name + "'");
  }
  indices_[key] = std::move(index);
  return Status::OK();
}

IndexDef* Catalog::FindIndex(const std::string& name) {
  auto it = indices_.find(ToLower(name));
  return it == indices_.end() ? nullptr : &it->second;
}

Status Catalog::DropIndex(const std::string& name) {
  if (indices_.erase(ToLower(name)) == 0) {
    return Status::NotFound("index '" + name + "'");
  }
  return Status::OK();
}

std::vector<const IndexDef*> Catalog::AllIndexes() const {
  std::vector<const IndexDef*> out;
  out.reserve(indices_.size());
  for (const auto& [key, index] : indices_) out.push_back(&index);
  return out;
}

void Catalog::ReleaseIndexStates() {
  for (auto& [key, index] : indices_) index.am_state.reset();
}

std::vector<IndexDef*> Catalog::IndexesOnTable(const std::string& table) {
  std::vector<IndexDef*> out;
  for (auto& [key, index] : indices_) {
    if (EqualsIgnoreCase(index.table, table)) out.push_back(&index);
  }
  return out;
}

}  // namespace grtdb
