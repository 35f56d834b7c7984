#include "dbdk/blade_manager.h"

#include "common/strings.h"

namespace grtdb {

namespace {

std::string SymbolOf(const BladeRoutine& routine) {
  return routine.symbol.empty() ? ToLower(routine.name) : routine.symbol;
}

}  // namespace

Status BladeManager::Register(Server* server, const BladeProject& project,
                              const TypeSupport& type_support) {
  GRTDB_RETURN_IF_ERROR(BladeSmith::Validate(project));

  // The shared library must export every referenced symbol — the check a
  // real dynamic loader performs at CREATE FUNCTION time; doing it up
  // front gives one coherent error instead of a half-registered blade.
  BladeLibrary* library = server->blade_libraries().Load(project.library);
  for (const BladeRoutine& routine : project.routines) {
    if (library->Lookup(SymbolOf(routine)) == nullptr) {
      return Status::NotFound("blade library '" + project.library +
                              "' does not export symbol '" +
                              SymbolOf(routine) + "' required by " +
                              routine.name);
    }
  }

  // Opaque types first: CREATE FUNCTION statements reference them.
  for (const BladeOpaqueType& type : project.types) {
    auto it = type_support.find(ToLower(type.name));
    if (it == type_support.end()) {
      // Case-sensitive fallback.
      it = type_support.find(type.name);
    }
    if (it == type_support.end()) {
      return Status::InvalidArgument(
          "no type support functions supplied for opaque type '" +
          type.name + "'");
    }
    OpaqueType registered = it->second;
    registered.name = type.name;
    uint32_t id = 0;
    GRTDB_RETURN_IF_ERROR(
        server->types().RegisterOpaque(std::move(registered), &id));
  }

  Status status = server->RunRegistrationScript(
      BladeSmith::GenerateRegistrationSql(project));
  if (!status.ok()) {
    // Roll the type registrations back so a failed registration leaves no
    // residue (BladeManager re-registration during testing relies on it).
    for (const BladeOpaqueType& type : project.types) {
      Status undo = server->types().Unregister(type.name);
      (void)undo;
    }
  }
  return status;
}

Status BladeManager::Unregister(Server* server, const BladeProject& project) {
  GRTDB_RETURN_IF_ERROR(server->RunRegistrationScript(
      BladeSmith::GenerateUnregistrationSql(project)));
  for (const BladeOpaqueType& type : project.types) {
    GRTDB_RETURN_IF_ERROR(server->types().Unregister(type.name));
  }
  return Status::OK();
}

bool BladeManager::IsRegistered(Server* server, const BladeProject& project) {
  for (const BladeOpaqueType& type : project.types) {
    if (server->types().FindOpaqueByName(type.name) == nullptr) return false;
  }
  for (const BladeRoutine& routine : project.routines) {
    if (server->udrs().FindAny(routine.name) == nullptr) return false;
  }
  for (const BladeAccessMethod& am : project.access_methods) {
    if (server->catalog().FindAccessMethod(am.name) == nullptr) return false;
  }
  for (const BladeOpclass& opclass : project.opclasses) {
    if (server->catalog().FindOpClass(opclass.name) == nullptr) return false;
  }
  return true;
}

}  // namespace grtdb
