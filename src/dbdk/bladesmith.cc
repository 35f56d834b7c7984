#include "dbdk/bladesmith.h"

#include <filesystem>
#include <fstream>
#include <set>

#include "common/strings.h"
#include "obs/query_profile.h"

namespace grtdb {

namespace {

std::string SymbolOf(const BladeRoutine& routine) {
  return routine.symbol.empty() ? ToLower(routine.name) : routine.symbol;
}

bool IsBuiltinType(const std::string& name) {
  static const char* kBuiltins[] = {"int",     "integer", "float",
                                    "text",    "varchar", "lvarchar",
                                    "date",    "boolean", "pointer"};
  for (const char* builtin : kBuiltins) {
    if (EqualsIgnoreCase(name, builtin)) return true;
  }
  return false;
}

std::string Guard(const BladeProject& project) {
  return ToUpper(project.name) + "_BLADE_H_";
}

size_t PurposeRank(const std::string& property) {
  size_t fn = 0;
  while (fn < obs::kPurposeFnCount &&
         property != obs::PurposeFnName(static_cast<obs::PurposeFn>(fn))) {
    ++fn;
  }
  return fn;
}

}  // namespace

bool PurposeOrder::operator()(const std::string& a,
                              const std::string& b) const {
  const size_t rank_a = PurposeRank(a);
  const size_t rank_b = PurposeRank(b);
  return rank_a != rank_b ? rank_a < rank_b : a < b;
}

Status BladeSmith::Validate(const BladeProject& project) {
  if (project.name.empty() || project.library.empty()) {
    return Status::InvalidArgument("project needs a name and a library");
  }
  std::set<std::string> routine_names;
  std::set<std::string> type_names;
  for (const BladeOpaqueType& type : project.types) {
    if (!type_names.insert(ToLower(type.name)).second) {
      return Status::InvalidArgument("duplicate type '" + type.name + "'");
    }
    if (type.fields.empty()) {
      return Status::InvalidArgument("opaque type '" + type.name +
                                     "' has no fields");
    }
  }
  for (const BladeRoutine& routine : project.routines) {
    routine_names.insert(ToLower(routine.name));
    for (const std::string& arg : routine.arg_types) {
      if (!IsBuiltinType(arg) && type_names.count(ToLower(arg)) == 0) {
        return Status::InvalidArgument("routine '" + routine.name +
                                       "' uses unknown type '" + arg + "'");
      }
    }
    if (!IsBuiltinType(routine.return_type) &&
        type_names.count(ToLower(routine.return_type)) == 0) {
      return Status::InvalidArgument("routine '" + routine.name +
                                     "' returns unknown type '" +
                                     routine.return_type + "'");
    }
  }
  for (const BladeAccessMethod& am : project.access_methods) {
    if (am.purpose.count("am_getnext") == 0) {
      return Status::InvalidArgument("access method '" + am.name +
                                     "' lacks the mandatory am_getnext");
    }
    for (const auto& [property, routine] : am.purpose) {
      if (routine_names.count(ToLower(routine)) == 0) {
        return Status::InvalidArgument(property + " = '" + routine +
                                       "' names no project routine");
      }
    }
  }
  for (const BladeOpclass& opclass : project.opclasses) {
    for (const std::string& strategy : opclass.strategies) {
      if (routine_names.count(ToLower(strategy)) == 0) {
        return Status::InvalidArgument("strategy '" + strategy +
                                       "' names no project routine");
      }
    }
    for (const std::string& support : opclass.supports) {
      if (routine_names.count(ToLower(support)) == 0) {
        return Status::InvalidArgument("support '" + support +
                                       "' names no project routine");
      }
    }
  }
  return Status::OK();
}

std::string BladeSmith::GenerateHeader(const BladeProject& project) {
  std::string out;
  out += "/* Generated by BladeSmith for DataBlade '" + project.name +
         "'. DO NOT EDIT: regenerating overwrites this file (see paper "
         "section 6.1). */\n";
  out += "#ifndef " + Guard(project) + "\n#define " + Guard(project) + "\n\n";
  out += "#include \"mi.h\" /* DataBlade API */\n\n";
  for (const BladeOpaqueType& type : project.types) {
    out += "/* Internal structure of the opaque type " + type.name +
           ". */\ntypedef struct\n{\n";
    for (const BladeField& field : type.fields) {
      out += "    " + field.c_type + " " + field.name + ";\n";
    }
    out += "} " + type.c_name + ";\n\n";
  }
  for (const BladeRoutine& routine : project.routines) {
    out += "mi_status " + SymbolOf(routine) + "(/* ";
    for (size_t i = 0; i < routine.arg_types.size(); ++i) {
      if (i != 0) out += ", ";
      out += routine.arg_types[i];
    }
    out += " -> " + routine.return_type + " */);\n";
  }
  out += "\n#endif /* " + Guard(project) + " */\n";
  return out;
}

std::string BladeSmith::GenerateSource(const BladeProject& project) {
  std::string out;
  out += "/* Generated by BladeSmith for DataBlade '" + project.name +
         "'. Flesh out the routine bodies; BladeSmith merges regenerated "
         "code with your edits. */\n";
  out += "#include \"" + project.name + ".h\"\n\n";

  // Full support-function bodies for opaque types (the part BladeSmith
  // actually generates, §6.3) — one set per type, with the text-file
  // import/export pair delegating to text input/output (the code
  // repetition the paper grumbles about).
  for (const BladeOpaqueType& type : project.types) {
    const std::string& c = type.c_name;
    out += "/* ---- type support functions for " + type.name + " ---- */\n";
    out += c + "* " + ToLower(type.name) +
           "_input(mi_lvarchar* text)\n{\n    " + c +
           "* value = (" + c + "*)mi_alloc(sizeof(" + c + "));\n";
    for (const BladeField& field : type.fields) {
      out += "    /* parse field '" + field.name + "' (" + field.c_type +
             ") from text */\n";
    }
    out += "    return value;\n}\n\n";
    out += "mi_lvarchar* " + ToLower(type.name) + "_output(" + c +
           "* value)\n{\n    /* render all " +
           std::to_string(type.fields.size()) +
           " fields */\n    return mi_string_to_lvarchar(\"...\");\n}\n\n";
    out += "mi_sendrecv* " + ToLower(type.name) + "_send(" + c +
           "* value)\n{\n    /* binary wire form */\n    return 0;\n}\n\n";
    out += c + "* " + ToLower(type.name) +
           "_receive(mi_sendrecv* wire)\n{\n    return 0;\n}\n\n";
    out += c + "* " + ToLower(type.name) +
           "_import(mi_impexp* text)\n{\n    return " + ToLower(type.name) +
           "_input((mi_lvarchar*)text); /* same format as text input */\n"
           "}\n\n";
    out += "mi_impexp* " + ToLower(type.name) + "_export(" + c +
           "* value)\n{\n    return (mi_impexp*)" + ToLower(type.name) +
           "_output(value);\n}\n\n";
  }

  // Prototypes-only stubs for every routine: BladeSmith "provides virtually
  // no support for developing access method DataBlades" (§6.3) — the
  // bodies are the developer's job.
  for (const BladeRoutine& routine : project.routines) {
    out += "mi_status " + SymbolOf(routine) + "()\n{\n    /* TODO(" +
           project.name + "): implement " + routine.name + "(";
    for (size_t i = 0; i < routine.arg_types.size(); ++i) {
      if (i != 0) out += ", ";
      out += routine.arg_types[i];
    }
    out += ") returning " + routine.return_type +
           " */\n    return MI_ERROR;\n}\n\n";
  }
  return out;
}

std::string BladeSmith::GenerateRegistrationSql(const BladeProject& project) {
  std::string out;
  out += "-- objects.sql generated by BladeSmith for DataBlade '" +
         project.name + "'\n";
  for (const BladeRoutine& routine : project.routines) {
    out += "CREATE FUNCTION " + routine.name + "(" +
           Join(routine.arg_types, ", ") + ") RETURNING " +
           routine.return_type + "\n  EXTERNAL NAME '" + project.library +
           "(" + SymbolOf(routine) + ")' LANGUAGE c";
    if (routine.not_variant) out += " NOT VARIANT";
    out += ";\n";
  }
  for (const BladeAccessMethod& am : project.access_methods) {
    out += "CREATE SECONDARY ACCESS_METHOD " + am.name + " (\n";
    for (const auto& [property, routine] : am.purpose) {
      out += "  " + property + " = " + routine + ",\n";
    }
    out += std::string("  am_sptype = '") + am.sptype + "'\n);\n";
  }
  for (const BladeOpclass& opclass : project.opclasses) {
    out += std::string("CREATE ") + (opclass.is_default ? "DEFAULT " : "") +
           "OPCLASS " + opclass.name + " FOR " + opclass.access_method +
           "\n  STRATEGIES(" + Join(opclass.strategies, ", ") +
           ")\n  SUPPORT(" + Join(opclass.supports, ", ") + ");\n";
  }
  return out;
}

std::string BladeSmith::GenerateUnregistrationSql(
    const BladeProject& project) {
  std::string out;
  out += "-- remove.sql generated by BladeSmith for DataBlade '" +
         project.name + "'\n";
  for (auto it = project.opclasses.rbegin(); it != project.opclasses.rend();
       ++it) {
    out += "DROP OPCLASS " + it->name + ";\n";
  }
  for (auto it = project.access_methods.rbegin();
       it != project.access_methods.rend(); ++it) {
    out += "DROP SECONDARY ACCESS_METHOD " + it->name + ";\n";
  }
  for (auto it = project.routines.rbegin(); it != project.routines.rend();
       ++it) {
    out += "DROP FUNCTION " + it->name + ";\n";
  }
  return out;
}

Status BladeSmith::GenerateAll(const BladeProject& project,
                               const std::string& directory) {
  GRTDB_RETURN_IF_ERROR(Validate(project));
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::IOError("cannot create '" + directory +
                           "': " + ec.message());
  }
  struct FileSpec {
    std::string name;
    std::string contents;
  };
  const FileSpec files[] = {
      {project.name + ".h", GenerateHeader(project)},
      {project.name + ".c", GenerateSource(project)},
      {project.name + "_objects.sql", GenerateRegistrationSql(project)},
      {project.name + "_remove.sql", GenerateUnregistrationSql(project)},
  };
  for (const FileSpec& file : files) {
    std::ofstream out(std::filesystem::path(directory) / file.name);
    if (!out) {
      return Status::IOError("cannot write '" + file.name + "'");
    }
    out << file.contents;
  }
  return Status::OK();
}

}  // namespace grtdb
