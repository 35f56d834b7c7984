#include "dbdk/blade_manager.h"
#include "dbdk/bladesmith.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "blade/mi_memory.h"
#include "server/server.h"
#include "sql/parser.h"

namespace grtdb {
namespace {

// A small but complete project: one opaque type, one strategy UDR, one
// support UDR, and a (toy) access method with the mandatory purpose
// functions — enough to exercise every generator path.
BladeProject DemoProject() {
  BladeProject project;
  project.name = "interval";
  project.library = "usr/functions/interval.bld";
  project.types.push_back(BladeOpaqueType{
      "iv_interval",
      "IV_Interval_t",
      {{"begin", "mi_integer"}, {"end", "mi_integer"}}});
  project.routines.push_back(
      BladeRoutine{"IvOverlaps",
                   {"iv_interval", "iv_interval"},
                   "boolean",
                   "iv_overlaps",
                   /*not_variant=*/true});
  project.routines.push_back(BladeRoutine{
      "iv_length", {"iv_interval"}, "float", "iv_length", false});
  for (const char* purpose :
       {"iv_open", "iv_close", "iv_beginscan", "iv_endscan", "iv_getnext",
        "iv_insert", "iv_delete"}) {
    project.routines.push_back(
        BladeRoutine{purpose, {"pointer"}, "int", purpose, false});
  }
  BladeAccessMethod am;
  am.name = "interval_am";
  am.purpose = {{"am_open", "iv_open"},           {"am_close", "iv_close"},
                {"am_beginscan", "iv_beginscan"}, {"am_endscan", "iv_endscan"},
                {"am_getnext", "iv_getnext"},     {"am_insert", "iv_insert"},
                {"am_delete", "iv_delete"}};
  project.access_methods.push_back(am);
  project.opclasses.push_back(
      BladeOpclass{"iv_opclass", "interval_am", true, {"IvOverlaps"},
                   {"iv_length"}});
  return project;
}

// Exports a stub for every project routine into the server's library.
void ExportStubs(Server* server, const BladeProject& project) {
  BladeLibrary* library = server->blade_libraries().Load(project.library);
  library->Export("iv_overlaps",
                  std::any(UdrFunction(
                      [](MiCallContext&,
                         std::span<const Value>) -> StatusOr<Value> {
                        return Value::Boolean(true);
                      })));
  library->Export("iv_length",
                  std::any(UdrFunction(
                      [](MiCallContext&,
                         std::span<const Value>) -> StatusOr<Value> {
                        return Value::Float(1.0);
                      })));
  library->Export("iv_open", std::any(AmSimpleFn(
                                 [](MiCallContext&, MiAmTableDesc*) {
                                   return Status::OK();
                                 })));
  library->Export("iv_close", std::any(AmSimpleFn(
                                  [](MiCallContext&, MiAmTableDesc*) {
                                    return Status::OK();
                                  })));
  library->Export("iv_beginscan",
                  std::any(AmScanFn([](MiCallContext&, MiAmScanDesc*) {
                    return Status::OK();
                  })));
  library->Export("iv_endscan",
                  std::any(AmScanFn([](MiCallContext&, MiAmScanDesc*) {
                    return Status::OK();
                  })));
  library->Export("iv_getnext",
                  std::any(AmGetNextFn([](MiCallContext&, MiAmScanDesc*,
                                          bool* has, uint64_t*) {
                    *has = false;
                    return Status::OK();
                  })));
  library->Export("iv_insert",
                  std::any(AmModifyFn([](MiCallContext&, MiAmTableDesc*,
                                         const Row&, uint64_t) {
                    return Status::OK();
                  })));
  library->Export("iv_delete",
                  std::any(AmModifyFn([](MiCallContext&, MiAmTableDesc*,
                                         const Row&, uint64_t) {
                    return Status::OK();
                  })));
}

BladeManager::TypeSupport DemoTypeSupport() {
  OpaqueType type;
  type.input = [](const std::string& text, std::vector<uint8_t>* out) {
    out->assign(text.begin(), text.end());
    return Status::OK();
  };
  type.output = [](const std::vector<uint8_t>& bytes, std::string* out) {
    out->assign(bytes.begin(), bytes.end());
    return Status::OK();
  };
  return {{"iv_interval", type}};
}

TEST(BladeSmith, ValidateCatchesBrokenProjects) {
  BladeProject project = DemoProject();
  EXPECT_TRUE(BladeSmith::Validate(project).ok());

  BladeProject no_getnext = DemoProject();
  no_getnext.access_methods[0].purpose.erase("am_getnext");
  EXPECT_TRUE(BladeSmith::Validate(no_getnext).IsInvalidArgument());

  BladeProject bad_type = DemoProject();
  bad_type.routines[0].arg_types[0] = "no_such_type";
  EXPECT_TRUE(BladeSmith::Validate(bad_type).IsInvalidArgument());

  BladeProject bad_purpose = DemoProject();
  bad_purpose.access_methods[0].purpose["am_open"] = "missing_routine";
  EXPECT_TRUE(BladeSmith::Validate(bad_purpose).IsInvalidArgument());

  BladeProject empty_type = DemoProject();
  empty_type.types[0].fields.clear();
  EXPECT_TRUE(BladeSmith::Validate(empty_type).IsInvalidArgument());
}

TEST(BladeSmith, HeaderContainsStructAndPrototypes) {
  const std::string header = BladeSmith::GenerateHeader(DemoProject());
  EXPECT_NE(header.find("typedef struct"), std::string::npos);
  EXPECT_NE(header.find("IV_Interval_t"), std::string::npos);
  EXPECT_NE(header.find("mi_integer begin;"), std::string::npos);
  EXPECT_NE(header.find("iv_overlaps"), std::string::npos);
  EXPECT_NE(header.find("#ifndef INTERVAL_BLADE_H_"), std::string::npos);
}

TEST(BladeSmith, SourceGeneratesSupportFunctionsAndStubs) {
  const std::string source = BladeSmith::GenerateSource(DemoProject());
  // Full support-function set for the opaque type (§6.3)...
  for (const char* support : {"iv_interval_input", "iv_interval_output",
                              "iv_interval_send", "iv_interval_receive",
                              "iv_interval_import", "iv_interval_export"}) {
    EXPECT_NE(source.find(support), std::string::npos) << support;
  }
  // ...with import/export delegating to text input/output (the code
  // repetition the paper calls out).
  EXPECT_NE(source.find("same format as text input"), std::string::npos);
  // ...but only TODO stubs for the access-method routines.
  EXPECT_NE(source.find("TODO(interval): implement iv_getnext"),
            std::string::npos);
}

TEST(BladeSmith, SqlScriptsParse) {
  const BladeProject project = DemoProject();
  std::vector<sql::Statement> statements;
  ASSERT_TRUE(sql::Parser::ParseScript(
                  BladeSmith::GenerateRegistrationSql(project), &statements)
                  .ok());
  // 9 functions + 1 access method + 1 opclass.
  EXPECT_EQ(statements.size(), 11u);
  ASSERT_TRUE(sql::Parser::ParseScript(
                  BladeSmith::GenerateUnregistrationSql(project),
                  &statements)
                  .ok());
  EXPECT_EQ(statements.size(), 11u);
}

TEST(BladeSmith, GenerateAllWritesFourFiles) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "grtdb_bladesmith_test")
          .string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(BladeSmith::GenerateAll(DemoProject(), dir).ok());
  for (const char* file :
       {"interval.h", "interval.c", "interval_objects.sql",
        "interval_remove.sql"}) {
    EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir) / file))
        << file;
  }
  std::filesystem::remove_all(dir);
}

TEST(BladeManager, RegisterUnregisterCycle) {
  Server server;
  const BladeProject project = DemoProject();
  ExportStubs(&server, project);
  // The paper: during testing a blade "has to be registered and
  // un-registered multiple times" — do three full cycles.
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(
        BladeManager::Register(&server, project, DemoTypeSupport()).ok())
        << "cycle " << cycle;
    EXPECT_TRUE(BladeManager::IsRegistered(&server, project));
    // The registered objects are live: the type parses, the strategy
    // function evaluates, the access method is in SYSAMS.
    ServerSession* session = server.CreateSession();
    ResultSet result;
    ASSERT_TRUE(server
                    .Execute(session,
                             "CREATE TABLE t" + std::to_string(cycle) +
                                 " (iv iv_interval)",
                             &result)
                    .ok());
    ASSERT_TRUE(server
                    .Execute(session,
                             "INSERT INTO t" + std::to_string(cycle) +
                                 " VALUES ('[1,5]')",
                             &result)
                    .ok());
    ASSERT_TRUE(server.CloseSession(session).ok());
    // Tables referencing the type must go before the type does.
    ASSERT_TRUE(server.catalog().DropTable("t" + std::to_string(cycle)).ok());
    ASSERT_TRUE(BladeManager::Unregister(&server, project).ok())
        << "cycle " << cycle;
    EXPECT_FALSE(BladeManager::IsRegistered(&server, project));
  }
}

TEST(BladeManager, RefusesWhenSymbolsMissing) {
  Server server;
  const BladeProject project = DemoProject();
  // No stubs exported: registration must fail with a precise message and
  // leave nothing behind.
  Status status = BladeManager::Register(&server, project, DemoTypeSupport());
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_NE(status.message().find("iv_overlaps"), std::string::npos);
  EXPECT_FALSE(BladeManager::IsRegistered(&server, project));
  EXPECT_EQ(server.types().FindOpaqueByName("iv_interval"), nullptr);
}

TEST(BladeManager, DropAccessMethodInUseIsRejected) {
  Server server;
  const BladeProject project = DemoProject();
  ExportStubs(&server, project);
  ASSERT_TRUE(
      BladeManager::Register(&server, project, DemoTypeSupport()).ok());
  ServerSession* session = server.CreateSession();
  ResultSet result;
  ASSERT_TRUE(
      server.Execute(session, "CREATE TABLE t (iv iv_interval)", &result)
          .ok());
  ASSERT_TRUE(server
                  .Execute(session,
                           "CREATE INDEX iv_idx ON t(iv) USING interval_am",
                           &result)
                  .ok());
  // Unregistering now must fail: the access method is in use.
  EXPECT_FALSE(BladeManager::Unregister(&server, project).ok());
  EXPECT_TRUE(BladeManager::IsRegistered(&server, project));
  ASSERT_TRUE(server.Execute(session, "DROP INDEX iv_idx", &result).ok());
  ASSERT_TRUE(server.catalog().DropTable("t").ok());
  EXPECT_TRUE(BladeManager::Unregister(&server, project).ok());
  ASSERT_TRUE(server.CloseSession(session).ok());
}

// Regression: mi_named_alloc(0) used to hand back data() of an empty
// vector — not a pointer a UDR may write through. Zero-size allocations
// clamp to one byte, exactly like MiMemory::Alloc.
TEST(MiNamedMemory, ZeroSizeAllocReturnsWritablePointer) {
  MiNamedMemory named;
  void* ptr = nullptr;
  ASSERT_TRUE(named.NamedAlloc("grt_zero_block", 0, &ptr).ok());
  ASSERT_NE(ptr, nullptr);
  *static_cast<uint8_t*>(ptr) = 0xAB;
  void* again = nullptr;
  ASSERT_TRUE(named.NamedGet("grt_zero_block", &again).ok());
  EXPECT_EQ(again, ptr);
  EXPECT_EQ(*static_cast<uint8_t*>(again), 0xAB);
  ASSERT_TRUE(named.NamedFree("grt_zero_block").ok());
}

}  // namespace
}  // namespace grtdb
