#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/analyze/rules.h"
#include "tools/analyze/token.h"

namespace grtdb {
namespace analyze {
namespace {

// Every rule is self-checking: a snippet seeded with the violation must be
// flagged, and the corrected snippet must pass clean. Paths route the
// path-scoped rules (naked-alloc only fires on blade code, the sanctioned
// wrapper files are exempt from lockmgr-acquire).

constexpr char kBladePath[] = "src/blades/example_blade.cc";
constexpr char kServerPath[] = "src/server/example.cc";

// The token rules over one snippet, exactly as grtdb_analyze runs them on
// a file (without the NOLINT and baseline filtering).
std::vector<Finding> LintSource(const std::string& path,
                                const std::string& source) {
  ParsedFile file;
  file.path = path;
  file.lex = Lex(source);
  std::vector<Finding> findings;
  CheckTokenRules(file, &findings);
  return findings;
}

std::vector<std::string> RulesIn(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  for (const Finding& finding : findings) rules.push_back(finding.rule);
  return rules;
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  const std::vector<std::string> rules = RulesIn(findings);
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

// ---------------------------------------------------------------- tokenizer

TEST(Tokenizer, StringsCarryContentAndCommentsDrop) {
  const std::vector<Token> toks =
      Lex("// line comment with \"am_bogus\"\n"
          "/* block\n comment */ call(\"am_getnext\", 42); x->y::z\n")
          .tokens;
  ASSERT_GE(toks.size(), 2u);
  bool saw_string = false;
  for (const Token& tok : toks) {
    if (tok.kind == TokKind::kString) {
      saw_string = true;
      EXPECT_EQ(tok.text, "am_getnext");
      EXPECT_EQ(tok.line, 3);
    }
    // Comment content never becomes tokens.
    EXPECT_NE(tok.text, "comment");
  }
  EXPECT_TRUE(saw_string);
  // "->" and "::" survive as single tokens.
  EXPECT_TRUE(std::any_of(toks.begin(), toks.end(), [](const Token& t) {
    return t.kind == TokKind::kPunct && t.text == "->";
  }));
  EXPECT_TRUE(std::any_of(toks.begin(), toks.end(), [](const Token& t) {
    return t.kind == TokKind::kPunct && t.text == "::";
  }));
}

TEST(Tokenizer, PreprocessorLinesAreSkipped) {
  const std::vector<Token> toks = Lex(
      "#include <new>\n"
      "#define BAD malloc(1)\n"
      "int x;\n").tokens;
  for (const Token& tok : toks) {
    EXPECT_NE(tok.text, "malloc");
    EXPECT_NE(tok.text, "new");
  }
}

// ------------------------------------------------------------- purpose-fig6

TEST(PurposeFig6, MisspelledPurposeNameFlagged) {
  const auto issues =
      LintSource(kServerPath, "reg.Register(\"am_getnxt\", fn);\n");
  ASSERT_TRUE(HasRule(issues, "purpose-fig6"));
  EXPECT_NE(issues[0].message.find("am_getnxt"), std::string::npos);
}

TEST(PurposeFig6, InventedPurposeNameFlagged) {
  EXPECT_TRUE(HasRule(
      LintSource(kServerPath, "reg.Register(\"am_prefetch\", fn);\n"),
      "purpose-fig6"));
}

TEST(PurposeFig6, AllFigureSixNamesPass) {
  const char* names[] = {"am_create",  "am_drop",     "am_open",
                         "am_close",   "am_beginscan", "am_endscan",
                         "am_rescan",  "am_getnext",  "am_insert",
                         "am_delete",  "am_update",   "am_scancost",
                         "am_stats",   "am_check",    "am_sptype"};
  for (const char* name : names) {
    const std::string src = std::string("reg.Register(\"") + name + "\");\n";
    EXPECT_TRUE(LintSource(kServerPath, src).empty()) << name;
  }
}

TEST(PurposeFig6, IdentifiersOutsideStringsIgnored) {
  // am_name is a perfectly good C++ variable; only string literals are
  // registration/catalog surface.
  EXPECT_TRUE(
      LintSource(kServerPath, "int am_bogus = 3; func(am_bogus);\n").empty());
}

// ----------------------------------------------------------- tprintf-format

TEST(TprintfFormat, TooFewArgumentsFlagged) {
  const auto issues = LintSource(
      kServerPath, "t.Tprintf(\"wal\", 2, \"a=%d b=%d\", 7);\n");
  ASSERT_TRUE(HasRule(issues, "tprintf-format"));
  EXPECT_NE(issues[0].message.find("consumes 2"), std::string::npos);
}

TEST(TprintfFormat, TooManyArgumentsFlagged) {
  EXPECT_TRUE(HasRule(
      LintSource(kServerPath, "t.Tprintf(\"wal\", 2, \"a=%d\", 7, 8);\n"),
      "tprintf-format"));
}

TEST(TprintfFormat, MatchingCallPasses) {
  EXPECT_TRUE(LintSource(kServerPath,
                         "t.Tprintf(\"wal\", 2, \"n=%llu s=%s %.2f %%\", n, "
                         "name.c_str(), ratio);\n")
                  .empty());
}

TEST(TprintfFormat, ConcatenatedLiteralsAndStarWidthCounted) {
  EXPECT_TRUE(LintSource(kServerPath,
                         "t.Tprintf(\"wal\", 1, \"x=%*d \" \"y=%s\", width, "
                         "x, label);\n")
                  .empty());
  EXPECT_TRUE(HasRule(
      LintSource(kServerPath,
                 "t.Tprintf(\"wal\", 1, \"x=%*d\", x);\n"),
      "tprintf-format"));
}

TEST(TprintfFormat, ObviousTypeMismatchesFlagged) {
  // %s fed a number literal, %d fed a .c_str().
  EXPECT_TRUE(HasRule(
      LintSource(kServerPath, "t.Tprintf(\"c\", 1, \"id=%s\", 42);\n"),
      "tprintf-format"));
  EXPECT_TRUE(HasRule(
      LintSource(kServerPath,
                 "t.Tprintf(\"c\", 1, \"id=%d\", name.c_str());\n"),
      "tprintf-format"));
}

TEST(TprintfFormat, NonLiteralFormatNotGuessedAt) {
  // A runtime format can't be checked; the declaration itself must not be
  // treated as a call either.
  EXPECT_TRUE(LintSource(kServerPath,
                         "void Tprintf(std::string_view c, int l, const "
                         "char* format, ...);\n"
                         "t.Tprintf(cls, level, fmt);\n")
                  .empty());
}

TEST(TprintfFormat, BadConversionFlagged) {
  EXPECT_TRUE(HasRule(
      LintSource(kServerPath, "t.Tprintf(\"c\", 1, \"x=%q\", x);\n"),
      "tprintf-format"));
}

// --------------------------------------------------------------- naked-alloc

TEST(NakedAlloc, NewAndMallocFlaggedInBladeCode) {
  const auto issues = LintSource(
      kBladePath, "int* p = new int[4]; void* q = malloc(10);\n");
  EXPECT_EQ(RulesIn(issues),
            (std::vector<std::string>{"naked-alloc", "naked-alloc"}));
}

TEST(NakedAlloc, ServerCodeMayUseTheHeap) {
  EXPECT_TRUE(
      LintSource(kServerPath, "int* p = new int[4];\n").empty());
}

TEST(NakedAlloc, MiMemoryAllocPasses) {
  EXPECT_TRUE(LintSource(kBladePath,
                         "void* p = ctx.memory->Alloc("
                         "MiDuration::kPerStatement, 64);\n")
                  .empty());
}

// ----------------------------------------------------------- lockmgr-acquire

TEST(LockAcquire, DirectAcquireOutsideWrappersFlagged) {
  EXPECT_TRUE(HasRule(
      LintSource(kBladePath,
                 "auto s = lock_manager_->Acquire(txn, res, mode);\n"),
      "lockmgr-acquire"));
  EXPECT_TRUE(HasRule(
      LintSource(kServerPath,
                 "ctx.lock_manager->AcquireWithTimeout(txn, res, mode, t);\n"),
      "lockmgr-acquire"));
}

TEST(LockAcquire, SanctionedWrappersExempt) {
  EXPECT_TRUE(LintSource("src/blades/locking_store.h",
                         "lock_manager_->Acquire(txn, res, mode);\n")
                  .empty());
  EXPECT_TRUE(LintSource("src/server/executor.cc",
                         "ctx.lock_manager->Acquire(txn, res, mode);\n")
                  .empty());
}

TEST(LockAcquire, UnrelatedAcquireIgnored) {
  EXPECT_TRUE(
      LintSource(kBladePath, "latch.Acquire(); pool->Acquire(slot);\n")
          .empty());
}

TEST(FlightEvent, NakedNumericEventCodeFlagged) {
  EXPECT_TRUE(HasRule(
      LintSource(kServerPath,
                 "obs::FlightRecorder::Global().RecordEvent(3, id, 0);\n"),
      "flight-event"));
  // A cast dressing up the number is still a naked code.
  EXPECT_TRUE(HasRule(
      LintSource(kServerPath,
                 "recorder.RecordEvent(static_cast<obs::FlightEvent>(7));\n"),
      "flight-event"));
}

TEST(FlightEvent, EnumQualifiedCallPasses) {
  EXPECT_TRUE(
      LintSource(kServerPath,
                 "obs::FlightRecorder::Global().RecordEvent(\n"
                 "    obs::FlightEvent::kCheckpoint, dropped);\n")
          .empty());
  // Operand expressions may be arbitrary as long as the event itself is an
  // enumerator — including a conditional choosing between two of them.
  EXPECT_TRUE(
      LintSource(kServerPath,
                 "recorder.RecordEvent(committed ? obs::FlightEvent::kTxnCommit"
                 " : obs::FlightEvent::kTxnAbort, txn->id);\n")
          .empty());
}

TEST(FlightEvent, DeclarationIsNotACallSite) {
  EXPECT_TRUE(
      LintSource("src/obs/flight_recorder.h",
                 "void RecordEvent(FlightEvent event, uint64_t a = 0, "
                 "uint64_t b = 0);\n")
          .empty());
}

// ------------------------------------------------------------------ span-name

TEST(SpanName, NakedNumericSpanCodeFlagged) {
  EXPECT_TRUE(HasRule(LintSource(kServerPath, "obs::SpanScope span(3);\n"),
                      "span-name"));
  EXPECT_TRUE(HasRule(
      LintSource(kServerPath, "tracer.EmitSpan(handle, 5, t0, t1);\n"),
      "span-name"));
  EXPECT_TRUE(HasRule(
      LintSource(kServerPath, "obs::TraceScope root(handle, 0, ticks);\n"),
      "span-name"));
  // A cast dressing up the number is still a naked code.
  EXPECT_TRUE(HasRule(
      LintSource(kServerPath,
                 "obs::SpanScope s(static_cast<obs::SpanName>(7));\n"),
      "span-name"));
}

TEST(SpanName, EnumQualifiedSpansPass) {
  // Numeric operands after the span name are fine — only the name
  // argument itself must be spelled through the enum.
  EXPECT_TRUE(
      LintSource(kServerPath,
                 "obs::SpanScope io(obs::SpanName::kNodeIo, 42);\n"
                 "obs::TraceScope root(handle, obs::SpanName::kRequest,\n"
                 "                     frame_ticks, 1, 0);\n"
                 "tracer.EmitSpan(here, obs::SpanName::kQueueWait, t0, t1,\n"
                 "                depth);\n")
          .empty());
  EXPECT_TRUE(LintSource(kServerPath,
                         "obs::SpanScope s(flag ? obs::SpanName::kParse"
                         " : obs::SpanName::kPlan);\n")
                  .empty());
}

TEST(SpanName, DeclarationsAndDeletedCopiesAreNotCallSites) {
  EXPECT_TRUE(
      LintSource("src/obs/span_tracer.h",
                 "explicit SpanScope(SpanName name, uint64_t a = 0);\n"
                 "TraceScope(const TraceHandle& handle, SpanName name,\n"
                 "           uint64_t start_ticks = 0);\n"
                 "void EmitSpan(const TraceHandle& handle, SpanName name,\n"
                 "              uint64_t start_ticks, uint64_t end_ticks);\n"
                 "~TraceScope();\n"
                 "SpanScope(const SpanScope&) = delete;\n")
          .empty());
}

// --------------------------------------------------------------- heat-access

TEST(HeatAccess, NakedNumericAccessCodeFlagged) {
  EXPECT_TRUE(HasRule(
      LintSource(kServerPath, "heat->RecordAccess(store, id, 1);\n"),
      "heat-access"));
  // A cast dressing up the number is still a naked code.
  EXPECT_TRUE(HasRule(
      LintSource(kServerPath,
                 "heat->RecordAccess(store, id, "
                 "static_cast<obs::HeatAccess>(0), wait_ns);\n"),
      "heat-access"));
}

TEST(HeatAccess, EnumQualifiedAccessesPass) {
  // Numeric operands in the other arguments are fine — only the access
  // argument itself must be spelled through the enum.
  EXPECT_TRUE(
      LintSource(kServerPath,
                 "heat->RecordAccess(0, 42, obs::HeatAccess::kRead,\n"
                 "                   pin_wait_ns);\n"
                 "heat.RecordAccess(store, id, obs::HeatAccess::kWrite);\n")
          .empty());
}

TEST(HeatAccess, DeclarationsAreNotCallSites) {
  EXPECT_TRUE(
      LintSource("src/obs/heat_tracker.h",
                 "void RecordAccess(uint32_t store, uint64_t node, "
                 "HeatAccess access, uint64_t pin_wait_ns = 0);\n")
          .empty());
}

// ------------------------------------------------------------- repo is clean

// The final tree must lint clean — the same invariant the grtdb_analyze
// ctest enforces on src/ and tools/; here over a representative corpus so
// the gtest binary fails fast in isolation too.
TEST(LintRepo, RealRegistrationSnippetPasses) {
  EXPECT_TRUE(
      LintSource(kBladePath,
                 "server->RegisterPurpose(\"am_beginscan\", BeginScan);\n"
                 "server->RegisterPurpose(\"am_getnext\", GetNext);\n"
                 "ctx.server->trace().Tprintf(\"grtree\", 1, "
                 "\"created index %s\", name.c_str());\n")
          .empty());
}

}  // namespace
}  // namespace analyze
}  // namespace grtdb
