// The token rules, run on the analyzer's lexer (which
// drops comments and disabled regions before these run, and handles NOLINT
// centrally in the analyzer driver).

#include <set>
#include <string>
#include <vector>

#include "tools/analyze/rules.h"

namespace grtdb {
namespace analyze {

namespace {

bool PathEndsWith(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

bool PathContains(const std::string& path, const std::string& needle) {
  return path.find(needle) != std::string::npos;
}

void Add(std::vector<Finding>* findings, const std::string& path, int line,
         const char* rule, std::string message) {
  Finding f;
  f.file = path;
  f.line = line;
  f.rule = rule;
  f.message = std::move(message);
  findings->push_back(std::move(f));
}

// -------------------------------------------------------- purpose-fig6 --

const std::set<std::string>& Fig6Names() {
  static const std::set<std::string> names = {
      "am_create",  "am_drop",    "am_open",     "am_close",
      "am_beginscan", "am_endscan", "am_rescan", "am_getnext",
      "am_insert",  "am_delete",  "am_update",   "am_scancost",
      "am_stats",   "am_check",   "am_sptype",
  };
  return names;
}

void CheckPurposeFig6(const std::string& path,
                      const std::vector<Token>& toks,
                      std::vector<Finding>* findings) {
  for (const Token& tok : toks) {
    if (tok.kind != TokKind::kString) continue;
    const std::string& s = tok.text;
    size_t i = 0;
    while ((i = s.find("am_", i)) != std::string::npos) {
      if (i > 0 && IsIdentChar(s[i - 1])) {
        i += 3;
        continue;
      }
      size_t end = i;
      while (end < s.size() && IsIdentChar(s[end])) ++end;
      const std::string word = s.substr(i, end - i);
      // A bare "am_" is a prefix under construction (diagnostics, string
      // concatenation), not a purpose-function name.
      if (word != "am_" && Fig6Names().count(word) == 0) {
        Add(findings, path, tok.line, "purpose-fig6",
            "'" + word +
                "' is not a Fig. 6 purpose function (expected one of "
                "am_create/am_drop/am_open/am_close/am_beginscan/"
                "am_endscan/am_rescan/am_getnext/am_insert/am_delete/"
                "am_update/am_scancost/am_stats/am_check or am_sptype)");
      }
      i = end;
    }
  }
}

// ------------------------------------------------------ tprintf-format --

struct Spec {
  char conversion;
  int args_consumed;
};

bool ParseFormat(const std::string& format, std::vector<Spec>* specs,
                 std::string* error) {
  for (size_t i = 0; i < format.size(); ++i) {
    if (format[i] != '%') continue;
    if (i + 1 >= format.size()) {
      *error = "format string ends with a bare '%'";
      return false;
    }
    ++i;
    if (format[i] == '%') continue;
    Spec spec{'\0', 1};
    while (i < format.size() &&
           std::string("-+ #0").find(format[i]) != std::string::npos) {
      ++i;
    }
    if (i < format.size() && format[i] == '*') {
      ++spec.args_consumed;
      ++i;
    } else {
      while (i < format.size() &&
             std::isdigit(static_cast<unsigned char>(format[i]))) {
        ++i;
      }
    }
    if (i < format.size() && format[i] == '.') {
      ++i;
      if (i < format.size() && format[i] == '*') {
        ++spec.args_consumed;
        ++i;
      } else {
        while (i < format.size() &&
               std::isdigit(static_cast<unsigned char>(format[i]))) {
          ++i;
        }
      }
    }
    while (i < format.size() &&
           std::string("hljztL").find(format[i]) != std::string::npos) {
      ++i;
    }
    if (i >= format.size()) {
      *error = "format specifier is missing its conversion character";
      return false;
    }
    spec.conversion = format[i];
    if (std::string("diouxXfFeEgGaAcsp").find(spec.conversion) ==
        std::string::npos) {
      *error = std::string("unknown conversion '%") + spec.conversion + "'";
      return false;
    }
    specs->push_back(spec);
  }
  return true;
}

bool DefinitelyString(const std::vector<Token>& arg) {
  if (arg.empty()) return false;
  const size_t n = arg.size();
  if (n >= 3 && arg[n - 1].text == ")" && arg[n - 2].text == "(" &&
      arg[n - 3].text == "c_str") {
    return true;
  }
  bool any_string = false;
  bool all_string_or_glue = true;
  for (const Token& tok : arg) {
    if (tok.kind == TokKind::kString) {
      any_string = true;
    } else if (tok.kind == TokKind::kPunct &&
               (tok.text == "?" || tok.text == ":" || tok.text == "(" ||
                tok.text == ")")) {
    } else if (tok.kind == TokKind::kIdent) {
    } else {
      all_string_or_glue = false;
    }
  }
  return any_string && all_string_or_glue;
}

bool DefinitelyNumberLiteral(const std::vector<Token>& arg) {
  return arg.size() == 1 && arg[0].kind == TokKind::kNumber;
}

void CheckTprintf(const std::string& path, const std::vector<Token>& toks,
                  std::vector<Finding>* findings) {
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "Tprintf") {
      continue;
    }
    if (toks[i + 1].text != "(") continue;
    const int call_line = toks[i].line;
    std::vector<std::vector<Token>> args;
    std::vector<Token> current;
    int depth = 0;
    size_t j = i + 1;
    for (; j < toks.size(); ++j) {
      const Token& tok = toks[j];
      if (tok.kind == TokKind::kPunct &&
          (tok.text == "(" || tok.text == "[" || tok.text == "{")) {
        ++depth;
        if (depth == 1) continue;
      } else if (tok.kind == TokKind::kPunct &&
                 (tok.text == ")" || tok.text == "]" || tok.text == "}")) {
        --depth;
        if (depth == 0) break;
      } else if (tok.kind == TokKind::kPunct && tok.text == "," &&
                 depth == 1) {
        args.push_back(std::move(current));
        current.clear();
        continue;
      } else if (tok.kind == TokKind::kPunct && tok.text == ";" &&
                 depth <= 0) {
        break;
      }
      if (depth >= 1) current.push_back(tok);
    }
    if (!current.empty()) args.push_back(std::move(current));
    if (args.size() < 3) continue;

    const std::vector<Token>& fmt_arg = args[2];
    bool all_strings = !fmt_arg.empty();
    std::string format;
    for (const Token& tok : fmt_arg) {
      if (tok.kind != TokKind::kString) {
        all_strings = false;
        break;
      }
      format += tok.text;
    }
    if (!all_strings) {
      bool has_string = false;
      for (const Token& tok : fmt_arg) {
        if (tok.kind == TokKind::kString) has_string = true;
      }
      if (has_string) {
        Add(findings, path, call_line, "tprintf-format",
            "Tprintf format must be a string literal");
      }
      continue;
    }

    std::vector<Spec> specs;
    std::string error;
    if (!ParseFormat(format, &specs, &error)) {
      Add(findings, path, call_line, "tprintf-format",
          "bad Tprintf format \"" + format + "\": " + error);
      continue;
    }
    size_t needed = 0;
    for (const Spec& spec : specs) needed += spec.args_consumed;
    const size_t provided = args.size() - 3;
    if (needed != provided) {
      Add(findings, path, call_line, "tprintf-format",
          "Tprintf format \"" + format + "\" consumes " +
              std::to_string(needed) + " argument(s) but " +
              std::to_string(provided) + " provided");
      continue;
    }
    size_t arg_index = 3;
    for (const Spec& spec : specs) {
      if (spec.args_consumed == 2) ++arg_index;
      if (arg_index >= args.size()) break;
      const std::vector<Token>& arg = args[arg_index];
      if (spec.conversion == 's') {
        if (DefinitelyNumberLiteral(arg)) {
          Add(findings, path, call_line, "tprintf-format",
              "Tprintf %s specifier fed a number literal");
        }
      } else if (DefinitelyString(arg)) {
        Add(findings, path, call_line, "tprintf-format",
            std::string("Tprintf %") + spec.conversion +
                " specifier fed a string expression (std::string must go "
                "through .c_str() into %s)");
      }
      ++arg_index;
    }
    i = j;
  }
}

// --------------------------------------------------------- naked-alloc --

void CheckNakedAlloc(const std::string& path, const std::vector<Token>& toks,
                     std::vector<Finding>* findings) {
  static const std::set<std::string> alloc_calls = {"malloc", "calloc",
                                                    "realloc", "strdup"};
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    if (tok.kind != TokKind::kIdent) continue;
    if (tok.text == "new") {
      Add(findings, path, tok.line, "naked-alloc",
          "naked 'new' in blade code: allocate through MiMemory durations "
          "(mi_alloc), not the global heap");
    } else if (alloc_calls.count(tok.text) > 0 && i + 1 < toks.size() &&
               toks[i + 1].text == "(") {
      const bool member =
          i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
      if (!member) {
        Add(findings, path, tok.line, "naked-alloc",
            "naked '" + tok.text +
                "()' in blade code: allocate through MiMemory durations "
                "(mi_alloc)");
      }
    }
  }
}

// ----------------------------------------------------- lockmgr-acquire --

void CheckLockAcquire(const std::string& path,
                      const std::vector<Token>& toks,
                      std::vector<Finding>* findings) {
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    if (tok.kind != TokKind::kIdent ||
        (tok.text != "Acquire" && tok.text != "AcquireWithTimeout")) {
      continue;
    }
    if (i + 1 >= toks.size() || toks[i + 1].text != "(") continue;
    bool on_lock_manager = false;
    const size_t window = i >= 5 ? i - 5 : 0;
    for (size_t j = window; j < i; ++j) {
      if (toks[j].kind == TokKind::kIdent &&
          toks[j].text.find("lock_manager") != std::string::npos) {
        on_lock_manager = true;
      }
    }
    if (on_lock_manager) {
      Add(findings, path, tok.line, "lockmgr-acquire",
          "direct LockManager::" + tok.text +
              " outside the sanctioned wrappers (LockingNodeStore::LockFor "
              "or the executor's statement-level table locking)");
    }
  }
}

// -------------------------------------------------------- flight-event --

void CheckFlightEvent(const std::string& path,
                      const std::vector<Token>& toks,
                      std::vector<Finding>* findings) {
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "RecordEvent") {
      continue;
    }
    if (toks[i + 1].text != "(") continue;
    bool names_enum = false;
    bool has_number = false;
    int depth = 0;
    for (size_t j = i + 1; j < toks.size(); ++j) {
      const Token& tok = toks[j];
      if (tok.kind == TokKind::kPunct &&
          (tok.text == "(" || tok.text == "[" || tok.text == "{")) {
        ++depth;
        continue;
      }
      if (tok.kind == TokKind::kPunct &&
          (tok.text == ")" || tok.text == "]" || tok.text == "}")) {
        --depth;
        if (depth == 0) break;
        continue;
      }
      if (depth == 1 && tok.kind == TokKind::kPunct &&
          (tok.text == "," || tok.text == ";")) {
        break;
      }
      if (tok.kind == TokKind::kIdent && tok.text == "FlightEvent") {
        names_enum = true;
      }
      if (tok.kind == TokKind::kNumber) has_number = true;
    }
    if (!names_enum || has_number) {
      Add(findings, path, toks[i].line, "flight-event",
          "RecordEvent's event argument must be spelled through the "
          "FlightEvent enum (no naked numeric event codes)");
    }
  }
}

// ----------------------------------------------------------- span-name --

void CheckSpanName(const std::string& path, const std::vector<Token>& toks,
                   std::vector<Finding>* findings) {
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    int name_arg;
    if (toks[i].text == "SpanScope") {
      name_arg = 0;
    } else if (toks[i].text == "TraceScope" || toks[i].text == "EmitSpan") {
      name_arg = 1;
    } else {
      continue;
    }
    if (i > 0 && toks[i - 1].text == "~") continue;
    size_t open = i + 1;
    if (toks[open].kind == TokKind::kIdent && open + 1 < toks.size()) {
      ++open;
    }
    if (toks[open].text != "(") continue;
    bool names_enum = false;
    bool has_number = false;
    int arg = 0;
    int depth = 0;
    size_t j = open;
    for (; j < toks.size(); ++j) {
      const Token& tok = toks[j];
      if (tok.kind == TokKind::kPunct &&
          (tok.text == "(" || tok.text == "[" || tok.text == "{")) {
        ++depth;
        continue;
      }
      if (tok.kind == TokKind::kPunct &&
          (tok.text == ")" || tok.text == "]" || tok.text == "}")) {
        --depth;
        if (depth == 0) break;
        continue;
      }
      if (depth == 1 && tok.kind == TokKind::kPunct && tok.text == ",") {
        ++arg;
        continue;
      }
      if (depth >= 1 && arg == name_arg) {
        if (tok.kind == TokKind::kIdent && tok.text == "SpanName") {
          names_enum = true;
        }
        if (tok.kind == TokKind::kNumber) has_number = true;
      }
    }
    if (j + 2 < toks.size() && toks[j + 1].text == "=" &&
        toks[j + 2].text == "delete") {
      continue;
    }
    if (!names_enum || has_number) {
      Add(findings, path, toks[i].line, "span-name",
          "the span-name argument of " + toks[i].text +
              " must be spelled through the SpanName enum (no naked "
              "numeric span codes)");
    }
  }
}

// --------------------------------------------------------- heat-access --

// Same contract as flight-event and span-name, for the heat tracker's
// access vocabulary: RecordAccess's access argument (index 2) must be
// spelled through the HeatAccess enum, never a raw number.
void CheckHeatAccess(const std::string& path, const std::vector<Token>& toks,
                     std::vector<Finding>* findings) {
  constexpr int kAccessArg = 2;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "RecordAccess") {
      continue;
    }
    if (toks[i + 1].text != "(") continue;
    bool names_enum = false;
    bool has_number = false;
    int arg = 0;
    int depth = 0;
    for (size_t j = i + 1; j < toks.size(); ++j) {
      const Token& tok = toks[j];
      if (tok.kind == TokKind::kPunct &&
          (tok.text == "(" || tok.text == "[" || tok.text == "{")) {
        ++depth;
        continue;
      }
      if (tok.kind == TokKind::kPunct &&
          (tok.text == ")" || tok.text == "]" || tok.text == "}")) {
        --depth;
        if (depth == 0) break;
        continue;
      }
      if (depth == 1 && tok.kind == TokKind::kPunct && tok.text == ",") {
        ++arg;
        continue;
      }
      if (depth >= 1 && arg == kAccessArg) {
        if (tok.kind == TokKind::kIdent && tok.text == "HeatAccess") {
          names_enum = true;
        }
        if (tok.kind == TokKind::kNumber) has_number = true;
      }
    }
    if (!names_enum || has_number) {
      Add(findings, path, toks[i].line, "heat-access",
          "RecordAccess's access argument must be spelled through the "
          "HeatAccess enum (no naked numeric access codes)");
    }
  }
}

}  // namespace

void CheckTokenRules(const ParsedFile& file,
                     std::vector<Finding>* findings) {
  const std::string& path = file.path;
  const std::vector<Token>& toks = file.lex.tokens;
  CheckPurposeFig6(path, toks, findings);
  CheckTprintf(path, toks, findings);
  // Blade code only: the server core may use the heap.
  if (PathContains(path, "blades/") || PathContains(path, "blade/")) {
    CheckNakedAlloc(path, toks, findings);
  }
  // Sanctioned wrappers are the only direct LockManager::Acquire sites;
  // the lock manager's own sources obviously call themselves.
  if (!PathEndsWith(path, "blades/locking_store.h") &&
      !PathEndsWith(path, "server/executor.cc") &&
      !PathContains(path, "txn/")) {
    CheckLockAcquire(path, toks, findings);
  }
  CheckFlightEvent(path, toks, findings);
  CheckSpanName(path, toks, findings);
  CheckHeatAccess(path, toks, findings);
}

}  // namespace analyze
}  // namespace grtdb
