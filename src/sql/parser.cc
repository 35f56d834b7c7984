#include "sql/parser.h"

#include "common/strings.h"

namespace grtdb {
namespace sql {

namespace {

Status ErrorAt(const Token& token, const std::string& expected) {
  return Status::InvalidArgument("expected " + expected + " near '" +
                                 (token.kind == Token::Kind::kEnd
                                      ? std::string("<end>")
                                      : token.text) +
                                 "' (offset " + std::to_string(token.offset) +
                                 ")");
}

}  // namespace

const Token& Parser::Peek(size_t ahead) const {
  const size_t index = std::min(pos_ + ahead, tokens_.size() - 1);
  return tokens_[index];
}

Token Parser::Take() {
  Token token = Peek();
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return token;
}

bool Parser::AtKeyword(const std::string& word) const {
  const Token& token = Peek();
  return token.kind == Token::Kind::kIdentifier &&
         EqualsIgnoreCase(token.text, word);
}

Status Parser::ExpectKeyword(const std::string& word) {
  if (!AtKeyword(word)) return ErrorAt(Peek(), "'" + word + "'");
  Take();
  return Status::OK();
}

Status Parser::ExpectSymbol(const std::string& symbol) {
  const Token& token = Peek();
  if (token.kind != Token::Kind::kSymbol || token.text != symbol) {
    return ErrorAt(token, "'" + symbol + "'");
  }
  Take();
  return Status::OK();
}

bool Parser::TrySymbol(const std::string& symbol) {
  const Token& token = Peek();
  if (token.kind == Token::Kind::kSymbol && token.text == symbol) {
    Take();
    return true;
  }
  return false;
}

Status Parser::TakeIdentifier(std::string* out) {
  const Token& token = Peek();
  if (token.kind != Token::Kind::kIdentifier) {
    return ErrorAt(token, "identifier");
  }
  *out = Take().text;
  return Status::OK();
}

Status Parser::Parse(const std::string& text, Statement* out,
                     size_t* param_count) {
  std::vector<Token> tokens;
  GRTDB_RETURN_IF_ERROR(Tokenize(text, &tokens));
  Parser parser(std::move(tokens), text);
  GRTDB_RETURN_IF_ERROR(parser.ParseStatement(out));
  parser.TrySymbol(";");
  if (parser.Peek().kind != Token::Kind::kEnd) {
    return ErrorAt(parser.Peek(), "end of statement");
  }
  if (param_count != nullptr) *param_count = parser.param_count_;
  return Status::OK();
}

Status Parser::ParseScript(const std::string& text,
                           std::vector<Statement>* out,
                           std::vector<std::string>* texts) {
  std::vector<Token> tokens;
  GRTDB_RETURN_IF_ERROR(Tokenize(text, &tokens));
  Parser parser(std::move(tokens), text);
  out->clear();
  if (texts != nullptr) texts->clear();
  while (parser.Peek().kind != Token::Kind::kEnd) {
    if (parser.TrySymbol(";")) continue;
    const size_t start = parser.Peek().offset;
    Statement statement;
    GRTDB_RETURN_IF_ERROR(parser.ParseStatement(&statement));
    out->push_back(std::move(statement));
    if (texts != nullptr) {
      texts->emplace_back(StripWhitespace(std::string_view(text).substr(
          start, parser.Peek().offset - start)));
    }
  }
  return Status::OK();
}

Status Parser::CheckNesting() const {
  if (depth_ > kMaxNesting) {
    return Status::InvalidArgument("statement nests deeper than " +
                                   std::to_string(kMaxNesting) +
                                   " levels (offset " +
                                   std::to_string(Peek().offset) + ")");
  }
  return Status::OK();
}

Status Parser::ParseStatement(Statement* out) {
  Nesting nesting(&depth_);
  GRTDB_RETURN_IF_ERROR(CheckNesting());
  if (AtKeyword("CREATE")) return ParseCreate(out);
  if (AtKeyword("DROP")) return ParseDrop(out);
  if (AtKeyword("INSERT")) return ParseInsert(out);
  if (AtKeyword("SELECT")) return ParseSelect(out);
  if (AtKeyword("DELETE")) return ParseDelete(out);
  if (AtKeyword("UPDATE")) return ParseUpdate(out);
  if (AtKeyword("SET")) return ParseSet(out);
  if (AtKeyword("CHECK")) return ParseCheck(out);
  if (AtKeyword("EXPLAIN")) return ParseExplain(out);
  if (AtKeyword("LOAD")) return ParseLoad(out);
  if (AtKeyword("UNLOAD")) return ParseUnload(out);
  if (AtKeyword("PREPARE")) return ParsePrepare(out);
  if (AtKeyword("EXECUTE")) return ParseExecute(out);
  if (AtKeyword("DEALLOCATE")) return ParseDeallocate(out);
  if (AtKeyword("DUMP")) {
    Take();
    if (AtKeyword("TRACE")) {
      Take();
      DumpTraceStmt stmt;
      if (AtKeyword("JSON")) {
        Take();
        stmt.json = true;
      }
      *out = std::move(stmt);
      return Status::OK();
    }
    if (AtKeyword("HEAT")) {
      Take();
      DumpHeatStmt stmt;
      if (AtKeyword("JSON")) {
        Take();
        stmt.json = true;
      }
      *out = std::move(stmt);
      return Status::OK();
    }
    GRTDB_RETURN_IF_ERROR(ExpectKeyword("FLIGHT"));
    *out = DumpFlightStmt{};
    return Status::OK();
  }
  if (AtKeyword("EXPORT")) {
    Take();
    GRTDB_RETURN_IF_ERROR(ExpectKeyword("METRICS"));
    *out = ExportMetricsStmt{};
    return Status::OK();
  }
  if (AtKeyword("BEGIN")) {
    Take();
    ExpectKeyword("WORK").ok();  // WORK is optional
    *out = BeginWorkStmt{};
    return Status::OK();
  }
  if (AtKeyword("COMMIT")) {
    Take();
    ExpectKeyword("WORK").ok();
    *out = CommitWorkStmt{};
    return Status::OK();
  }
  if (AtKeyword("ROLLBACK")) {
    Take();
    ExpectKeyword("WORK").ok();
    *out = RollbackWorkStmt{};
    return Status::OK();
  }
  return ErrorAt(Peek(), "a statement keyword");
}

Status Parser::ParseCreate(Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
  if (AtKeyword("TABLE")) return ParseCreateTable(out);
  if (AtKeyword("FUNCTION")) return ParseCreateFunction(out);
  if (AtKeyword("SECONDARY")) return ParseCreateAccessMethod(out);
  if (AtKeyword("OPCLASS")) return ParseCreateOpclass(false, out);
  if (AtKeyword("DEFAULT")) {
    Take();
    return ParseCreateOpclass(true, out);
  }
  if (AtKeyword("INDEX")) return ParseCreateIndex(out);
  return ErrorAt(Peek(), "TABLE, FUNCTION, SECONDARY, OPCLASS, or INDEX");
}

Status Parser::ParseCreateTable(Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
  CreateTableStmt stmt;
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.table));
  GRTDB_RETURN_IF_ERROR(ExpectSymbol("("));
  while (true) {
    ColumnSpec column;
    GRTDB_RETURN_IF_ERROR(TakeIdentifier(&column.name));
    GRTDB_RETURN_IF_ERROR(TakeIdentifier(&column.type_name));
    stmt.columns.push_back(std::move(column));
    if (TrySymbol(",")) continue;
    break;
  }
  GRTDB_RETURN_IF_ERROR(ExpectSymbol(")"));
  *out = std::move(stmt);
  return Status::OK();
}

Status Parser::ParseCreateFunction(Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("FUNCTION"));
  CreateFunctionStmt stmt;
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.name));
  GRTDB_RETURN_IF_ERROR(ExpectSymbol("("));
  if (!TrySymbol(")")) {
    while (true) {
      std::string type;
      GRTDB_RETURN_IF_ERROR(TakeIdentifier(&type));
      stmt.arg_types.push_back(std::move(type));
      if (TrySymbol(",")) continue;
      break;
    }
    GRTDB_RETURN_IF_ERROR(ExpectSymbol(")"));
  }
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("RETURNING"));
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.return_type));
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("EXTERNAL"));
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("NAME"));
  if (Peek().kind != Token::Kind::kString) {
    return ErrorAt(Peek(), "quoted external name");
  }
  stmt.external_name = Take().text;
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("LANGUAGE"));
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.language));
  // Optional trailing clauses, in any order: NOT VARIANT,
  // NEGATOR = <fn>, COMMUTATOR = <fn>.
  while (true) {
    if (AtKeyword("NOT")) {
      Take();
      GRTDB_RETURN_IF_ERROR(ExpectKeyword("VARIANT"));
      continue;
    }
    if (AtKeyword("NEGATOR")) {
      Take();
      GRTDB_RETURN_IF_ERROR(ExpectSymbol("="));
      GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.negator));
      continue;
    }
    if (AtKeyword("COMMUTATOR")) {
      Take();
      GRTDB_RETURN_IF_ERROR(ExpectSymbol("="));
      GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.commutator));
      continue;
    }
    break;
  }
  *out = std::move(stmt);
  return Status::OK();
}

Status Parser::ParseCreateAccessMethod(Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("SECONDARY"));
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("ACCESS_METHOD"));
  CreateAccessMethodStmt stmt;
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.name));
  GRTDB_RETURN_IF_ERROR(ExpectSymbol("("));
  while (true) {
    std::string key;
    GRTDB_RETURN_IF_ERROR(TakeIdentifier(&key));
    GRTDB_RETURN_IF_ERROR(ExpectSymbol("="));
    const Token& value_token = Peek();
    std::string value;
    if (value_token.kind == Token::Kind::kIdentifier ||
        value_token.kind == Token::Kind::kString) {
      value = Take().text;
    } else {
      return ErrorAt(value_token, "property value");
    }
    stmt.properties.emplace_back(std::move(key), std::move(value));
    if (TrySymbol(",")) continue;
    break;
  }
  GRTDB_RETURN_IF_ERROR(ExpectSymbol(")"));
  *out = std::move(stmt);
  return Status::OK();
}

Status Parser::ParseCreateOpclass(bool is_default, Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("OPCLASS"));
  CreateOpclassStmt stmt;
  stmt.is_default = is_default;
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.name));
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("FOR"));
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.access_method));
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("STRATEGIES"));
  GRTDB_RETURN_IF_ERROR(ExpectSymbol("("));
  while (true) {
    std::string name;
    GRTDB_RETURN_IF_ERROR(TakeIdentifier(&name));
    stmt.strategies.push_back(std::move(name));
    if (TrySymbol(",")) continue;
    break;
  }
  GRTDB_RETURN_IF_ERROR(ExpectSymbol(")"));
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("SUPPORT"));
  GRTDB_RETURN_IF_ERROR(ExpectSymbol("("));
  while (true) {
    std::string name;
    GRTDB_RETURN_IF_ERROR(TakeIdentifier(&name));
    stmt.supports.push_back(std::move(name));
    if (TrySymbol(",")) continue;
    break;
  }
  GRTDB_RETURN_IF_ERROR(ExpectSymbol(")"));
  *out = std::move(stmt);
  return Status::OK();
}

Status Parser::ParseCreateIndex(Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("INDEX"));
  CreateIndexStmt stmt;
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.name));
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("ON"));
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.table));
  GRTDB_RETURN_IF_ERROR(ExpectSymbol("("));
  while (true) {
    std::string column;
    GRTDB_RETURN_IF_ERROR(TakeIdentifier(&column));
    std::string opclass;
    if (Peek().kind == Token::Kind::kIdentifier) {
      opclass = Take().text;
    }
    stmt.columns.emplace_back(std::move(column), std::move(opclass));
    if (TrySymbol(",")) continue;
    break;
  }
  GRTDB_RETURN_IF_ERROR(ExpectSymbol(")"));
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("USING"));
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.access_method));
  if (AtKeyword("IN")) {
    Take();
    GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.space));
  }
  *out = std::move(stmt);
  return Status::OK();
}

Status Parser::ParseDrop(Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("DROP"));
  if (AtKeyword("TABLE")) {
    Take();
    DropTableStmt stmt;
    GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.table));
    *out = std::move(stmt);
    return Status::OK();
  }
  if (AtKeyword("INDEX")) {
    Take();
    DropIndexStmt stmt;
    GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.index));
    *out = std::move(stmt);
    return Status::OK();
  }
  if (AtKeyword("FUNCTION")) {
    Take();
    DropFunctionStmt stmt;
    GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.name));
    *out = std::move(stmt);
    return Status::OK();
  }
  if (AtKeyword("SECONDARY")) {
    Take();
    GRTDB_RETURN_IF_ERROR(ExpectKeyword("ACCESS_METHOD"));
    DropAccessMethodStmt stmt;
    GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.name));
    *out = std::move(stmt);
    return Status::OK();
  }
  if (AtKeyword("OPCLASS")) {
    Take();
    DropOpclassStmt stmt;
    GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.name));
    *out = std::move(stmt);
    return Status::OK();
  }
  return ErrorAt(Peek(),
                 "TABLE, INDEX, FUNCTION, SECONDARY ACCESS_METHOD, or "
                 "OPCLASS");
}

Status Parser::ParseInsert(Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("INTO"));
  InsertStmt stmt;
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.table));
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
  GRTDB_RETURN_IF_ERROR(ExpectSymbol("("));
  while (true) {
    Literal literal;
    GRTDB_RETURN_IF_ERROR(ParseLiteral(&literal));
    stmt.values.push_back(std::move(literal));
    if (TrySymbol(",")) continue;
    break;
  }
  GRTDB_RETURN_IF_ERROR(ExpectSymbol(")"));
  *out = std::move(stmt);
  return Status::OK();
}

Status Parser::ParseSelect(Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
  SelectStmt stmt;
  if (TrySymbol("*")) {
    stmt.star = true;
  } else if (AtKeyword("COUNT") && Peek(1).kind == Token::Kind::kSymbol &&
             Peek(1).text == "(") {
    Take();
    GRTDB_RETURN_IF_ERROR(ExpectSymbol("("));
    GRTDB_RETURN_IF_ERROR(ExpectSymbol("*"));
    GRTDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    stmt.count_star = true;
  } else {
    while (true) {
      std::string column;
      GRTDB_RETURN_IF_ERROR(TakeIdentifier(&column));
      stmt.columns.push_back(std::move(column));
      if (TrySymbol(",")) continue;
      break;
    }
  }
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.table));
  if (AtKeyword("WHERE")) {
    Take();
    GRTDB_RETURN_IF_ERROR(ParseExpr(&stmt.where));
  }
  *out = std::move(stmt);
  return Status::OK();
}

Status Parser::ParseDelete(Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  DeleteStmt stmt;
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.table));
  if (AtKeyword("WHERE")) {
    Take();
    GRTDB_RETURN_IF_ERROR(ParseExpr(&stmt.where));
  }
  *out = std::move(stmt);
  return Status::OK();
}

Status Parser::ParseUpdate(Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
  if (AtKeyword("STATISTICS")) {
    Take();
    UpdateStatisticsStmt stmt;
    // Bare UPDATE STATISTICS refreshes every index that has am_stats.
    if (AtKeyword("FOR")) {
      Take();
      GRTDB_RETURN_IF_ERROR(ExpectKeyword("INDEX"));
      GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.index));
    }
    *out = std::move(stmt);
    return Status::OK();
  }
  UpdateStmt stmt;
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.table));
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("SET"));
  while (true) {
    std::string column;
    GRTDB_RETURN_IF_ERROR(TakeIdentifier(&column));
    GRTDB_RETURN_IF_ERROR(ExpectSymbol("="));
    Literal literal;
    GRTDB_RETURN_IF_ERROR(ParseLiteral(&literal));
    stmt.assignments.emplace_back(std::move(column), std::move(literal));
    if (TrySymbol(",")) continue;
    break;
  }
  if (AtKeyword("WHERE")) {
    Take();
    GRTDB_RETURN_IF_ERROR(ParseExpr(&stmt.where));
  }
  *out = std::move(stmt);
  return Status::OK();
}

Status Parser::ParseSet(Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("SET"));
  SetStmt stmt;
  if (AtKeyword("ISOLATION")) {
    Take();
    GRTDB_RETURN_IF_ERROR(ExpectKeyword("TO"));
    stmt.what = SetStmt::What::kIsolation;
    std::string level;
    GRTDB_RETURN_IF_ERROR(TakeIdentifier(&level));
    GRTDB_RETURN_IF_ERROR(ExpectKeyword("READ"));
    stmt.argument = ToUpper(level);
    *out = std::move(stmt);
    return Status::OK();
  }
  if (AtKeyword("EXPLAIN")) {
    Take();
    stmt.what = SetStmt::What::kExplain;
    std::string mode;
    GRTDB_RETURN_IF_ERROR(TakeIdentifier(&mode));
    stmt.argument = ToUpper(mode);
    *out = std::move(stmt);
    return Status::OK();
  }
  if (AtKeyword("CURRENT_TIME")) {
    Take();
    GRTDB_RETURN_IF_ERROR(ExpectKeyword("TO"));
    stmt.what = SetStmt::What::kCurrentTime;
    GRTDB_RETURN_IF_ERROR(ParseLiteral(&stmt.value));
    *out = std::move(stmt);
    return Status::OK();
  }
  if (AtKeyword("TIME")) {
    Take();
    GRTDB_RETURN_IF_ERROR(ExpectKeyword("MODE"));
    stmt.what = SetStmt::What::kTimeMode;
    std::string mode;
    GRTDB_RETURN_IF_ERROR(TakeIdentifier(&mode));
    stmt.argument = ToUpper(mode);
    *out = std::move(stmt);
    return Status::OK();
  }
  if (AtKeyword("TRACE_SAMPLE")) {
    Take();
    stmt.what = SetStmt::What::kTraceSample;
    if (!TrySymbol("=")) {
      GRTDB_RETURN_IF_ERROR(ExpectKeyword("TO"));
    }
    GRTDB_RETURN_IF_ERROR(ParseLiteral(&stmt.value));
    *out = std::move(stmt);
    return Status::OK();
  }
  if (AtKeyword("TRACE")) {
    Take();
    stmt.what = SetStmt::What::kTrace;
    if (Peek().kind == Token::Kind::kString ||
        Peek().kind == Token::Kind::kIdentifier) {
      stmt.argument = Take().text;
    } else {
      return ErrorAt(Peek(), "trace class");
    }
    GRTDB_RETURN_IF_ERROR(ExpectKeyword("TO"));
    GRTDB_RETURN_IF_ERROR(ParseLiteral(&stmt.value));
    *out = std::move(stmt);
    return Status::OK();
  }
  if (AtKeyword("SLOW_QUERY_NS")) {
    Take();
    stmt.what = SetStmt::What::kSlowQueryNs;
    if (!TrySymbol("=")) {
      GRTDB_RETURN_IF_ERROR(ExpectKeyword("TO"));
    }
    GRTDB_RETURN_IF_ERROR(ParseLiteral(&stmt.value));
    *out = std::move(stmt);
    return Status::OK();
  }
  if (AtKeyword("HEAT_TRACK")) {
    Take();
    stmt.what = SetStmt::What::kHeatTrack;
    if (!TrySymbol("=")) {
      GRTDB_RETURN_IF_ERROR(ExpectKeyword("TO"));
    }
    GRTDB_RETURN_IF_ERROR(ParseLiteral(&stmt.value));
    *out = std::move(stmt);
    return Status::OK();
  }
  return ErrorAt(Peek(),
                 "ISOLATION, EXPLAIN, CURRENT_TIME, TIME MODE, TRACE, "
                 "TRACE_SAMPLE, SLOW_QUERY_NS, or HEAT_TRACK");
}

Status Parser::ParseCheck(Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("CHECK"));
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("INDEX"));
  CheckIndexStmt stmt;
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.index));
  *out = std::move(stmt);
  return Status::OK();
}

Status Parser::ParseExplain(Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("EXPLAIN"));
  bool trace = false;
  if (AtKeyword("TRACE")) {
    Take();
    trace = true;
  } else {
    GRTDB_RETURN_IF_ERROR(ExpectKeyword("PROFILE"));
  }
  const size_t start = Peek().offset;
  if (Peek().kind == Token::Kind::kEnd) {
    return ErrorAt(Peek(), trace ? "a statement to trace"
                                 : "a statement to profile");
  }
  // Parse the inner statement now so syntax errors surface at parse time,
  // but carry it as the original text span: the executor re-parses and
  // runs it under a profile, and the Statement variant stays flat.
  Statement inner;
  GRTDB_RETURN_IF_ERROR(ParseStatement(&inner));
  const size_t end = Peek().offset;
  if (trace) {
    ExplainTraceStmt stmt;
    stmt.inner_sql = text_.substr(start, end - start);
    *out = std::move(stmt);
    return Status::OK();
  }
  ExplainProfileStmt stmt;
  stmt.inner_sql = text_.substr(start, end - start);
  *out = std::move(stmt);
  return Status::OK();
}

Status Parser::ParseLoad(Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("LOAD"));
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  if (Peek().kind != Token::Kind::kString) {
    return ErrorAt(Peek(), "quoted file path");
  }
  LoadStmt stmt;
  stmt.path = Take().text;
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("INTO"));
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.table));
  *out = std::move(stmt);
  return Status::OK();
}

Status Parser::ParseUnload(Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("UNLOAD"));
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("TO"));
  if (Peek().kind != Token::Kind::kString) {
    return ErrorAt(Peek(), "quoted file path");
  }
  UnloadStmt stmt;
  stmt.path = Take().text;
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
  GRTDB_RETURN_IF_ERROR(ExpectSymbol("*"));
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.table));
  if (AtKeyword("WHERE")) {
    Take();
    GRTDB_RETURN_IF_ERROR(ParseExpr(&stmt.where));
  }
  *out = std::move(stmt);
  return Status::OK();
}

Status Parser::ParsePrepare(Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("PREPARE"));
  PrepareStmt stmt;
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.name));
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("AS"));
  const size_t start = Peek().offset;
  if (Peek().kind == Token::Kind::kEnd) {
    return ErrorAt(Peek(), "a statement to prepare");
  }
  // Same text-span idiom as EXPLAIN PROFILE: parse the inner statement now
  // so syntax errors surface at PREPARE time, but carry the original text —
  // the server parses it once more into its shared plan cache.
  Statement inner;
  GRTDB_RETURN_IF_ERROR(ParseStatement(&inner));
  if (!std::holds_alternative<SelectStmt>(inner) &&
      !std::holds_alternative<InsertStmt>(inner) &&
      !std::holds_alternative<DeleteStmt>(inner) &&
      !std::holds_alternative<UpdateStmt>(inner)) {
    return Status::InvalidArgument(
        "PREPARE supports SELECT, INSERT, DELETE, and UPDATE statements");
  }
  const size_t end = Peek().offset;
  stmt.inner_sql = text_.substr(start, end - start);
  *out = std::move(stmt);
  return Status::OK();
}

Status Parser::ParseExecute(Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("EXECUTE"));
  ExecuteStmt stmt;
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.name));
  if (TrySymbol("(")) {
    if (!TrySymbol(")")) {
      while (true) {
        Literal literal;
        GRTDB_RETURN_IF_ERROR(ParseLiteral(&literal));
        if (literal.kind == Literal::Kind::kParam) {
          return Status::InvalidArgument(
              "EXECUTE arguments must be literal values, not '?'");
        }
        stmt.args.push_back(std::move(literal));
        if (TrySymbol(",")) continue;
        break;
      }
      GRTDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    }
  }
  *out = std::move(stmt);
  return Status::OK();
}

Status Parser::ParseDeallocate(Statement* out) {
  GRTDB_RETURN_IF_ERROR(ExpectKeyword("DEALLOCATE"));
  if (AtKeyword("PREPARE")) Take();  // PREPARE is optional noise
  DeallocateStmt stmt;
  GRTDB_RETURN_IF_ERROR(TakeIdentifier(&stmt.name));
  *out = std::move(stmt);
  return Status::OK();
}

Status Parser::ParseLiteral(Literal* out) {
  const Token& token = Peek();
  if (token.kind == Token::Kind::kSymbol && token.text == "?") {
    Take();
    out->kind = Literal::Kind::kParam;
    out->param_index = param_count_++;
    return Status::OK();
  }
  switch (token.kind) {
    case Token::Kind::kInteger:
      out->kind = Literal::Kind::kInteger;
      out->integer = Take().integer;
      return Status::OK();
    case Token::Kind::kFloat:
      out->kind = Literal::Kind::kFloat;
      out->real = Take().real;
      return Status::OK();
    case Token::Kind::kString:
      out->kind = Literal::Kind::kString;
      out->text = Take().text;
      return Status::OK();
    case Token::Kind::kIdentifier:
      if (EqualsIgnoreCase(token.text, "NULL")) {
        Take();
        out->kind = Literal::Kind::kNull;
        return Status::OK();
      }
      return ErrorAt(token, "literal");
    default:
      return ErrorAt(token, "literal");
  }
}

Status Parser::ParseExpr(std::unique_ptr<Expr>* out) { return ParseOr(out); }

Status Parser::ParseOr(std::unique_ptr<Expr>* out) {
  return ParseChain("OR", Expr::Kind::kOr, &Parser::ParseAnd, out);
}

Status Parser::ParseAnd(std::unique_ptr<Expr>* out) {
  return ParseChain("AND", Expr::Kind::kAnd, &Parser::ParseNot, out);
}

Status Parser::ParseChain(const char* keyword, Expr::Kind kind,
                          Status (Parser::*operand)(std::unique_ptr<Expr>*),
                          std::unique_ptr<Expr>* out) {
  std::unique_ptr<Expr> first;
  GRTDB_RETURN_IF_ERROR((this->*operand)(&first));
  if (!AtKeyword(keyword)) {
    *out = std::move(first);
    return Status::OK();
  }
  auto node = std::make_unique<Expr>();
  node->kind = kind;
  node->children.push_back(std::move(first));
  while (AtKeyword(keyword)) {
    Take();
    std::unique_ptr<Expr> next;
    GRTDB_RETURN_IF_ERROR((this->*operand)(&next));
    node->children.push_back(std::move(next));
  }
  *out = std::move(node);
  return Status::OK();
}

Status Parser::ParseNot(std::unique_ptr<Expr>* out) {
  Nesting nesting(&depth_);
  GRTDB_RETURN_IF_ERROR(CheckNesting());
  if (AtKeyword("NOT")) {
    Take();
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kNot;
    std::unique_ptr<Expr> child;
    GRTDB_RETURN_IF_ERROR(ParseNot(&child));
    node->children.push_back(std::move(child));
    *out = std::move(node);
    return Status::OK();
  }
  return ParsePredicate(out);
}

Status Parser::ParsePredicate(std::unique_ptr<Expr>* out) {
  if (TrySymbol("(")) {
    std::unique_ptr<Expr> inner;
    GRTDB_RETURN_IF_ERROR(ParseOr(&inner));
    GRTDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    *out = std::move(inner);
    return Status::OK();
  }
  std::unique_ptr<Expr> left;
  GRTDB_RETURN_IF_ERROR(ParseOperand(&left));
  const Token& token = Peek();
  if (token.kind == Token::Kind::kSymbol &&
      (token.text == "=" || token.text == "<" || token.text == ">" ||
       token.text == "<=" || token.text == ">=" || token.text == "<>")) {
    const std::string op = Take().text;
    std::unique_ptr<Expr> right;
    GRTDB_RETURN_IF_ERROR(ParseOperand(&right));
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kCompare;
    if (op == "=") node->cmp = Expr::CmpOp::kEq;
    if (op == "<>") node->cmp = Expr::CmpOp::kNe;
    if (op == "<") node->cmp = Expr::CmpOp::kLt;
    if (op == "<=") node->cmp = Expr::CmpOp::kLe;
    if (op == ">") node->cmp = Expr::CmpOp::kGt;
    if (op == ">=") node->cmp = Expr::CmpOp::kGe;
    node->children.push_back(std::move(left));
    node->children.push_back(std::move(right));
    *out = std::move(node);
    return Status::OK();
  }
  *out = std::move(left);
  return Status::OK();
}

Status Parser::ParseOperand(std::unique_ptr<Expr>* out) {
  Nesting nesting(&depth_);
  GRTDB_RETURN_IF_ERROR(CheckNesting());
  const Token& token = Peek();
  if (token.kind == Token::Kind::kIdentifier &&
      !EqualsIgnoreCase(token.text, "NULL")) {
    std::string name = Take().text;
    if (TrySymbol("(")) {
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kCall;
      node->func = std::move(name);
      if (!TrySymbol(")")) {
        while (true) {
          std::unique_ptr<Expr> arg;
          GRTDB_RETURN_IF_ERROR(ParseOperand(&arg));
          node->children.push_back(std::move(arg));
          if (TrySymbol(",")) continue;
          break;
        }
        GRTDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      }
      *out = std::move(node);
      return Status::OK();
    }
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kColumn;
    node->column = std::move(name);
    *out = std::move(node);
    return Status::OK();
  }
  Literal literal;
  GRTDB_RETURN_IF_ERROR(ParseLiteral(&literal));
  auto node = std::make_unique<Expr>();
  node->kind = Expr::Kind::kLiteral;
  node->literal = std::move(literal);
  *out = std::move(node);
  return Status::OK();
}

}  // namespace sql
}  // namespace grtdb
