#include "sql/parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "sql/lexer.h"

namespace grtdb {
namespace sql {
namespace {

// ------------------------------------------------------------------ Lexer --

TEST(Lexer, BasicTokens) {
  std::vector<Token> tokens;
  ASSERT_TRUE(Tokenize("SELECT a, b FROM t WHERE x >= 10.5;", &tokens).ok());
  ASSERT_EQ(tokens.size(), 12u);  // incl. end token
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[2].text, ",");
  EXPECT_EQ(tokens[8].text, ">=");
  EXPECT_EQ(tokens[9].kind, Token::Kind::kFloat);
  EXPECT_DOUBLE_EQ(tokens[9].real, 10.5);
}

TEST(Lexer, StringsAndEscapes) {
  std::vector<Token> tokens;
  ASSERT_TRUE(Tokenize("'it''s' \"double\"", &tokens).ok());
  EXPECT_EQ(tokens[0].text, "it's");
  EXPECT_EQ(tokens[1].text, "double");
  EXPECT_TRUE(Tokenize("'unterminated", &tokens).IsInvalidArgument());
}

TEST(Lexer, CommentsAndNegatives) {
  std::vector<Token> tokens;
  ASSERT_TRUE(Tokenize("-- a comment\n42 -7", &tokens).ok());
  EXPECT_EQ(tokens[0].integer, 42);
  EXPECT_EQ(tokens[1].integer, -7);
}

TEST(Lexer, RejectsOutOfRangeNumbers) {
  std::vector<Token> tokens;
  ASSERT_TRUE(
      Tokenize("9223372036854775807 -9223372036854775808", &tokens).ok());
  EXPECT_EQ(tokens[0].integer, INT64_MAX);
  EXPECT_EQ(tokens[1].integer, INT64_MIN);
  for (const std::string& text : std::vector<std::string>{
           "99999999999999999999", "9223372036854775808",
           "-9223372036854775809", std::string(400, '9') + ".5"}) {
    EXPECT_TRUE(Tokenize("SELECT * FROM t WHERE a = " + text, &tokens)
                    .IsInvalidArgument())
        << text;
  }
}

TEST(Lexer, RejectsUnknownCharacters) {
  std::vector<Token> tokens;
  EXPECT_TRUE(Tokenize("SELECT @", &tokens).IsInvalidArgument());
}

// ----------------------------------------------------------------- Parser --

template <typename T>
const T& As(const Statement& stmt) {
  const T* value = std::get_if<T>(&stmt);
  EXPECT_NE(value, nullptr);
  return *value;
}

TEST(Parser, CreateTable) {
  Statement stmt;
  ASSERT_TRUE(Parser::Parse(
                  "CREATE TABLE Employees (Name text, Extent grt_timeextent)",
                  &stmt)
                  .ok());
  const auto& create = As<CreateTableStmt>(stmt);
  EXPECT_EQ(create.table, "Employees");
  ASSERT_EQ(create.columns.size(), 2u);
  EXPECT_EQ(create.columns[1].type_name, "grt_timeextent");
}

TEST(Parser, CreateFunctionMatchesPaperExample) {
  Statement stmt;
  ASSERT_TRUE(Parser::Parse(
                  "CREATE FUNCTION grt_open(pointer) RETURNING int EXTERNAL "
                  "NAME 'usr/functions/grtree.bld(grt_open)' LANGUAGE c",
                  &stmt)
                  .ok());
  const auto& create = As<CreateFunctionStmt>(stmt);
  EXPECT_EQ(create.name, "grt_open");
  EXPECT_EQ(create.arg_types, std::vector<std::string>{"pointer"});
  EXPECT_EQ(create.return_type, "int");
  EXPECT_EQ(create.external_name, "usr/functions/grtree.bld(grt_open)");
}

TEST(Parser, CreateSecondaryAccessMethod) {
  Statement stmt;
  ASSERT_TRUE(Parser::Parse("CREATE SECONDARY ACCESS_METHOD grtree_am ("
                            "am_create = grt_create, am_getnext = grt_getnext,"
                            " am_sptype = 'S')",
                            &stmt)
                  .ok());
  const auto& create = As<CreateAccessMethodStmt>(stmt);
  EXPECT_EQ(create.name, "grtree_am");
  ASSERT_EQ(create.properties.size(), 3u);
  EXPECT_EQ(create.properties[2].second, "S");
}

TEST(Parser, CreateOpclass) {
  Statement stmt;
  ASSERT_TRUE(Parser::Parse(
                  "CREATE OPCLASS grt_opclass FOR grtree_am "
                  "STRATEGIES(grt_overlap, grt_contains) "
                  "SUPPORT(grt_union, grt_size, grt_intersection)",
                  &stmt)
                  .ok());
  const auto& create = As<CreateOpclassStmt>(stmt);
  EXPECT_FALSE(create.is_default);
  EXPECT_EQ(create.strategies.size(), 2u);
  EXPECT_EQ(create.supports.size(), 3u);
  ASSERT_TRUE(Parser::Parse("CREATE DEFAULT OPCLASS x FOR y "
                            "STRATEGIES(a) SUPPORT(b)",
                            &stmt)
                  .ok());
  EXPECT_TRUE(As<CreateOpclassStmt>(stmt).is_default);
}

TEST(Parser, CreateIndexMatchesPaperExample) {
  Statement stmt;
  ASSERT_TRUE(Parser::Parse("CREATE INDEX grt_index ON "
                            "employees(column1 grt_opclass) USING grtree_am "
                            "IN spc",
                            &stmt)
                  .ok());
  const auto& create = As<CreateIndexStmt>(stmt);
  EXPECT_EQ(create.name, "grt_index");
  EXPECT_EQ(create.table, "employees");
  ASSERT_EQ(create.columns.size(), 1u);
  EXPECT_EQ(create.columns[0].first, "column1");
  EXPECT_EQ(create.columns[0].second, "grt_opclass");
  EXPECT_EQ(create.access_method, "grtree_am");
  EXPECT_EQ(create.space, "spc");
}

TEST(Parser, CreateIndexWithoutOpclassOrSpace) {
  Statement stmt;
  ASSERT_TRUE(
      Parser::Parse("CREATE INDEX i ON t(c) USING am", &stmt).ok());
  const auto& create = As<CreateIndexStmt>(stmt);
  EXPECT_TRUE(create.columns[0].second.empty());
  EXPECT_TRUE(create.space.empty());
}

TEST(Parser, InsertSelectDeleteUpdate) {
  Statement stmt;
  ASSERT_TRUE(Parser::Parse(
                  "INSERT INTO t VALUES ('a', 42, NULL, 3.5)", &stmt)
                  .ok());
  EXPECT_EQ(As<InsertStmt>(stmt).values.size(), 4u);

  ASSERT_TRUE(Parser::Parse("SELECT * FROM t", &stmt).ok());
  EXPECT_TRUE(As<SelectStmt>(stmt).star);

  ASSERT_TRUE(Parser::Parse("SELECT COUNT(*) FROM t", &stmt).ok());
  EXPECT_TRUE(As<SelectStmt>(stmt).count_star);

  ASSERT_TRUE(Parser::Parse("DELETE FROM t WHERE a = 1", &stmt).ok());
  EXPECT_NE(As<DeleteStmt>(stmt).where, nullptr);

  ASSERT_TRUE(
      Parser::Parse("UPDATE t SET a = 1, b = 'x' WHERE c = 2", &stmt).ok());
  EXPECT_EQ(As<UpdateStmt>(stmt).assignments.size(), 2u);
}

TEST(Parser, WherePrecedenceAndCalls) {
  Statement stmt;
  ASSERT_TRUE(Parser::Parse(
                  "SELECT a FROM t WHERE Overlaps(x, 'q') AND b = 1 OR "
                  "NOT Contains(x, 'r')",
                  &stmt)
                  .ok());
  const Expr* where = As<SelectStmt>(stmt).where.get();
  ASSERT_NE(where, nullptr);
  // OR binds loosest: (Overlaps AND b=1) OR (NOT Contains).
  EXPECT_EQ(where->kind, Expr::Kind::kOr);
  ASSERT_EQ(where->children.size(), 2u);
  EXPECT_EQ(where->children[0]->kind, Expr::Kind::kAnd);
  EXPECT_EQ(where->children[1]->kind, Expr::Kind::kNot);
  const Expr* call = where->children[0]->children[0].get();
  EXPECT_EQ(call->kind, Expr::Kind::kCall);
  EXPECT_EQ(call->func, "Overlaps");
  ASSERT_EQ(call->children.size(), 2u);
  EXPECT_EQ(call->children[0]->kind, Expr::Kind::kColumn);
  EXPECT_EQ(call->children[1]->kind, Expr::Kind::kLiteral);
}

TEST(Parser, Parentheses) {
  Statement stmt;
  ASSERT_TRUE(Parser::Parse(
                  "SELECT a FROM t WHERE a = 1 AND (b = 2 OR c = 3)", &stmt)
                  .ok());
  const Expr* where = As<SelectStmt>(stmt).where.get();
  EXPECT_EQ(where->kind, Expr::Kind::kAnd);
  EXPECT_EQ(where->children[1]->kind, Expr::Kind::kOr);
}

TEST(Parser, TransactionsAndSet) {
  Statement stmt;
  ASSERT_TRUE(Parser::Parse("BEGIN WORK", &stmt).ok());
  EXPECT_NE(std::get_if<BeginWorkStmt>(&stmt), nullptr);
  ASSERT_TRUE(Parser::Parse("COMMIT WORK", &stmt).ok());
  EXPECT_NE(std::get_if<CommitWorkStmt>(&stmt), nullptr);
  ASSERT_TRUE(Parser::Parse("ROLLBACK", &stmt).ok());
  EXPECT_NE(std::get_if<RollbackWorkStmt>(&stmt), nullptr);

  ASSERT_TRUE(Parser::Parse("SET ISOLATION TO REPEATABLE READ", &stmt).ok());
  EXPECT_EQ(As<SetStmt>(stmt).argument, "REPEATABLE");
  ASSERT_TRUE(Parser::Parse("SET EXPLAIN ON", &stmt).ok());
  EXPECT_EQ(As<SetStmt>(stmt).what, SetStmt::What::kExplain);
  ASSERT_TRUE(Parser::Parse("SET CURRENT_TIME TO '01/02/2003'", &stmt).ok());
  EXPECT_EQ(As<SetStmt>(stmt).what, SetStmt::What::kCurrentTime);
  ASSERT_TRUE(Parser::Parse("SET TIME MODE TRANSACTION", &stmt).ok());
  EXPECT_EQ(As<SetStmt>(stmt).argument, "TRANSACTION");
  ASSERT_TRUE(Parser::Parse("SET TRACE grtree TO 2", &stmt).ok());
  EXPECT_EQ(As<SetStmt>(stmt).value.integer, 2);
}

TEST(Parser, CheckIndexAndUpdateStatistics) {
  Statement stmt;
  ASSERT_TRUE(Parser::Parse("CHECK INDEX grt_index", &stmt).ok());
  EXPECT_EQ(As<CheckIndexStmt>(stmt).index, "grt_index");
  ASSERT_TRUE(
      Parser::Parse("UPDATE STATISTICS FOR INDEX grt_index", &stmt).ok());
  EXPECT_EQ(As<UpdateStatisticsStmt>(stmt).index, "grt_index");
}

TEST(Parser, PrepareExecuteDeallocate) {
  Statement stmt;
  ASSERT_TRUE(Parser::Parse(
                  "PREPARE q AS SELECT a FROM t WHERE Overlaps(x, ?)", &stmt)
                  .ok());
  EXPECT_EQ(As<PrepareStmt>(stmt).name, "q");
  // The inner text is carried verbatim for the server's shared cache.
  EXPECT_EQ(As<PrepareStmt>(stmt).inner_sql,
            "SELECT a FROM t WHERE Overlaps(x, ?)");

  // Placeholders are numbered lexically, across clauses.
  size_t params = 0;
  ASSERT_TRUE(Parser::Parse("UPDATE t SET a = ?, b = ? WHERE c = ?", &stmt,
                            &params)
                  .ok());
  EXPECT_EQ(params, 3u);
  const UpdateStmt& update = As<UpdateStmt>(stmt);
  EXPECT_EQ(update.assignments[0].second.param_index, 0u);
  EXPECT_EQ(update.assignments[1].second.param_index, 1u);

  ASSERT_TRUE(Parser::Parse("EXECUTE q (1, 'x', NULL, 3.5)", &stmt).ok());
  EXPECT_EQ(As<ExecuteStmt>(stmt).name, "q");
  ASSERT_EQ(As<ExecuteStmt>(stmt).args.size(), 4u);
  EXPECT_EQ(As<ExecuteStmt>(stmt).args[0].kind, Literal::Kind::kInteger);
  EXPECT_EQ(As<ExecuteStmt>(stmt).args[2].kind, Literal::Kind::kNull);
  ASSERT_TRUE(Parser::Parse("EXECUTE q", &stmt).ok());
  EXPECT_TRUE(As<ExecuteStmt>(stmt).args.empty());

  ASSERT_TRUE(Parser::Parse("DEALLOCATE q", &stmt).ok());
  EXPECT_EQ(As<DeallocateStmt>(stmt).name, "q");
  ASSERT_TRUE(Parser::Parse("DEALLOCATE PREPARE q", &stmt).ok());
  EXPECT_EQ(As<DeallocateStmt>(stmt).name, "q");

  // Only DML can be prepared, and EXECUTE arguments are literals.
  EXPECT_FALSE(Parser::Parse("PREPARE q AS CREATE TABLE t (a int)", &stmt)
                   .ok());
  EXPECT_FALSE(Parser::Parse("PREPARE q AS", &stmt).ok());
  EXPECT_FALSE(Parser::Parse("EXECUTE q (?)", &stmt).ok());
  EXPECT_FALSE(Parser::Parse("EXECUTE q (a)", &stmt).ok());
}

TEST(Parser, Script) {
  std::vector<Statement> statements;
  ASSERT_TRUE(Parser::ParseScript(
                  "CREATE TABLE a (x int);\n"
                  "INSERT INTO a VALUES (1);\n"
                  "SELECT * FROM a;",
                  &statements)
                  .ok());
  EXPECT_EQ(statements.size(), 3u);
}

std::string Repeat(const std::string& piece, size_t times) {
  std::string out;
  out.reserve(piece.size() * times);
  for (size_t i = 0; i < times; ++i) out += piece;
  return out;
}

// NOT, parentheses, call arguments and EXPLAIN/PREPARE nest at most 256
// deep together; deeper is InvalidArgument, not a stack overflow.
TEST(Parser, NestingPastTheBoundIsRejected) {
  Statement stmt;
  const std::string select = "SELECT id FROM t WHERE ";
  for (const std::string& text : {
           select + Repeat("(", 20000) + "id = 1" + Repeat(")", 20000),
           select + Repeat("NOT ", 100000) + "id = 1",
           select + Repeat("f(", 10000) + "1" + Repeat(")", 10000),
           Repeat("EXPLAIN PROFILE ", 10000) + "SELECT * FROM t",
           Repeat("PREPARE q AS ", 10000) + "SELECT * FROM t",
           select + Repeat("(", 300) + "id = 1" + Repeat(")", 300),
       }) {
    const Status status = Parser::Parse(text, &stmt);
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    std::vector<Statement> script;
    EXPECT_TRUE(Parser::ParseScript(text, &script).IsInvalidArgument());
  }
  // Under the bound, nesting parses as before.
  ASSERT_TRUE(Parser::Parse(select + Repeat("(NOT ", 100) + "f(g(id))" +
                                Repeat(")", 100),
                            &stmt)
                  .ok());
  ASSERT_TRUE(
      Parser::Parse(Repeat("EXPLAIN PROFILE ", 100) + "SELECT * FROM t", &stmt)
          .ok());
}

// An AND or OR chain is one n-ary node however long it is, so neither the
// parser nor the tree's destructor recurses along it.
TEST(Parser, LongAndOrChainsAreFlat) {
  for (const std::string op : {" AND ", " OR "}) {
    Statement stmt;
    const size_t terms = op == " AND " ? 200000 : 20000;
    ASSERT_TRUE(Parser::Parse("SELECT id FROM t WHERE a" +
                                  Repeat(op + "a", terms - 1),
                              &stmt)
                    .ok());
    const Expr* where = std::get<SelectStmt>(stmt).where.get();
    EXPECT_EQ(where->kind,
              op == " AND " ? Expr::Kind::kAnd : Expr::Kind::kOr);
    EXPECT_EQ(where->children.size(), terms);
  }
}

TEST(Parser, Errors) {
  Statement stmt;
  EXPECT_FALSE(Parser::Parse("", &stmt).ok());
  EXPECT_FALSE(Parser::Parse("SELEC * FROM t", &stmt).ok());
  EXPECT_FALSE(Parser::Parse("SELECT * FROM", &stmt).ok());
  EXPECT_FALSE(Parser::Parse("CREATE TABLE t ()", &stmt).ok());
  EXPECT_FALSE(Parser::Parse("INSERT INTO t VALUES (1", &stmt).ok());
  EXPECT_FALSE(Parser::Parse("SELECT * FROM t extra garbage", &stmt).ok());
  EXPECT_FALSE(Parser::Parse("SET NONSENSE TO 1", &stmt).ok());
}

// ------------------------------------------------------------ the fuzzer --

// One valid statement of every kind the parser accepts, tokens separated
// by single spaces so the mutator can work on whole tokens.
const std::vector<std::string>& FuzzCorpus() {
  static const std::vector<std::string> corpus = {
      "CREATE TABLE t ( id int , e grt_timeextent )",
      "CREATE FUNCTION f ( int , text ) RETURNING boolean EXTERNAL NAME "
      "'lib.bld(f)' LANGUAGE c NOT VARIANT NEGATOR = g COMMUTATOR = h",
      "CREATE SECONDARY ACCESS_METHOD am ( am_create = c , am_sptype = 'S' )",
      "CREATE OPCLASS oc FOR am STRATEGIES ( s1 , s2 ) SUPPORT ( u )",
      "CREATE DEFAULT OPCLASS oc FOR am STRATEGIES ( s ) SUPPORT ( u )",
      "CREATE INDEX i ON t ( e oc ) USING am IN spc",
      "DROP TABLE t",
      "DROP INDEX i",
      "DROP FUNCTION f",
      "DROP SECONDARY ACCESS_METHOD am",
      "DROP OPCLASS oc",
      "INSERT INTO t VALUES ( 1 , -2.5 , 'x''y' , NULL , ? )",
      "SELECT * FROM t WHERE Overlaps ( e , '1, UC, 1, NOW' ) AND NOT ( id "
      "= 1 OR id <> 2 )",
      "SELECT COUNT ( * ) FROM t WHERE id >= 3",
      "SELECT id , e FROM t WHERE f ( g ( id ) , \"s\" ) AND id < 4.5",
      "DELETE FROM t WHERE id <= 5 OR NOT id > 6",
      "UPDATE t SET id = 1 , e = 'x' WHERE id = ?",
      "UPDATE STATISTICS FOR INDEX i",
      "SET ISOLATION TO COMMITTED READ",
      "SET EXPLAIN ON",
      "SET CURRENT_TIME TO '01/02/2003'",
      "SET TIME MODE STATEMENT",
      "SET TRACE grtree TO 2",
      "SET SLOW_QUERY_NS = 1000",
      "SET TRACE_SAMPLE TO 4",
      "SET HEAT_TRACK = 1",
      "CHECK INDEX i",
      "EXPLAIN PROFILE SELECT * FROM t WHERE id = 1",
      "EXPLAIN TRACE DELETE FROM t WHERE ( id = 1 )",
      "LOAD FROM 'f.unl' INSERT INTO t",
      "UNLOAD TO 'f.unl' SELECT * FROM t WHERE id = 1",
      "PREPARE q AS SELECT id FROM t WHERE Equal ( e , ? )",
      "EXECUTE q ( 1 , 'x' , NULL , 2.5 )",
      "DEALLOCATE PREPARE q",
      "DUMP TRACE JSON",
      "DUMP HEAT",
      "DUMP FLIGHT",
      "EXPORT METRICS",
      "BEGIN WORK",
      "COMMIT WORK",
      "ROLLBACK",
  };
  return corpus;
}

std::vector<std::string> SplitTokens(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string word; in >> word;) out.push_back(word);
  return out;
}

std::string JoinTokens(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& word : words) {
    if (!out.empty()) out += ' ';
    out += word;
  }
  return out;
}

void MutateSql(std::mt19937* rng, std::string* sql) {
  auto below = [rng](size_t n) {
    return n == 0 ? size_t{0}
                  : std::uniform_int_distribution<size_t>(0, n - 1)(*rng);
  };
  std::vector<std::string> words = SplitTokens(*sql);
  const size_t at = below(words.size() + 1);
  switch (below(9)) {
    case 0:  // bit flips
      for (size_t i = 0, n = 1 + below(4); i < n && !sql->empty(); ++i) {
        (*sql)[below(sql->size())] ^= static_cast<char>(1u << below(8));
      }
      return;
    case 1:  // truncation
      sql->resize(below(sql->size() + 1));
      return;
    case 2:  // drop a token
      if (!words.empty()) words.erase(words.begin() + below(words.size()));
      break;
    case 3:  // duplicate a token
      if (!words.empty()) {
        const std::string word = words[below(words.size())];
        words.insert(words.begin() + at, word);
      }
      break;
    case 4:  // swap two tokens
      if (!words.empty()) {
        std::swap(words[below(words.size())], words[below(words.size())]);
      }
      break;
    case 5: {  // a digit run past what int64 holds
      std::string digits = below(2) == 0 ? "-" : "";
      for (size_t i = 0, n = 19 + below(400); i < n; ++i) {
        digits.push_back(static_cast<char>('0' + below(10)));
      }
      if (below(2) == 0) digits.insert(1 + below(digits.size() - 1), ".");
      words.insert(words.begin() + at, digits);
      break;
    }
    case 6:  // an unbalanced quote
      sql->insert(below(sql->size() + 1), below(2) == 0 ? "'" : "\"");
      return;
    case 7: {  // nesting around the bound and far past it
      const size_t depths[] = {100, 256, 257, 1000, 20000};
      const size_t depth = depths[below(std::size(depths))];
      const std::string opens[] = {"(", "NOT ", "f(", "EXPLAIN PROFILE "};
      // The deepest only as parentheses, the cheapest to tokenize.
      const std::string& open =
          depth == 20000 ? opens[0] : opens[below(std::size(opens))];
      if (open.back() == '(') {
        words.insert(words.begin() + at, Repeat(")", depth));
      }
      // Right after WHERE, where an expression starts, when there is one.
      const auto where = std::find(words.begin(), words.end(), "WHERE");
      words.insert(where != words.end() ? where + 1
                                        : words.begin() + below(words.size()),
                   Repeat(open, depth));
      break;
    }
    default: {  // an AND/OR chain of thousands of terms after WHERE
      const auto where = std::find(words.begin(), words.end(), "WHERE");
      if (where == words.end()) break;
      const std::string op = below(2) == 0 ? " AND " : " OR ";
      words.insert(where + 1,
                   Repeat("id = 1" + op, 1000 + below(1000)) + "NOT");
      break;
    }
  }
  *sql = JoinTokens(words);
}

// Seeded mutants of valid statements: each Parse and ParseScript returns
// OK or InvalidArgument — never a crash, a hang or another code.
TEST(Parser, SeededMutationFuzz) {
  const std::vector<std::string>& corpus = FuzzCorpus();
  Statement stmt;
  for (const std::string& text : corpus) {
    ASSERT_TRUE(Parser::Parse(text, &stmt).ok()) << text;
  }
  std::mt19937 rng(20261019);
  constexpr int kIterations = 1000;
  int parsed = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::string sql = corpus[rng() % corpus.size()];
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < mutations; ++m) MutateSql(&rng, &sql);
    const Status status = Parser::Parse(sql, &stmt);
    ASSERT_TRUE(status.ok() || status.IsInvalidArgument())
        << "iteration " << i << ": " << status.ToString();
    if (status.ok()) ++parsed;
    std::vector<Statement> script;
    const Status script_status = Parser::ParseScript(
        sql + "; " + corpus[rng() % corpus.size()], &script);
    ASSERT_TRUE(script_status.ok() || script_status.IsInvalidArgument())
        << "iteration " << i << ": " << script_status.ToString();
  }
  // The mutants reach past the first check: some still parse.
  EXPECT_GT(parsed, 0);
}

}  // namespace
}  // namespace sql
}  // namespace grtdb
