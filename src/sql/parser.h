#ifndef GRTDB_SQL_PARSER_H_
#define GRTDB_SQL_PARSER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/lexer.h"

namespace grtdb {
namespace sql {

// Recursive-descent parser for the SQL dialect the paper exercises:
// creation of tables, functions, secondary access methods, operator
// classes, and virtual indexes; DML with WHERE clauses combining
// strategy-function calls and comparisons; transactions; and SET commands
// (plus the simulation extensions SET CURRENT_TIME / SET TIME MODE and the
// CHECK INDEX / UPDATE STATISTICS hooks for am_check / am_stats).
class Parser {
 public:
  // Parses one statement. If param_count is non-null it receives the
  // number of `?` placeholders seen, numbered left to right — the arity
  // a later EXECUTE must match.
  static Status Parse(const std::string& text, Statement* out,
                      size_t* param_count = nullptr);

  // Parses a ;-separated script (trailing ; optional). If texts is
  // non-null it receives each statement's own text, parallel to `out`.
  static Status ParseScript(const std::string& text,
                            std::vector<Statement>* out,
                            std::vector<std::string>* texts = nullptr);

 private:
  // How deep NOT, parentheses, call arguments and the inner statements of
  // EXPLAIN and PREPARE may nest together. The parser and every walk over
  // its tree recurse once per level; AND/OR chains are flat n-ary nodes.
  static constexpr size_t kMaxNesting = 256;

  // Counts one level of nesting for as long as it lives.
  struct Nesting {
    explicit Nesting(size_t* depth) : depth(depth) { ++*depth; }
    ~Nesting() { --*depth; }
    size_t* depth;
  };

  Parser(std::vector<Token> tokens, std::string text)
      : tokens_(std::move(tokens)), text_(std::move(text)) {}

  const Token& Peek(size_t ahead = 0) const;
  Token Take();
  bool AtKeyword(const std::string& word) const;
  Status ExpectKeyword(const std::string& word);
  Status ExpectSymbol(const std::string& symbol);
  bool TrySymbol(const std::string& symbol);
  Status TakeIdentifier(std::string* out);
  // InvalidArgument once the nesting passes kMaxNesting.
  Status CheckNesting() const;

  Status ParseStatement(Statement* out);
  Status ParseCreate(Statement* out);
  Status ParseCreateTable(Statement* out);
  Status ParseCreateFunction(Statement* out);
  Status ParseCreateAccessMethod(Statement* out);
  Status ParseCreateOpclass(bool is_default, Statement* out);
  Status ParseCreateIndex(Statement* out);
  Status ParseDrop(Statement* out);
  Status ParseInsert(Statement* out);
  Status ParseSelect(Statement* out);
  Status ParseDelete(Statement* out);
  Status ParseUpdate(Statement* out);
  Status ParseSet(Statement* out);
  Status ParseCheck(Statement* out);
  Status ParseExplain(Statement* out);
  Status ParseLoad(Statement* out);
  Status ParseUnload(Statement* out);
  Status ParsePrepare(Statement* out);
  Status ParseExecute(Statement* out);
  Status ParseDeallocate(Statement* out);

  Status ParseLiteral(Literal* out);
  Status ParseExpr(std::unique_ptr<Expr>* out);
  Status ParseOr(std::unique_ptr<Expr>* out);
  Status ParseAnd(std::unique_ptr<Expr>* out);
  // `operand` (keyword `operand`)*: one n-ary `kind` node, or the single
  // operand itself.
  Status ParseChain(const char* keyword, Expr::Kind kind,
                    Status (Parser::*operand)(std::unique_ptr<Expr>*),
                    std::unique_ptr<Expr>* out);
  Status ParseNot(std::unique_ptr<Expr>* out);
  Status ParsePredicate(std::unique_ptr<Expr>* out);
  Status ParseOperand(std::unique_ptr<Expr>* out);

  std::vector<Token> tokens_;
  // Original statement text; token offsets index into it, which lets
  // EXPLAIN PROFILE / PREPARE carry their inner statement, and a script
  // each of its statements, as a text span.
  std::string text_;
  size_t pos_ = 0;
  // Number of `?` placeholders consumed so far; each gets the next index.
  size_t param_count_ = 0;
  size_t depth_ = 0;  // current nesting, see kMaxNesting
};

}  // namespace sql
}  // namespace grtdb

#endif  // GRTDB_SQL_PARSER_H_
