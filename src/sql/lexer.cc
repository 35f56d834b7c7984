#include "sql/lexer.h"

#include <cctype>

#include "common/strings.h"

namespace grtdb {
namespace sql {

Status Tokenize(const std::string& input, std::vector<Token>* out) {
  out->clear();
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    const char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // -- line comments.
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    Token token;
    token.offset = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(input[i])) ||
                       input[i] == '_')) {
        ++i;
      }
      token.kind = Token::Kind::kIdentifier;
      token.text = input.substr(start, i - start);
      out->push_back(std::move(token));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      size_t start = i;
      if (c == '-') ++i;
      bool is_float = false;
      while (i < n && (std::isdigit(static_cast<unsigned char>(input[i])) ||
                       input[i] == '.')) {
        if (input[i] == '.') {
          // "1." followed by another '.' would be malformed; let strtod
          // handle precision, but a second dot ends the number.
          if (is_float) break;
          is_float = true;
        }
        ++i;
      }
      const std::string text = input.substr(start, i - start);
      token.kind = is_float ? Token::Kind::kFloat : Token::Kind::kInteger;
      if (!(is_float ? ParseDouble(text, &token.real)
                     : ParseInt64(text, &token.integer))) {
        return Status::InvalidArgument("numeric literal '" + text +
                                       "' is out of range at offset " +
                                       std::to_string(start));
      }
      token.text = text;
      out->push_back(std::move(token));
      continue;
    }
    if (c == '\'' || c == '"') {
      const char quote = c;
      ++i;
      std::string body;
      bool closed = false;
      while (i < n) {
        if (input[i] == quote) {
          if (i + 1 < n && input[i + 1] == quote) {
            body.push_back(quote);  // doubled quote escapes itself
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        body.push_back(input[i]);
        ++i;
      }
      if (!closed) {
        return Status::InvalidArgument("unterminated string literal");
      }
      token.kind = Token::Kind::kString;
      token.text = std::move(body);
      out->push_back(std::move(token));
      continue;
    }
    // Symbols, including two-character comparators.
    if (c == '<' && i + 1 < n && (input[i + 1] == '=' || input[i + 1] == '>')) {
      token.kind = Token::Kind::kSymbol;
      token.text = input.substr(i, 2);
      i += 2;
      out->push_back(std::move(token));
      continue;
    }
    if (c == '>' && i + 1 < n && input[i + 1] == '=') {
      token.kind = Token::Kind::kSymbol;
      token.text = ">=";
      i += 2;
      out->push_back(std::move(token));
      continue;
    }
    static const char kSingles[] = "(),;=<>*.?";
    bool matched = false;
    for (const char* p = kSingles; *p != '\0'; ++p) {
      if (c == *p) {
        token.kind = Token::Kind::kSymbol;
        token.text = std::string(1, c);
        ++i;
        out->push_back(std::move(token));
        matched = true;
        break;
      }
    }
    if (matched) continue;
    return Status::InvalidArgument(std::string("unexpected character '") + c +
                                   "' at offset " + std::to_string(i));
  }
  Token end;
  end.kind = Token::Kind::kEnd;
  end.offset = n;
  out->push_back(std::move(end));
  return Status::OK();
}

}  // namespace sql
}  // namespace grtdb
