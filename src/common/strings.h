#ifndef GRTDB_COMMON_STRINGS_H_
#define GRTDB_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace grtdb {

// Returns `s` with leading and trailing ASCII whitespace removed.
std::string_view StripWhitespace(std::string_view s);

// ASCII upper/lower-casing (SQL identifiers are case-insensitive).
std::string ToUpper(std::string_view s);
std::string ToLower(std::string_view s);

// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Splits `s` on `sep`, trimming whitespace from each piece. Empty pieces are
// kept so callers can detect malformed input.
std::vector<std::string> SplitAndTrim(std::string_view s, char sep);

// Parse all of `text` as a base-10 integer or a decimal number (an
// optional sign first). False when `text` is empty, holds anything after
// the number, or does not fit: an integer beyond int64, a number beyond
// the range of double.
bool ParseInt64(const std::string& text, int64_t* out);
bool ParseDouble(const std::string& text, double* out);

// Joins pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

}  // namespace grtdb

#endif  // GRTDB_COMMON_STRINGS_H_
