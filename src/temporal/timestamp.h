#ifndef GRTDB_TEMPORAL_TIMESTAMP_H_
#define GRTDB_TEMPORAL_TIMESTAMP_H_

#include <cstdint>
#include <limits>
#include <string>

#include "common/status.h"

namespace grtdb {

// A bitemporal timestamp: either a ground chronon (day number, granularity =
// day per paper §5.1) or one of the two variables of the four-timestamp
// format [SNO87, CLI97]:
//   UC  ("until changed") — only legal as a transaction-time end, tracks the
//        current time in the transaction-time dimension;
//   NOW — only legal as a valid-time end, tracks the current time in the
//        valid-time dimension.
class Timestamp {
 public:
  // Default-constructed timestamps are ground chronon 0 (1970-01-01).
  constexpr Timestamp() : value_(0) {}

  static constexpr Timestamp UC() { return Timestamp(kUCValue); }
  static constexpr Timestamp NOW() { return Timestamp(kNOWValue); }
  static constexpr Timestamp FromChronon(int64_t chronon) {
    return Timestamp(chronon);
  }

  constexpr bool is_uc() const { return value_ == kUCValue; }
  constexpr bool is_now() const { return value_ == kNOWValue; }
  constexpr bool IsGround() const { return !is_uc() && !is_now(); }

  // The ground chronon. Must not be called on UC/NOW.
  constexpr int64_t chronon() const { return value_; }

  // Resolves this timestamp at current time `ct`: UC and NOW both become
  // `ct`; ground values are unchanged. (Callers implementing the paper's
  // exact §3 algorithm — "set VTend to TTend" — resolve TTend first and pass
  // the result; for a single timestamp the two coincide.)
  constexpr int64_t ResolveAt(int64_t ct) const {
    return IsGround() ? value_ : ct;
  }

  // Raw encoding for serialization. Round-trips through FromRaw.
  constexpr int64_t raw() const { return value_; }
  static constexpr Timestamp FromRaw(int64_t raw) { return Timestamp(raw); }

  // Parses "UC", "NOW", an mm/dd/yyyy date, or a bare integer chronon;
  // ground values must lie in kMinDayNumber .. kMaxDayNumber (date.h).
  static Status Parse(const std::string& text, Timestamp* out);

  // "UC", "NOW", or the mm/dd/yyyy date.
  std::string ToString() const;

  // Bare chronon rendering ("UC"/"NOW" or the integer), used in test
  // diagnostics where day numbers are easier to eyeball than dates.
  std::string ToChrononString() const;

  friend constexpr bool operator==(Timestamp a, Timestamp b) {
    return a.value_ == b.value_;
  }
  friend constexpr bool operator!=(Timestamp a, Timestamp b) {
    return a.value_ != b.value_;
  }

 private:
  static constexpr int64_t kUCValue = std::numeric_limits<int64_t>::max();
  static constexpr int64_t kNOWValue = std::numeric_limits<int64_t>::max() - 1;

  explicit constexpr Timestamp(int64_t value) : value_(value) {}

  int64_t value_;
};

}  // namespace grtdb

#endif  // GRTDB_TEMPORAL_TIMESTAMP_H_
