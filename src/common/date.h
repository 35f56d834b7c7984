#ifndef GRTDB_COMMON_DATE_H_
#define GRTDB_COMMON_DATE_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace grtdb {

// Proleptic-Gregorian civil date. The GR-tree prototype uses a granularity of
// days (paper §5.1); chronons throughout this project are day numbers with
// day 0 = 1970-01-01 (negative values reach back before the epoch).
struct CivilDate {
  int year = 1970;
  int month = 1;  // 1..12
  int day = 1;    // 1..31

  friend bool operator==(const CivilDate&, const CivilDate&) = default;
};

// Days since 1970-01-01 for the given civil date (Howard Hinnant's
// days_from_civil algorithm).
int64_t DayNumberFromCivil(const CivilDate& date);

// Inverse of DayNumberFromCivil.
CivilDate CivilFromDayNumber(int64_t day_number);

// True when `date` names a real calendar day (accounting for leap years).
bool IsValidCivil(const CivilDate& date);

// Parses "mm/dd/yyyy" (the DATE text format used in the paper's SQL
// examples, e.g. "12/10/95"; two-digit years are interpreted in 1950-2049).
// Fields are plain digits; a month or day past 99 or a year past 9999 is
// InvalidArgument.
Status ParseDate(const std::string& text, int64_t* day_number);

// Formats a day number as "mm/dd/yyyy".
std::string FormatDate(int64_t day_number);

// The day numbers FormatDate renders with a four-digit year that ParseDate
// reads back as the same day: 01/01/0100 .. 12/31/9999. (Years below 100
// would read back as two-digit years.)
inline constexpr int64_t kMinDayNumber = -683003;
inline constexpr int64_t kMaxDayNumber = 2932896;

}  // namespace grtdb

#endif  // GRTDB_COMMON_DATE_H_
