#include "common/date.h"

#include <cstdio>

namespace grtdb {

namespace {

bool IsLeap(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int DaysInMonth(int year, int month) {
  static constexpr int kDays[] = {31, 28, 31, 30, 31, 30,
                                  31, 31, 30, 31, 30, 31};
  if (month == 2 && IsLeap(year)) return 29;
  return kDays[month - 1];
}

// Reads the digits of one mm/dd/yyyy field from text[*pos] and the `end`
// that follows them ('/', or '\0' for the end of the text), leaving *pos
// past it. False on no digit, on any other character, or once the value
// exceeds `max`: no field can overflow an int.
bool ParseDateField(const std::string& text, char end, int max, size_t* pos,
                    int* out) {
  size_t i = *pos;
  int value = 0;
  for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
    value = value * 10 + (text[i] - '0');
    if (value > max) return false;
  }
  const bool ended = end == '\0' ? i == text.size()
                                 : i < text.size() && text[i] == end;
  if (i == *pos || !ended) return false;
  *pos = i + 1;
  *out = value;
  return true;
}

}  // namespace

int64_t DayNumberFromCivil(const CivilDate& date) {
  int64_t y = date.year;
  unsigned m = static_cast<unsigned>(date.month);
  unsigned d = static_cast<unsigned>(date.day);
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

CivilDate CivilFromDayNumber(int64_t day_number) {
  int64_t z = day_number + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : -9);
  CivilDate out;
  out.year = static_cast<int>(y + (m <= 2));
  out.month = static_cast<int>(m);
  out.day = static_cast<int>(d);
  return out;
}

bool IsValidCivil(const CivilDate& date) {
  if (date.month < 1 || date.month > 12) return false;
  if (date.day < 1 || date.day > DaysInMonth(date.year, date.month)) {
    return false;
  }
  return true;
}

Status ParseDate(const std::string& text, int64_t* day_number) {
  // Months and days get two digits' worth of room, years the four
  // FormatDate renders.
  int month = 0;
  int day = 0;
  int year = 0;
  size_t pos = 0;
  if (!ParseDateField(text, '/', 99, &pos, &month) ||
      !ParseDateField(text, '/', 99, &pos, &day) ||
      !ParseDateField(text, '\0', 9999, &pos, &year)) {
    return Status::InvalidArgument("expected mm/dd/yyyy date, got '" + text +
                                   "'");
  }
  if (year < 100) year += (year < 50) ? 2000 : 1900;
  CivilDate date{year, month, day};
  if (!IsValidCivil(date)) {
    return Status::InvalidArgument("invalid calendar date '" + text + "'");
  }
  *day_number = DayNumberFromCivil(date);
  return Status::OK();
}

std::string FormatDate(int64_t day_number) {
  CivilDate date = CivilFromDayNumber(day_number);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%02d/%02d/%04d", date.month, date.day,
                date.year);
  return buf;
}

}  // namespace grtdb
