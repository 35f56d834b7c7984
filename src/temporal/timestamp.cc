#include "temporal/timestamp.h"

#include "common/date.h"
#include "common/strings.h"

namespace grtdb {

Status Timestamp::Parse(const std::string& text, Timestamp* out) {
  std::string trimmed(StripWhitespace(text));
  if (EqualsIgnoreCase(trimmed, "UC")) {
    *out = Timestamp::UC();
    return Status::OK();
  }
  if (EqualsIgnoreCase(trimmed, "NOW")) {
    *out = Timestamp::NOW();
    return Status::OK();
  }
  int64_t day = 0;
  if (trimmed.find('/') != std::string::npos) {
    GRTDB_RETURN_IF_ERROR(ParseDate(trimmed, &day));
  } else if (!ParseInt64(trimmed, &day)) {
    return Status::InvalidArgument("cannot parse timestamp '" + text + "'");
  }
  // Only chronons ToString renders and Parse reads back: this also keeps
  // a ground value off the UC/NOW encodings.
  if (day < kMinDayNumber || day > kMaxDayNumber) {
    return Status::InvalidArgument("timestamp '" + text +
                                   "' is outside 01/01/0100 .. 12/31/9999");
  }
  *out = Timestamp::FromChronon(day);
  return Status::OK();
}

std::string Timestamp::ToString() const {
  if (is_uc()) return "UC";
  if (is_now()) return "NOW";
  return FormatDate(value_);
}

std::string Timestamp::ToChrononString() const {
  if (is_uc()) return "UC";
  if (is_now()) return "NOW";
  return std::to_string(value_);
}

}  // namespace grtdb
