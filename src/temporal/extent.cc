#include "temporal/extent.h"

#include "common/strings.h"

namespace grtdb {

Status TimeExtent::Validate() const {
  if (!tt_begin.IsGround()) {
    return Status::InvalidArgument("TTbegin must be a ground value");
  }
  if (!vt_begin.IsGround()) {
    return Status::InvalidArgument("VTbegin must be a ground value");
  }
  if (tt_end.is_now()) {
    return Status::InvalidArgument("TTend may not be NOW");
  }
  if (vt_end.is_uc()) {
    return Status::InvalidArgument("VTend may not be UC");
  }
  if (tt_end.IsGround() && tt_end.chronon() < tt_begin.chronon()) {
    return Status::InvalidArgument("TTend precedes TTbegin");
  }
  if (vt_end.IsGround() && vt_end.chronon() < vt_begin.chronon()) {
    return Status::InvalidArgument("VTend precedes VTbegin");
  }
  if (vt_end.is_now() && tt_begin.chronon() < vt_begin.chronon()) {
    return Status::InvalidArgument(
        "VTend = NOW requires TTbegin >= VTbegin (cases 3-6 of Fig. 2)");
  }
  return Status::OK();
}

Status TimeExtent::ValidateInsertion(int64_t ct) const {
  GRTDB_RETURN_IF_ERROR(Validate());
  if (tt_begin.chronon() != ct) {
    return Status::InvalidArgument(
        "insertion requires TTbegin = current time");
  }
  if (!tt_end.is_uc()) {
    return Status::InvalidArgument("insertion requires TTend = UC");
  }
  if (vt_end.is_now()) {
    if (vt_begin.chronon() > ct) {
      return Status::InvalidArgument(
          "VTend = NOW requires VTbegin <= current time");
    }
  }
  return Status::OK();
}

ExtentCase TimeExtent::Classify() const {
  const bool growing = tt_end.is_uc();
  if (!vt_end.is_now()) {
    return growing ? ExtentCase::kCase1 : ExtentCase::kCase2;
  }
  const bool high_step = tt_begin.chronon() > vt_begin.chronon();
  if (growing) {
    return high_step ? ExtentCase::kCase5 : ExtentCase::kCase3;
  }
  return high_step ? ExtentCase::kCase6 : ExtentCase::kCase4;
}

Status TimeExtent::LogicalDelete(int64_t ct) {
  if (!tt_end.is_uc()) {
    return Status::InvalidArgument(
        "only current tuples (TTend = UC) can be logically deleted");
  }
  if (ct - 1 < tt_begin.chronon()) {
    return Status::InvalidArgument(
        "deletion time precedes the tuple's TTbegin");
  }
  tt_end = Timestamp::FromChronon(ct - 1);
  return Status::OK();
}

Status TimeExtent::Parse(const std::string& text, TimeExtent* out) {
  std::vector<std::string> pieces = SplitAndTrim(text, ',');
  if (pieces.size() != 4) {
    return Status::InvalidArgument(
        "time extent must have four comma-separated timestamps, got '" +
        text + "'");
  }
  TimeExtent extent;
  GRTDB_RETURN_IF_ERROR(Timestamp::Parse(pieces[0], &extent.tt_begin));
  GRTDB_RETURN_IF_ERROR(Timestamp::Parse(pieces[1], &extent.tt_end));
  GRTDB_RETURN_IF_ERROR(Timestamp::Parse(pieces[2], &extent.vt_begin));
  GRTDB_RETURN_IF_ERROR(Timestamp::Parse(pieces[3], &extent.vt_end));
  GRTDB_RETURN_IF_ERROR(extent.Validate());
  *out = extent;
  return Status::OK();
}

std::string TimeExtent::ToString() const {
  return tt_begin.ToString() + ", " + tt_end.ToString() + ", " +
         vt_begin.ToString() + ", " + vt_end.ToString();
}

std::string TimeExtent::ToChrononString() const {
  return tt_begin.ToChrononString() + ", " + tt_end.ToChrononString() + ", " +
         vt_begin.ToChrononString() + ", " + vt_end.ToChrononString();
}

}  // namespace grtdb
