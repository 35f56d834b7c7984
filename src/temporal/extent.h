#ifndef GRTDB_TEMPORAL_EXTENT_H_
#define GRTDB_TEMPORAL_EXTENT_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "temporal/timestamp.h"

namespace grtdb {

// The six qualitatively different combinations of the four timestamps
// (paper Fig. 2). tt1/tt2/vt1/vt2 denote ground values.
enum class ExtentCase {
  kCase1 = 1,  // [tt1, UC]  x [vt1, vt2]          — rectangle growing in tt
  kCase2 = 2,  // [tt1, tt2] x [vt1, vt2]          — static rectangle
  kCase3 = 3,  // [tt1, UC]  x [vt1, NOW], tt1=vt1 — growing stair
  kCase4 = 4,  // [tt1, tt2] x [vt1, NOW], tt1=vt1 — frozen stair
  kCase5 = 5,  // [tt1, UC]  x [vt1, NOW], tt1>vt1 — growing stair, high step
  kCase6 = 6,  // [tt1, tt2] x [vt1, NOW], tt1>vt1 — frozen stair, high step
};

// The four-timestamp (4TS) representation [SNO87] of a bitemporal tuple's
// time extent: [TTbegin, TTend] x [VTbegin, VTend], closed intervals, where
// TTend may be the variable UC and VTend may be the variable NOW. This is
// the value type behind the DataBlade's opaque SQL type grt_timeextent.
struct TimeExtent {
  Timestamp tt_begin;
  Timestamp tt_end;
  Timestamp vt_begin;
  Timestamp vt_end;

  TimeExtent() = default;
  TimeExtent(Timestamp ttb, Timestamp tte, Timestamp vtb, Timestamp vte)
      : tt_begin(ttb), tt_end(tte), vt_begin(vtb), vt_end(vte) {}

  // Convenience constructor from raw chronons; `tte`/`vte` accept the
  // sentinels via Timestamp::UC()/NOW() through the main constructor.
  static TimeExtent Ground(int64_t ttb, int64_t tte, int64_t vtb,
                           int64_t vte) {
    return TimeExtent(Timestamp::FromChronon(ttb), Timestamp::FromChronon(tte),
                      Timestamp::FromChronon(vtb),
                      Timestamp::FromChronon(vte));
  }

  // Checks structural well-formedness of a *stored* extent (any tuple that
  // can legally exist in a bitemporal relation, §2):
  //   * TTbegin and VTbegin are ground; TTbegin may not be UC/NOW.
  //   * TTend is UC or a ground value >= TTbegin.
  //   * VTend is NOW or a ground value >= VTbegin.
  //   * If VTend is NOW then TTbegin >= VTbegin (cases 3-6; recording a
  //     fact "valid until now" before it starts to be valid would make the
  //     resolved VTend precede VTbegin).
  Status Validate() const;

  // Checks the *insertion* constraints of §2 at current time `ct`:
  // TTbegin = ct, TTend = UC, VTbegin <= VTend (or VTbegin <= ct when
  // VTend is NOW). Implies Validate().
  Status ValidateInsertion(int64_t ct) const;

  // Which of the six cases of Fig. 2 this extent falls into. Requires
  // Validate().ok().
  ExtentCase Classify() const;

  // True when the region still grows as time passes (TTend == UC).
  bool IsCurrent() const { return tt_end.is_uc(); }

  // Logical deletion (§2): TTend: UC -> ct - 1. Requires IsCurrent().
  Status LogicalDelete(int64_t ct);

  // Text format used in SQL statements and results (paper §5.2):
  // "TTbegin, TTend, VTbegin, VTend", e.g. "12/10/95, UC, 12/10/95, NOW".
  static Status Parse(const std::string& text, TimeExtent* out);
  std::string ToString() const;

  // Chronon-valued rendering for test diagnostics.
  std::string ToChrononString() const;

  // Fixed-size binary encoding (4 little-endian int64s) — the "binary
  // send/receive" representation of the opaque type, and the first 32
  // bytes of a GR-tree entry's BoundSpec. Inline: tree scans decode every
  // entry they test straight off the pinned page.
  static constexpr size_t kBinarySize = 32;
  void EncodeTo(uint8_t* out) const {
    StoreI64(out, tt_begin.raw());
    StoreI64(out + 8, tt_end.raw());
    StoreI64(out + 16, vt_begin.raw());
    StoreI64(out + 24, vt_end.raw());
  }
  static TimeExtent DecodeFrom(const uint8_t* in) {
    return TimeExtent(Timestamp::FromRaw(LoadI64(in)),
                      Timestamp::FromRaw(LoadI64(in + 8)),
                      Timestamp::FromRaw(LoadI64(in + 16)),
                      Timestamp::FromRaw(LoadI64(in + 24)));
  }

  friend bool operator==(const TimeExtent& a, const TimeExtent& b) {
    return a.tt_begin == b.tt_begin && a.tt_end == b.tt_end &&
           a.vt_begin == b.vt_begin && a.vt_end == b.vt_end;
  }
};

}  // namespace grtdb

#endif  // GRTDB_TEMPORAL_EXTENT_H_
