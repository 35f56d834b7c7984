#ifndef GRTDB_TEMPORAL_REGION_H_
#define GRTDB_TEMPORAL_REGION_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>

#include "temporal/extent.h"

namespace grtdb {

// A *resolved* bitemporal region: concrete geometry in the (transaction
// time, valid time) plane at one evaluation time. UC/NOW variables have
// already been substituted (see BoundSpec::Resolve / ResolveExtent).
//
// Two shapes occur (paper §2-§3):
//   Rect  — [tt1, tt2] x [vt1, vt2], closed intervals;
//   Stair — {(tt, vt) : tt1 <= tt <= tt2, vt1 <= vt <= tt}, the stair shape
//           produced by VTend = NOW (valid time extends to the then-current
//           time at every transaction-time instant).
//
// Coordinates are integer chronons; Area/Margin/IntersectionArea use the
// continuous closed-interval measure, which property tests validate against
// a rasterized brute force.
class Region {
 public:
  enum class Kind { kEmpty, kRect, kStair };

  Region() : kind_(Kind::kEmpty), tt1_(0), tt2_(0), vt1_(0), vt2_(0) {}

  static Region Empty() { return Region(); }
  static Region Rect(int64_t tt1, int64_t tt2, int64_t vt1, int64_t vt2) {
    if (tt1 > tt2 || vt1 > vt2) return Empty();
    return Region(Kind::kRect, tt1, tt2, vt1, vt2);
  }
  static Region Stair(int64_t tt1, int64_t tt2, int64_t vt1) {
    // Points require vt1 <= vt <= tt, so the populated transaction-time
    // range starts at max(tt1, vt1); normalize so equality tests are
    // structural.
    const int64_t eff_tt1 = std::max(tt1, vt1);
    if (eff_tt1 > tt2) return Empty();
    if (eff_tt1 == tt2) {
      // Degenerate stair: a vertical segment — canonicalize to a rectangle.
      return Region(Kind::kRect, tt2, tt2, vt1, tt2);
    }
    return Region(Kind::kStair, eff_tt1, tt2, vt1, /*vt2=*/tt2);
  }

  Kind kind() const { return kind_; }
  bool IsEmpty() const { return kind_ == Kind::kEmpty; }
  bool IsStair() const { return kind_ == Kind::kStair; }

  int64_t tt1() const { return tt1_; }
  int64_t tt2() const { return tt2_; }
  int64_t vt1() const { return vt1_; }
  // Highest valid-time coordinate in the region (== tt2 for stairs).
  int64_t vt2() const { return vt2_; }

  // True iff point (tt, vt) lies inside the region.
  bool ContainsPoint(int64_t tt, int64_t vt) const;

  // Inline: a GR-tree scan runs them on every entry it tests.
  bool Overlaps(const Region& other) const {
    if (IsEmpty() || other.IsEmpty()) return false;
    const int64_t t_lo = std::max(tt1_, other.tt1_);
    const int64_t t_hi = std::min(tt2_, other.tt2_);
    if (t_lo > t_hi) return false;
    if (kind_ == Kind::kRect && other.kind_ == Kind::kRect) {
      return vt1_ <= other.vt2_ && other.vt1_ <= vt2_;
    }
    if (kind_ == Kind::kStair && other.kind_ == Kind::kStair) {
      return std::max(vt1_, other.vt1_) <= t_hi;
    }
    // One stair, one rectangle.
    const Region& stair = (kind_ == Kind::kStair) ? *this : other;
    const Region& rect = (kind_ == Kind::kStair) ? other : *this;
    return t_hi >= stair.vt1_ && t_hi >= rect.vt1_ && rect.vt2_ >= stair.vt1_;
  }
  bool Contains(const Region& other) const {
    if (other.IsEmpty()) return true;
    if (IsEmpty()) return false;
    if (kind_ == Kind::kRect) {
      // A rectangle contains any region iff it contains the region's
      // bounding rectangle corners (stairs are normalized, so vt2 == tt2 is
      // the top).
      return tt1_ <= other.tt1_ && other.tt2_ <= tt2_ &&
             vt1_ <= other.vt1_ && other.vt2_ <= vt2_;
    }
    // This is a stair.
    if (other.kind_ == Kind::kRect) {
      return tt1_ <= other.tt1_ && other.tt2_ <= tt2_ &&
             vt1_ <= other.vt1_ &&
             other.vt2_ <= other.tt1_;  // the rectangle's top-left corner
                                        // must be under the diagonal
    }
    // Stair contains stair.
    return tt1_ <= other.tt1_ && other.tt2_ <= tt2_ && vt1_ <= other.vt1_;
  }
  bool Equals(const Region& other) const {
    if (kind_ != other.kind_) return false;
    if (kind_ == Kind::kEmpty) return true;
    return tt1_ == other.tt1_ && tt2_ == other.tt2_ && vt1_ == other.vt1_ &&
           vt2_ == other.vt2_;
  }

  double Area() const;
  // Half-perimeter (width + height) of the region's bounding rectangle; the
  // R*-style margin metric.
  double Margin() const;
  double IntersectionArea(const Region& other) const;

  // Smallest Region of either kind covering both. Produces a stair only
  // when both inputs lie entirely under the vt = tt diagonal.
  static Region Enclose(const Region& a, const Region& b);

  // The bounding rectangle of this region.
  Region BoundingRect() const;

  // Dead space of a parent region with respect to the child regions it
  // bounds: Area(parent) - Area(union of children). Children must be
  // pairwise processed; this uses inclusion-exclusion up to pairs and is
  // exact only when children overlap pairwise but not triple-wise, so the
  // bench reports it via Monte Carlo sampling instead; see DeadSpaceSampled.
  static double DeadSpaceSampled(const Region& parent,
                                 std::span<const Region> children,
                                 uint64_t samples, uint64_t seed);

  std::string ToString() const;

 private:
  Region(Kind kind, int64_t tt1, int64_t tt2, int64_t vt1, int64_t vt2)
      : kind_(kind), tt1_(tt1), tt2_(tt2), vt1_(vt1), vt2_(vt2) {}

  Kind kind_;
  int64_t tt1_, tt2_, vt1_, vt2_;
};

// Resolves a stored 4TS extent into concrete geometry at current time `ct`,
// applying the paper's §3 substitution ("IF TTend = UC THEN TTend := ct;
// IF VTend = NOW THEN VTend := TTend"). Cases 1-2 yield rectangles, cases
// 3-6 stair shapes.
inline Region ResolveExtent(const TimeExtent& extent, int64_t ct) {
  const int64_t tte = extent.tt_end.is_uc() ? ct : extent.tt_end.chronon();
  const int64_t tt1 = extent.tt_begin.chronon();
  const int64_t vt1 = extent.vt_begin.chronon();
  if (extent.vt_end.is_now()) {
    return Region::Stair(tt1, tte, vt1);
  }
  return Region::Rect(tt1, tte, vt1, extent.vt_end.chronon());
}

// The encoded form of a region as stored in a GR-tree entry: four
// timestamps plus the "Rectangle" and "Hidden" flags (paper §3). Leaf
// entries are encodings of data extents (flags derived); non-leaf entries
// encode minimum bounding regions of child nodes.
struct BoundSpec {
  Timestamp tt_begin;
  Timestamp tt_end;    // may be UC
  Timestamp vt_begin;
  Timestamp vt_end;    // may be NOW
  bool rectangle = true;
  bool hidden = false;

  BoundSpec() = default;

  // Leaf encoding of a data extent: stair iff VTend = NOW.
  static BoundSpec FromExtent(const TimeExtent& extent);

  // Minimum bounding region of a set of child bounds, valid at current time
  // `ct` *and at every later time*, assuming children evolve only by their
  // own UC/NOW growth. Chooses a stair shape when every child lies under
  // the vt = tt diagonal for all time; otherwise a rectangle, setting the
  // Hidden flag when a growing child is currently concealed below a fixed
  // valid-time top (paper Fig. 4(c)).
  static BoundSpec Enclose(std::span<const BoundSpec> children, int64_t ct);

  // Concrete geometry at current time `ct`. Applies the Hidden-flag
  // adjustment of §3 ("IF Hidden AND VTend fixed AND VTend < ct THEN
  // VTend := NOW") before the UC/NOW substitution.
  Region Resolve(int64_t ct) const {
    const int64_t tte = tt_end.is_uc() ? ct : tt_end.chronon();
    const int64_t tt1 = tt_begin.chronon();
    const int64_t vt1 = vt_begin.chronon();
    if (!rectangle) {
      return Region::Stair(tt1, tte, vt1);
    }
    int64_t vte;
    if (vt_end.is_now()) {
      vte = tte;
    } else if (hidden) {
      // Paper §3: "IF flag Hidden is set AND VTend is fixed AND VTend is
      // less than the current time THEN set VTend to NOW". Taking the max
      // keeps the fixed top while the grower is still concealed and
      // switches to the growing top once it escapes.
      vte = std::max(vt_end.chronon(), tte);
    } else {
      vte = vt_end.chronon();
    }
    return Region::Rect(tt1, tte, vt1, vte);
  }

  // True when the region still grows as time passes.
  bool Grows() const { return tt_end.is_uc(); }

  // True when the region lies under the vt = tt diagonal at every current
  // time (so a stair shape can bound it).
  bool UnderDiagonalForAllTime() const;

  // True when Resolve(ct).Contains(child.Resolve(ct)); the per-time
  // containment the GR-tree invariant checker samples.
  bool ContainsAt(const BoundSpec& child, int64_t ct) const;

  std::string ToString() const;

  friend bool operator==(const BoundSpec& a, const BoundSpec& b) {
    return a.tt_begin == b.tt_begin && a.tt_end == b.tt_end &&
           a.vt_begin == b.vt_begin && a.vt_end == b.vt_end &&
           a.rectangle == b.rectangle && a.hidden == b.hidden;
  }

  // Fixed-size binary encoding: the four timestamps in TimeExtent's
  // encoding, then one flag byte (bit 0 Rectangle, bit 1 Hidden).
  static constexpr size_t kBinarySize = TimeExtent::kBinarySize + 1;
  void EncodeTo(uint8_t* out) const {
    TimeExtent(tt_begin, tt_end, vt_begin, vt_end).EncodeTo(out);
    out[TimeExtent::kBinarySize] =
        static_cast<uint8_t>((rectangle ? 1 : 0) | (hidden ? 2 : 0));
  }
  static BoundSpec DecodeFrom(const uint8_t* in) {
    const TimeExtent extent = TimeExtent::DecodeFrom(in);
    const uint8_t flags = in[TimeExtent::kBinarySize];
    BoundSpec spec;
    spec.tt_begin = extent.tt_begin;
    spec.tt_end = extent.tt_end;
    spec.vt_begin = extent.vt_begin;
    spec.vt_end = extent.vt_end;
    spec.rectangle = (flags & 1) != 0;
    spec.hidden = (flags & 2) != 0;
    return spec;
  }
};

}  // namespace grtdb

#endif  // GRTDB_TEMPORAL_REGION_H_
