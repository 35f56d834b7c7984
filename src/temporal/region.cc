#include "temporal/region.h"

#include <algorithm>
#include <cassert>

#include "common/random.h"

namespace grtdb {

bool Region::ContainsPoint(int64_t tt, int64_t vt) const {
  switch (kind_) {
    case Kind::kEmpty:
      return false;
    case Kind::kRect:
      return tt1_ <= tt && tt <= tt2_ && vt1_ <= vt && vt <= vt2_;
    case Kind::kStair:
      return tt1_ <= tt && tt <= tt2_ && vt1_ <= vt && vt <= tt;
  }
  return false;
}

double Region::Area() const {
  switch (kind_) {
    case Kind::kEmpty:
      return 0.0;
    case Kind::kRect:
      return static_cast<double>(tt2_ - tt1_) *
             static_cast<double>(vt2_ - vt1_);
    case Kind::kStair: {
      // h(t) = t - vt1 over t in [tt1, tt2] (tt1 >= vt1 after
      // normalization).
      const double w = static_cast<double>(tt2_ - tt1_);
      const double mid = 0.5 * (static_cast<double>(tt1_) +
                                static_cast<double>(tt2_));
      return w * (mid - static_cast<double>(vt1_));
    }
  }
  return 0.0;
}

double Region::Margin() const {
  if (IsEmpty()) return 0.0;
  return static_cast<double>(tt2_ - tt1_) + static_cast<double>(vt2_ - vt1_);
}

namespace {

// Integral over [lo, hi] of h(t) = max(0, min(t, cap) - floor_vt); the
// cross-section height of a stair clipped by a rectangle top `cap` and a
// bottom `floor_vt`. Exact: h is piecewise linear with breakpoints at
// t = floor_vt and t = cap.
double IntegrateStairSection(double lo, double hi, double floor_vt,
                             double cap) {
  if (hi <= lo) {
    // Closed-interval semantics: a zero-width slice has zero area.
    return 0.0;
  }
  double breaks[4] = {lo, std::clamp(floor_vt, lo, hi),
                      std::clamp(cap, lo, hi), hi};
  std::sort(breaks, breaks + 4);
  auto h = [&](double t) {
    return std::max(0.0, std::min(t, cap) - floor_vt);
  };
  double area = 0.0;
  for (int i = 0; i < 3; ++i) {
    const double a = breaks[i];
    const double b = breaks[i + 1];
    if (b <= a) continue;
    area += 0.5 * (h(a) + h(b)) * (b - a);
  }
  return area;
}

}  // namespace

double Region::IntersectionArea(const Region& other) const {
  if (IsEmpty() || other.IsEmpty()) return 0.0;
  const double t_lo = static_cast<double>(std::max(tt1_, other.tt1_));
  const double t_hi = static_cast<double>(std::min(tt2_, other.tt2_));
  if (t_lo > t_hi) return 0.0;
  if (kind_ == Kind::kRect && other.kind_ == Kind::kRect) {
    const double v_lo = static_cast<double>(std::max(vt1_, other.vt1_));
    const double v_hi = static_cast<double>(std::min(vt2_, other.vt2_));
    if (v_lo > v_hi) return 0.0;
    return (t_hi - t_lo) * (v_hi - v_lo);
  }
  if (kind_ == Kind::kStair && other.kind_ == Kind::kStair) {
    const double floor_vt = static_cast<double>(std::max(vt1_, other.vt1_));
    const double a0 = std::max(t_lo, floor_vt);
    if (a0 > t_hi) return 0.0;
    return (t_hi - a0) * (0.5 * (t_hi + a0) - floor_vt);
  }
  const Region& stair = (kind_ == Kind::kStair) ? *this : other;
  const Region& rect = (kind_ == Kind::kStair) ? other : *this;
  const double floor_vt =
      static_cast<double>(std::max(stair.vt1_, rect.vt1_));
  return IntegrateStairSection(t_lo, t_hi, floor_vt,
                               static_cast<double>(rect.vt2_));
}

Region Region::Enclose(const Region& a, const Region& b) {
  if (a.IsEmpty()) return b;
  if (b.IsEmpty()) return a;
  auto under_diagonal = [](const Region& r) {
    if (r.kind_ == Kind::kStair) return true;
    return r.vt2_ <= r.tt1_;
  };
  const int64_t tt1 = std::min(a.tt1_, b.tt1_);
  const int64_t tt2 = std::max(a.tt2_, b.tt2_);
  const int64_t vt1 = std::min(a.vt1_, b.vt1_);
  if (under_diagonal(a) && under_diagonal(b)) {
    return Stair(tt1, tt2, vt1);
  }
  return Rect(tt1, tt2, vt1, std::max(a.vt2_, b.vt2_));
}

Region Region::BoundingRect() const {
  if (IsEmpty()) return Empty();
  return Rect(tt1_, tt2_, vt1_, vt2_);
}

double Region::DeadSpaceSampled(const Region& parent,
                                std::span<const Region> children,
                                uint64_t samples, uint64_t seed) {
  const double parent_area = parent.Area();
  if (parent_area <= 0.0 || samples == 0) return 0.0;
  Random rng(seed);
  const double w = static_cast<double>(parent.tt2_ - parent.tt1_);
  const double h = static_cast<double>(parent.vt2_ - parent.vt1_);
  uint64_t in_parent = 0;
  uint64_t dead = 0;
  for (uint64_t i = 0; i < samples; ++i) {
    const double tt = static_cast<double>(parent.tt1_) + rng.NextDouble() * w;
    const double vt = static_cast<double>(parent.vt1_) + rng.NextDouble() * h;
    // Continuous point-in-region test (ContainsPoint is integral; inline the
    // continuous version here).
    auto contains = [&](const Region& r) {
      if (r.IsEmpty()) return false;
      if (tt < static_cast<double>(r.tt1_) ||
          tt > static_cast<double>(r.tt2_) ||
          vt < static_cast<double>(r.vt1_)) {
        return false;
      }
      if (r.kind_ == Kind::kRect) return vt <= static_cast<double>(r.vt2_);
      return vt <= tt;
    };
    if (!contains(parent)) continue;
    ++in_parent;
    bool covered = false;
    for (const Region& child : children) {
      if (contains(child)) {
        covered = true;
        break;
      }
    }
    if (!covered) ++dead;
  }
  if (in_parent == 0) return 0.0;
  return parent_area * static_cast<double>(dead) /
         static_cast<double>(in_parent);
}

std::string Region::ToString() const {
  switch (kind_) {
    case Kind::kEmpty:
      return "empty";
    case Kind::kRect:
      return "rect[" + std::to_string(tt1_) + "," + std::to_string(tt2_) +
             "]x[" + std::to_string(vt1_) + "," + std::to_string(vt2_) + "]";
    case Kind::kStair:
      return "stair(tt=[" + std::to_string(tt1_) + "," +
             std::to_string(tt2_) + "],vt1=" + std::to_string(vt1_) + ")";
  }
  return "?";
}

BoundSpec BoundSpec::FromExtent(const TimeExtent& extent) {
  BoundSpec spec;
  spec.tt_begin = extent.tt_begin;
  spec.tt_end = extent.tt_end;
  spec.vt_begin = extent.vt_begin;
  spec.vt_end = extent.vt_end;
  spec.rectangle = !extent.vt_end.is_now();
  spec.hidden = false;
  return spec;
}

bool BoundSpec::UnderDiagonalForAllTime() const {
  if (!rectangle) return true;
  if (vt_end.is_now() || hidden) return false;
  return vt_end.chronon() <= tt_begin.chronon();
}

BoundSpec BoundSpec::Enclose(std::span<const BoundSpec> children,
                             int64_t ct) {
  assert(!children.empty());
  int64_t tt1 = children[0].tt_begin.chronon();
  int64_t vt1 = children[0].vt_begin.chronon();
  bool grows_tt = false;
  int64_t tt_fixed_max = 0;
  bool has_tt_fixed = false;
  bool all_under_diagonal = true;
  bool any_vt_grow = false;
  int64_t vt_fixed_max = 0;
  bool has_vt_fixed = false;

  for (const BoundSpec& child : children) {
    tt1 = std::min(tt1, child.tt_begin.chronon());
    vt1 = std::min(vt1, child.vt_begin.chronon());
    if (child.tt_end.is_uc()) {
      grows_tt = true;
    } else {
      tt_fixed_max = has_tt_fixed
                         ? std::max(tt_fixed_max, child.tt_end.chronon())
                         : child.tt_end.chronon();
      has_tt_fixed = true;
    }
    if (!child.UnderDiagonalForAllTime()) all_under_diagonal = false;

    // Valid-time top behaviour of the child: it either grows with the
    // current time, or is capped by a fixed value, or (hidden, frozen) by
    // max(fixed, tt-end).
    auto add_fixed = [&](int64_t v) {
      vt_fixed_max = has_vt_fixed ? std::max(vt_fixed_max, v) : v;
      has_vt_fixed = true;
    };
    if (child.vt_end.is_now() || !child.rectangle) {
      // Stairs and NOW-rectangles top out at the resolved TTend.
      if (child.tt_end.is_uc()) {
        any_vt_grow = true;
      } else {
        add_fixed(child.tt_end.chronon());
      }
    } else if (child.hidden) {
      add_fixed(child.vt_end.chronon());
      if (child.tt_end.is_uc()) {
        any_vt_grow = true;
      } else {
        add_fixed(child.tt_end.chronon());
      }
    } else {
      add_fixed(child.vt_end.chronon());
    }
  }

  BoundSpec bound;
  bound.tt_begin = Timestamp::FromChronon(tt1);
  bound.vt_begin = Timestamp::FromChronon(vt1);
  bound.tt_end = grows_tt ? Timestamp::UC()
                          : Timestamp::FromChronon(tt_fixed_max);

  if (all_under_diagonal) {
    bound.rectangle = false;
    bound.hidden = false;
    bound.vt_end = Timestamp::NOW();
    return bound;
  }

  bound.rectangle = true;
  if (!any_vt_grow) {
    bound.vt_end = Timestamp::FromChronon(vt_fixed_max);
    bound.hidden = false;
  } else if (!has_vt_fixed || vt_fixed_max <= ct) {
    // Every fixed top is already at or below the growing edge: the bound
    // simply grows (a rectangle growing in both dimensions).
    bound.vt_end = Timestamp::NOW();
    bound.hidden = false;
  } else {
    // A growing child is currently concealed below a higher fixed top —
    // the Fig. 4(c) situation. Track it with the Hidden flag.
    bound.vt_end = Timestamp::FromChronon(vt_fixed_max);
    bound.hidden = true;
  }
  return bound;
}

bool BoundSpec::ContainsAt(const BoundSpec& child, int64_t ct) const {
  return Resolve(ct).Contains(child.Resolve(ct));
}

std::string BoundSpec::ToString() const {
  std::string out = "[" + tt_begin.ToChrononString() + ", " +
                    tt_end.ToChrononString() + ", " +
                    vt_begin.ToChrononString() + ", " +
                    vt_end.ToChrononString() + "]";
  out += rectangle ? " R" : " S";
  if (hidden) out += " H";
  return out;
}

}  // namespace grtdb
