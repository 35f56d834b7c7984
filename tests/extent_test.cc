#include "temporal/extent.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "common/date.h"
#include "common/random.h"
#include "temporal/predicates.h"
#include "temporal/region.h"
#include "temporal/timestamp.h"

namespace grtdb {
namespace {

// ------------------------------------------------------------- Timestamp --

TEST(Timestamp, GroundAndVariables) {
  EXPECT_TRUE(Timestamp::FromChronon(100).IsGround());
  EXPECT_TRUE(Timestamp::UC().is_uc());
  EXPECT_TRUE(Timestamp::NOW().is_now());
  EXPECT_FALSE(Timestamp::UC().IsGround());
}

TEST(Timestamp, ResolveAt) {
  EXPECT_EQ(Timestamp::FromChronon(7).ResolveAt(100), 7);
  EXPECT_EQ(Timestamp::UC().ResolveAt(100), 100);
  EXPECT_EQ(Timestamp::NOW().ResolveAt(100), 100);
}

TEST(Timestamp, ParseVariables) {
  Timestamp ts;
  ASSERT_TRUE(Timestamp::Parse("UC", &ts).ok());
  EXPECT_TRUE(ts.is_uc());
  ASSERT_TRUE(Timestamp::Parse("now", &ts).ok());
  EXPECT_TRUE(ts.is_now());
}

TEST(Timestamp, ParseDateAndChronon) {
  Timestamp ts;
  ASSERT_TRUE(Timestamp::Parse("01/01/1970", &ts).ok());
  EXPECT_EQ(ts.chronon(), 0);
  ASSERT_TRUE(Timestamp::Parse("12345", &ts).ok());
  EXPECT_EQ(ts.chronon(), 12345);
  ASSERT_TRUE(Timestamp::Parse(" 12/10/95 ", &ts).ok());
  EXPECT_EQ(ts.ToString(), "12/10/1995");
}

TEST(Timestamp, ParseRejectsGarbage) {
  Timestamp ts;
  EXPECT_FALSE(Timestamp::Parse("not-a-time", &ts).ok());
  EXPECT_FALSE(Timestamp::Parse("13/45/1999", &ts).ok());
  EXPECT_FALSE(Timestamp::Parse("", &ts).ok());
  // A date field wider than an int, not a wrapped-around 12/10/1995.
  for (const char* text :
       {"4294967308/10/1995", "12/4294967306/1995", "12/10/4294969291"}) {
    EXPECT_TRUE(Timestamp::Parse(text, &ts).IsInvalidArgument()) << text;
  }
}

TEST(Timestamp, RawRoundTrip) {
  for (Timestamp ts : {Timestamp::UC(), Timestamp::NOW(),
                       Timestamp::FromChronon(-5), Timestamp::FromChronon(0),
                       Timestamp::FromChronon(99999)}) {
    EXPECT_EQ(Timestamp::FromRaw(ts.raw()), ts);
  }
}

// ------------------------------------------------------------ TimeExtent --

TEST(TimeExtentValidate, GroundRectangle) {
  EXPECT_TRUE(TimeExtent::Ground(10, 20, 5, 15).Validate().ok());
}

TEST(TimeExtentValidate, RejectsInvertedIntervals) {
  EXPECT_FALSE(TimeExtent::Ground(20, 10, 5, 15).Validate().ok());
  EXPECT_FALSE(TimeExtent::Ground(10, 20, 15, 5).Validate().ok());
}

TEST(TimeExtentValidate, RejectsVariableMisuse) {
  // TTend may not be NOW; VTend may not be UC; begins must be ground.
  TimeExtent bad1(Timestamp::FromChronon(1), Timestamp::NOW(),
                  Timestamp::FromChronon(1), Timestamp::FromChronon(2));
  EXPECT_FALSE(bad1.Validate().ok());
  TimeExtent bad2(Timestamp::FromChronon(1), Timestamp::UC(),
                  Timestamp::FromChronon(1), Timestamp::UC());
  EXPECT_FALSE(bad2.Validate().ok());
  TimeExtent bad3(Timestamp::UC(), Timestamp::UC(),
                  Timestamp::FromChronon(1), Timestamp::NOW());
  EXPECT_FALSE(bad3.Validate().ok());
}

TEST(TimeExtentValidate, NowRequiresTtBeginAtOrAfterVtBegin) {
  TimeExtent bad(Timestamp::FromChronon(5), Timestamp::UC(),
                 Timestamp::FromChronon(10), Timestamp::NOW());
  EXPECT_FALSE(bad.Validate().ok());
  TimeExtent ok(Timestamp::FromChronon(10), Timestamp::UC(),
                Timestamp::FromChronon(10), Timestamp::NOW());
  EXPECT_TRUE(ok.Validate().ok());
}

TEST(TimeExtentInsertion, RequiresCurrentTtBeginAndUc) {
  TimeExtent extent(Timestamp::FromChronon(100), Timestamp::UC(),
                    Timestamp::FromChronon(90), Timestamp::NOW());
  EXPECT_TRUE(extent.ValidateInsertion(100).ok());
  EXPECT_FALSE(extent.ValidateInsertion(101).ok());  // TTbegin != ct
  TimeExtent frozen = TimeExtent::Ground(100, 120, 90, 95);
  EXPECT_FALSE(frozen.ValidateInsertion(100).ok());  // TTend != UC
}

TEST(TimeExtentInsertion, NowRequiresVtBeginNotInFuture) {
  TimeExtent extent(Timestamp::FromChronon(100), Timestamp::UC(),
                    Timestamp::FromChronon(101), Timestamp::NOW());
  // Validate() already rejects tt_begin < vt_begin for NOW extents.
  EXPECT_FALSE(extent.ValidateInsertion(100).ok());
}

// The six cases of Fig. 2, as a parameterized sweep.
struct CaseSpec {
  TimeExtent extent;
  ExtentCase expected;
  Region::Kind resolved_kind;
};

class ExtentCaseTest : public ::testing::TestWithParam<CaseSpec> {};

TEST_P(ExtentCaseTest, ClassifiesAndResolves) {
  const CaseSpec& spec = GetParam();
  ASSERT_TRUE(spec.extent.Validate().ok())
      << spec.extent.ToChrononString();
  EXPECT_EQ(spec.extent.Classify(), spec.expected);
  const Region region = ResolveExtent(spec.extent, /*ct=*/200);
  EXPECT_EQ(region.kind(), spec.resolved_kind)
      << spec.extent.ToChrononString();
}

INSTANTIATE_TEST_SUITE_P(
    Fig2, ExtentCaseTest,
    ::testing::Values(
        // Case 1: [tt1, UC] x [vt1, vt2] — rectangle growing in tt.
        CaseSpec{TimeExtent(Timestamp::FromChronon(100), Timestamp::UC(),
                            Timestamp::FromChronon(50),
                            Timestamp::FromChronon(150)),
                 ExtentCase::kCase1, Region::Kind::kRect},
        // Case 2: static rectangle.
        CaseSpec{TimeExtent::Ground(100, 120, 50, 150), ExtentCase::kCase2,
                 Region::Kind::kRect},
        // Case 3: growing stair, tt1 = vt1.
        CaseSpec{TimeExtent(Timestamp::FromChronon(100), Timestamp::UC(),
                            Timestamp::FromChronon(100), Timestamp::NOW()),
                 ExtentCase::kCase3, Region::Kind::kStair},
        // Case 4: frozen stair.
        CaseSpec{TimeExtent(Timestamp::FromChronon(100),
                            Timestamp::FromChronon(150),
                            Timestamp::FromChronon(100), Timestamp::NOW()),
                 ExtentCase::kCase4, Region::Kind::kStair},
        // Case 5: growing stair with high first step (tt1 > vt1).
        CaseSpec{TimeExtent(Timestamp::FromChronon(100), Timestamp::UC(),
                            Timestamp::FromChronon(60), Timestamp::NOW()),
                 ExtentCase::kCase5, Region::Kind::kStair},
        // Case 6: frozen stair with high first step.
        CaseSpec{TimeExtent(Timestamp::FromChronon(100),
                            Timestamp::FromChronon(150),
                            Timestamp::FromChronon(60), Timestamp::NOW()),
                 ExtentCase::kCase6, Region::Kind::kStair}));

TEST(ExtentResolve, GrowingStairGrowsWithCurrentTime) {
  TimeExtent extent(Timestamp::FromChronon(100), Timestamp::UC(),
                    Timestamp::FromChronon(100), Timestamp::NOW());
  const Region at110 = ResolveExtent(extent, 110);
  const Region at200 = ResolveExtent(extent, 200);
  EXPECT_LT(at110.Area(), at200.Area());
  EXPECT_TRUE(at200.Contains(at110));
  EXPECT_TRUE(at200.ContainsPoint(200, 200));
  EXPECT_FALSE(at200.ContainsPoint(200, 201));
}

TEST(ExtentResolve, FrozenRegionStopsGrowing) {
  TimeExtent extent = TimeExtent::Ground(100, 150, 50, 90);
  EXPECT_TRUE(
      ResolveExtent(extent, 200).Equals(ResolveExtent(extent, 400)));
}

TEST(ExtentLogicalDelete, FreezesUcToCtMinusOne) {
  TimeExtent extent(Timestamp::FromChronon(100), Timestamp::UC(),
                    Timestamp::FromChronon(100), Timestamp::NOW());
  ASSERT_TRUE(extent.LogicalDelete(150).ok());
  EXPECT_EQ(extent.tt_end.chronon(), 149);
  EXPECT_EQ(extent.Classify(), ExtentCase::kCase4);
  // Only current tuples can be deleted.
  EXPECT_FALSE(extent.LogicalDelete(160).ok());
}

TEST(ExtentLogicalDelete, RejectsDeleteBeforeTtBegin) {
  TimeExtent extent(Timestamp::FromChronon(100), Timestamp::UC(),
                    Timestamp::FromChronon(100), Timestamp::NOW());
  EXPECT_FALSE(extent.LogicalDelete(100).ok());  // ct-1 < TTbegin
}

TEST(ExtentText, PaperFormatRoundTrip) {
  TimeExtent extent;
  ASSERT_TRUE(
      TimeExtent::Parse("12/10/1995, UC, 12/10/1995, NOW", &extent).ok());
  EXPECT_TRUE(extent.tt_end.is_uc());
  EXPECT_TRUE(extent.vt_end.is_now());
  EXPECT_EQ(extent.ToString(), "12/10/1995, UC, 12/10/1995, NOW");
  TimeExtent reparsed;
  ASSERT_TRUE(TimeExtent::Parse(extent.ToString(), &reparsed).ok());
  EXPECT_EQ(reparsed, extent);
}

TEST(ExtentText, ParseEnforcesConstraints) {
  TimeExtent extent;
  EXPECT_FALSE(TimeExtent::Parse("10, 5, 0, 1", &extent).ok());
  EXPECT_FALSE(TimeExtent::Parse("10, UC, 20, NOW", &extent).ok());
  EXPECT_FALSE(TimeExtent::Parse("10, UC, 0", &extent).ok());  // 3 fields
  EXPECT_TRUE(TimeExtent::Parse("10, UC, 5, NOW", &extent).ok());
}

// Ground chronons the text form cannot carry: the UC and NOW encodings,
// strtoll's clamped overflow, and a day whose year has ten digits (its
// rendering overflowed int64_t in CivilFromDayNumber).
TEST(ExtentText, RejectsChrononsTheTextFormCannotCarry) {
  for (const char* text : {"1, 9223372036854775807, 1, 9223372036854775806",
                           "1, 99999999999999999999, 1, 2",
                           "1, 9223372036854775805, 1, NOW"}) {
    TimeExtent extent;
    const Status status = TimeExtent::Parse(text, &extent);
    EXPECT_TRUE(status.IsInvalidArgument())
        << text << " -> " << status.ToString() << " " << extent.ToString();
  }
}

// The accepted range is exactly the days ToString renders with a four-digit
// year and Parse reads back.
TEST(Timestamp, ParseRangeIsWhatRendersBack) {
  for (int64_t day : {kMinDayNumber, int64_t{0}, kMaxDayNumber}) {
    Timestamp ts;
    ASSERT_TRUE(Timestamp::Parse(std::to_string(day), &ts).ok()) << day;
    Timestamp again;
    ASSERT_TRUE(Timestamp::Parse(ts.ToString(), &again).ok()) << day;
    EXPECT_EQ(again, ts) << ts.ToString();
  }
  EXPECT_EQ(FormatDate(kMinDayNumber), "01/01/0100");
  EXPECT_EQ(FormatDate(kMaxDayNumber), "12/31/9999");
  Timestamp ts;
  EXPECT_TRUE(Timestamp::Parse(std::to_string(kMinDayNumber - 1), &ts)
                  .IsInvalidArgument());
  EXPECT_TRUE(Timestamp::Parse(std::to_string(kMaxDayNumber + 1), &ts)
                  .IsInvalidArgument());
  EXPECT_TRUE(Timestamp::Parse("01/01/10000", &ts).IsInvalidArgument());
}

// One mutation of an extent text: a digit run grown to 19-20 digits, a
// sign flip, UC or NOW moved into another position, a separator dropped or
// doubled, or extra whitespace.
void MutateExtentText(std::mt19937* rng, std::string* text) {
  auto pick = [&](size_t n) { return n == 0 ? 0 : (*rng)() % n; };
  std::vector<size_t> digit_runs;
  for (size_t i = 0; i < text->size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>((*text)[i])) &&
        (i == 0 || !std::isdigit(static_cast<unsigned char>((*text)[i - 1])))) {
      digit_runs.push_back(i);
    }
  }
  const unsigned kind = (*rng)() % 6;
  switch (kind) {
    case 0: {  // grow a digit run to 19-20 digits, near INT64_MAX or not
      if (digit_runs.empty()) return;
      const size_t at = digit_runs[pick(digit_runs.size())];
      size_t end = at;
      while (end < text->size() &&
             std::isdigit(static_cast<unsigned char>((*text)[end]))) {
        ++end;
      }
      static const char* kNearMax[] = {
          "9223372036854775807", "9223372036854775806", "9223372036854775805",
          "9223372036854775808", "18446744073709551615"};
      std::string digits;
      if ((*rng)() % 2 == 0) {
        digits = kNearMax[pick(std::size(kNearMax))];
      } else {
        const size_t length = 19 + (*rng)() % 2;
        for (size_t i = 0; i < length; ++i) {
          digits += static_cast<char>('0' + (*rng)() % 10);
        }
      }
      text->replace(at, end - at, digits);
      return;
    }
    case 1: {  // sign flip
      if (digit_runs.empty()) return;
      const size_t at = digit_runs[pick(digit_runs.size())];
      if (at > 0 && (*text)[at - 1] == '-') {
        text->erase(at - 1, 1);
      } else {
        text->insert(at, "-");
      }
      return;
    }
    case 2: {  // UC or NOW into a (begin) position
      std::vector<size_t> starts = {0};
      for (size_t i = 0; i < text->size(); ++i) {
        if ((*text)[i] == ',') starts.push_back(i + 1);
      }
      const size_t at = starts[pick(starts.size())];
      size_t end = text->find(',', at);
      if (end == std::string::npos) end = text->size();
      text->replace(at, end - at, (*rng)() % 2 == 0 ? " UC" : " NOW");
      return;
    }
    case 3:    // drop a separator
    case 4: {  // double a separator
      std::vector<size_t> separators;
      for (size_t i = 0; i < text->size(); ++i) {
        if ((*text)[i] == ',' || (*text)[i] == '/') separators.push_back(i);
      }
      if (separators.empty()) return;
      const size_t at = separators[pick(separators.size())];
      if (kind == 3) {
        text->erase(at, 1);
      } else {
        text->insert(at, 1, (*text)[at]);
      }
      return;
    }
    default:  // extra whitespace
      text->insert(pick(text->size() + 1), (*rng)() % 2 == 0 ? " " : "\t ");
      return;
  }
}

// Seeded mutation fuzzer over grt_timeextent's text input: every mutant of
// a valid extent text parses or is InvalidArgument, and what parses renders
// with ToString() and parses back to the same extent.
TEST(ExtentText, SeededMutationFuzz) {
  const std::vector<std::string> corpus = {
      "12/10/1995, UC, 12/10/1995, NOW",
      "10, UC, 5, NOW",
      "100, 200, 50, 150",
      "01/01/0100, 12/31/9999, 01/01/0100, 12/31/9999",
      "-683003, UC, -683003, NOW",
      "05/01/97, 2932896, 05/01/97, 06/01/97",
  };
  std::mt19937 rng(20261018);
  constexpr int kIterations = 20000;
  int parsed = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::string text = corpus[rng() % corpus.size()];
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < mutations; ++m) MutateExtentText(&rng, &text);
    TimeExtent extent;
    const Status status = TimeExtent::Parse(text, &extent);
    ASSERT_TRUE(status.ok() || status.IsInvalidArgument())
        << "iteration " << i << " '" << text << "': " << status.ToString();
    if (!status.ok()) continue;
    ++parsed;
    const std::string rendered = extent.ToString();
    TimeExtent again;
    ASSERT_TRUE(TimeExtent::Parse(rendered, &again).ok())
        << "iteration " << i << " '" << text << "' rendered '" << rendered
        << "'";
    ASSERT_EQ(again, extent) << "iteration " << i << " '" << text << "'";
  }
  // The mutants reach past the first check: some still parse.
  EXPECT_GT(parsed, 0);
}

TEST(ExtentBinary, RoundTrip) {
  TimeExtent extent(Timestamp::FromChronon(123), Timestamp::UC(),
                    Timestamp::FromChronon(45), Timestamp::NOW());
  uint8_t buffer[TimeExtent::kBinarySize];
  extent.EncodeTo(buffer);
  EXPECT_EQ(TimeExtent::DecodeFrom(buffer), extent);
}

// The encoding is the opaque type's binary send/receive form and the first
// 32 bytes of every GR-tree entry on disk: these bytes must not change.
TEST(ExtentBinary, GoldenBytes) {
  const TimeExtent extent(Timestamp::FromChronon(0x0102030405060708),
                          Timestamp::UC(), Timestamp::FromChronon(-2),
                          Timestamp::NOW());
  const std::vector<uint8_t> golden = {
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // TTbegin
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F,  // UC
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // chronon -2
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F,  // NOW
  };
  ASSERT_EQ(golden.size(), TimeExtent::kBinarySize);
  std::vector<uint8_t> buffer(TimeExtent::kBinarySize);
  extent.EncodeTo(buffer.data());
  EXPECT_EQ(buffer, golden);
  EXPECT_EQ(TimeExtent::DecodeFrom(golden.data()), extent);
}

// -------------------------------------------------------------- BoundSpec --

TEST(BoundSpec, FromExtentSetsStairFlag) {
  TimeExtent stair(Timestamp::FromChronon(100), Timestamp::UC(),
                   Timestamp::FromChronon(100), Timestamp::NOW());
  EXPECT_FALSE(BoundSpec::FromExtent(stair).rectangle);
  TimeExtent rect = TimeExtent::Ground(100, 120, 50, 150);
  EXPECT_TRUE(BoundSpec::FromExtent(rect).rectangle);
}

TEST(BoundSpec, BinaryRoundTrip) {
  BoundSpec spec;
  spec.tt_begin = Timestamp::FromChronon(1);
  spec.tt_end = Timestamp::UC();
  spec.vt_begin = Timestamp::FromChronon(2);
  spec.vt_end = Timestamp::FromChronon(300);
  spec.rectangle = true;
  spec.hidden = true;
  uint8_t buffer[BoundSpec::kBinarySize];
  spec.EncodeTo(buffer);
  EXPECT_EQ(BoundSpec::DecodeFrom(buffer), spec);
}

// A GR-tree entry's bound as it sits on the page: four timestamps, then
// the flag byte (bit 0 Rectangle, bit 1 Hidden).
TEST(BoundSpec, GoldenBytes) {
  BoundSpec spec;
  spec.tt_begin = Timestamp::FromChronon(-2);
  spec.tt_end = Timestamp::UC();
  spec.vt_begin = Timestamp::FromChronon(0x0102030405060708);
  spec.vt_end = Timestamp::NOW();
  std::vector<uint8_t> golden = {
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // chronon -2
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F,  // UC
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // VTbegin
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F,  // NOW
      0x00,                                            // flags
  };
  ASSERT_EQ(golden.size(), BoundSpec::kBinarySize);
  for (uint8_t flags = 0; flags < 4; ++flags) {
    spec.rectangle = (flags & 1) != 0;
    spec.hidden = (flags & 2) != 0;
    golden.back() = flags;
    std::vector<uint8_t> buffer(BoundSpec::kBinarySize);
    spec.EncodeTo(buffer.data());
    EXPECT_EQ(buffer, golden) << "flags " << int{flags};
    EXPECT_EQ(BoundSpec::DecodeFrom(golden.data()), spec)
        << "flags " << int{flags};
  }
}

TEST(BoundSpec, HiddenFlagSwitchesToGrowingTop) {
  // Fig. 4(c): a growing stair hidden below a fixed valid-time top.
  BoundSpec bound;
  bound.tt_begin = Timestamp::FromChronon(100);
  bound.tt_end = Timestamp::UC();
  bound.vt_begin = Timestamp::FromChronon(50);
  bound.vt_end = Timestamp::FromChronon(200);
  bound.rectangle = true;
  bound.hidden = true;
  // Before the stair outgrows the fixed top, the top is the fixed value.
  EXPECT_EQ(bound.Resolve(150).vt2(), 200);
  // Afterwards VTend behaves as NOW (§3's adjustment algorithm).
  EXPECT_EQ(bound.Resolve(250).vt2(), 250);
}

TEST(BoundSpec, EncloseMixedPicksHiddenRectangle) {
  // A growing stair together with a static rectangle whose fixed top is
  // still above the stair: the minimum bound is a Hidden rectangle.
  TimeExtent stair(Timestamp::FromChronon(100), Timestamp::UC(),
                   Timestamp::FromChronon(100), Timestamp::NOW());
  TimeExtent rect = TimeExtent::Ground(100, 120, 50, 500);
  const BoundSpec children[2] = {BoundSpec::FromExtent(stair),
                                 BoundSpec::FromExtent(rect)};
  const BoundSpec bound = BoundSpec::Enclose(children, /*ct=*/150);
  EXPECT_TRUE(bound.rectangle);
  EXPECT_TRUE(bound.hidden);
  EXPECT_TRUE(bound.Grows());
  for (int64_t t : {150, 300, 499, 500, 501, 2000}) {
    for (const BoundSpec& child : children) {
      EXPECT_TRUE(bound.ContainsAt(child, t)) << "t=" << t;
    }
  }
}

TEST(BoundSpec, EncloseAllStairsStaysStair) {
  TimeExtent a(Timestamp::FromChronon(100), Timestamp::UC(),
               Timestamp::FromChronon(100), Timestamp::NOW());
  TimeExtent b(Timestamp::FromChronon(150), Timestamp::FromChronon(170),
               Timestamp::FromChronon(120), Timestamp::NOW());
  const BoundSpec children[2] = {BoundSpec::FromExtent(a),
                                 BoundSpec::FromExtent(b)};
  const BoundSpec bound = BoundSpec::Enclose(children, /*ct=*/200);
  EXPECT_FALSE(bound.rectangle);
  EXPECT_TRUE(bound.Grows());
}

TEST(BoundSpec, EncloseAllFrozenIsStatic) {
  TimeExtent a = TimeExtent::Ground(100, 120, 50, 90);
  TimeExtent b = TimeExtent::Ground(110, 140, 60, 80);
  const BoundSpec children[2] = {BoundSpec::FromExtent(a),
                                 BoundSpec::FromExtent(b)};
  const BoundSpec bound = BoundSpec::Enclose(children, /*ct=*/200);
  EXPECT_FALSE(bound.Grows());
  EXPECT_FALSE(bound.hidden);
  EXPECT_EQ(bound.tt_end.chronon(), 140);
}

TEST(BoundSpec, UnderDiagonalRules) {
  TimeExtent stair(Timestamp::FromChronon(100), Timestamp::UC(),
                   Timestamp::FromChronon(100), Timestamp::NOW());
  EXPECT_TRUE(BoundSpec::FromExtent(stair).UnderDiagonalForAllTime());
  // Rectangle under the diagonal forever: vt2 <= tt1.
  EXPECT_TRUE(BoundSpec::FromExtent(TimeExtent::Ground(100, 150, 20, 90))
                  .UnderDiagonalForAllTime());
  EXPECT_FALSE(BoundSpec::FromExtent(TimeExtent::Ground(100, 150, 20, 101))
                   .UnderDiagonalForAllTime());
}

// Property: Enclose must contain every child at the enclosure time and at
// all later times, for random mixes of the six extent cases.
class EnclosePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnclosePropertyTest, ContainsChildrenForAllTime) {
  Random rng(GetParam());
  const int64_t ct = 1000;
  for (int round = 0; round < 100; ++round) {
    std::vector<BoundSpec> children;
    const int count = 2 + static_cast<int>(rng.Uniform(6));
    for (int i = 0; i < count; ++i) {
      const int64_t tt1 = rng.UniformRange(500, ct);
      TimeExtent extent;
      extent.tt_begin = Timestamp::FromChronon(tt1);
      extent.tt_end = rng.Bernoulli(0.5)
                          ? Timestamp::UC()
                          : Timestamp::FromChronon(
                                rng.UniformRange(tt1, ct));
      if (rng.Bernoulli(0.5)) {
        extent.vt_begin =
            Timestamp::FromChronon(tt1 - rng.UniformRange(0, 100));
        extent.vt_end = Timestamp::NOW();
      } else {
        const int64_t vt1 = rng.UniformRange(400, 1500);
        extent.vt_begin = Timestamp::FromChronon(vt1);
        extent.vt_end =
            Timestamp::FromChronon(vt1 + rng.UniformRange(0, 400));
      }
      ASSERT_TRUE(extent.Validate().ok()) << extent.ToChrononString();
      children.push_back(BoundSpec::FromExtent(extent));
    }
    // Nest once: enclose a sub-group first, then combine, to exercise
    // bounds-of-bounds (as interior tree levels do).
    const BoundSpec inner = BoundSpec::Enclose(
        std::span<const BoundSpec>(children.data(), children.size() / 2 + 1),
        ct);
    std::vector<BoundSpec> mixed(children.begin() + children.size() / 2 + 1,
                                 children.end());
    mixed.push_back(inner);
    const BoundSpec bound = BoundSpec::Enclose(mixed, ct);
    for (int64_t t : {ct, ct + 1, ct + 10, ct + 100, ct + 1000, ct + 5000}) {
      for (const BoundSpec& child : children) {
        EXPECT_TRUE(bound.ContainsAt(child, t))
            << "bound " << bound.ToString() << " child " << child.ToString()
            << " t=" << t;
      }
      for (const BoundSpec& child : mixed) {
        EXPECT_TRUE(bound.ContainsAt(child, t))
            << "bound " << bound.ToString() << " child " << child.ToString()
            << " t=" << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnclosePropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// ------------------------------------------------------------- predicates --

TEST(Predicates, JulieDecompositionFailure) {
  // Paper §5.1, Table 3 / Fig. 8: Julie worked in Sales, recorded 3/97,
  // logically deleted 7/97, valid [3/97, NOW]. Query: valid at 7/97 as
  // known at 5/97, asked at current time 9/97. Treating valid and
  // transaction intervals separately wrongly answers "yes"; the bitemporal
  // stair answers "no".
  // Month granularity, scaled to integer chronons (1 month = 1 chronon,
  // origin 0/97 = 0): tt in [3, 7], vt in [3, NOW].
  TimeExtent julie(Timestamp::FromChronon(3), Timestamp::FromChronon(7),
                   Timestamp::FromChronon(3), Timestamp::NOW());
  TimeExtent query = TimeExtent::Ground(5, 5, 7, 7);
  const int64_t ct = 9;
  EXPECT_FALSE(ExtentsOverlap(julie, query, ct));
  // The (incorrect) per-dimension decomposition: [3,7] overlaps [5,5] and
  // [3, NOW->9] overlaps [7,7] — both true.
  EXPECT_TRUE(3 <= 5 && 5 <= 7);
  EXPECT_TRUE(3 <= 7 && 7 <= 9);
}

TEST(Predicates, ContainedInAndContainsAreMirrors) {
  TimeExtent a = TimeExtent::Ground(10, 20, 10, 20);
  TimeExtent b = TimeExtent::Ground(12, 18, 12, 18);
  EXPECT_TRUE(ExtentContains(a, b, 100));
  EXPECT_TRUE(ExtentContainedIn(b, a, 100));
  EXPECT_FALSE(ExtentContains(b, a, 100));
}

TEST(Predicates, EqualIsResolutionSensitive) {
  // A growing stair equals another growing stair with identical anchors.
  TimeExtent a(Timestamp::FromChronon(10), Timestamp::UC(),
               Timestamp::FromChronon(10), Timestamp::NOW());
  TimeExtent b(Timestamp::FromChronon(10), Timestamp::UC(),
               Timestamp::FromChronon(10), Timestamp::NOW());
  EXPECT_TRUE(ExtentsEqual(a, b, 50));
  // A frozen stair equals the growing one only at the freeze time.
  TimeExtent frozen(Timestamp::FromChronon(10), Timestamp::FromChronon(30),
                    Timestamp::FromChronon(10), Timestamp::NOW());
  EXPECT_TRUE(ExtentsEqual(a, frozen, 30));
  EXPECT_FALSE(ExtentsEqual(a, frozen, 31));
}

}  // namespace
}  // namespace grtdb
