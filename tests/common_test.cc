#include <gtest/gtest.h>

#include <set>

#include "common/date.h"
#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"

namespace grtdb {
namespace {

// ----------------------------------------------------------------- Status --

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status not_found = Status::NotFound("widget 7");
  EXPECT_TRUE(not_found.IsNotFound());
  EXPECT_FALSE(not_found.ok());
  EXPECT_EQ(not_found.ToString(), "NotFound: widget 7");
  EXPECT_EQ(not_found.message(), "widget 7");
  EXPECT_TRUE(Status::LockTimeout("x").IsLockTimeout());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
}

TEST(Status, WithNoteAppendsWithoutMaskingThePrimaryError) {
  Status err = Status::NotFound("missing index");
  Status annotated = err.WithNote("cleanup failed: boom");
  EXPECT_TRUE(annotated.IsNotFound());
  EXPECT_EQ(annotated.message(), "missing index; cleanup failed: boom");
  // Chained notes accumulate in order.
  EXPECT_EQ(annotated.WithNote("rollback failed").message(),
            "missing index; cleanup failed: boom; rollback failed");
  // An empty note or an OK status is a no-op.
  EXPECT_EQ(err.WithNote("").message(), "missing index");
  EXPECT_TRUE(Status::OK().WithNote("ignored").ok());
}

TEST(StatusOr, ValueAndError) {
  StatusOr<int> value = 42;
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), 42);
  StatusOr<int> error = Status::NotFound("gone");
  EXPECT_FALSE(error.ok());
  EXPECT_TRUE(error.status().IsNotFound());
}

TEST(StatusMacro, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::IOError("disk"); };
  auto wrapper = [&]() -> Status {
    GRTDB_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsIOError());
}

// ------------------------------------------------------------------- Date --

TEST(Date, KnownAnchors) {
  EXPECT_EQ(DayNumberFromCivil({1970, 1, 1}), 0);
  EXPECT_EQ(DayNumberFromCivil({1970, 1, 2}), 1);
  EXPECT_EQ(DayNumberFromCivil({1969, 12, 31}), -1);
  EXPECT_EQ(DayNumberFromCivil({2000, 3, 1}), 11017);
}

TEST(Date, RoundTripSweep) {
  // Every ~7th day across 1900-2100, through both conversions.
  for (int64_t day = DayNumberFromCivil({1900, 1, 1});
       day <= DayNumberFromCivil({2100, 1, 1}); day += 7) {
    const CivilDate civil = CivilFromDayNumber(day);
    EXPECT_TRUE(IsValidCivil(civil));
    EXPECT_EQ(DayNumberFromCivil(civil), day);
  }
}

TEST(Date, LeapYears) {
  EXPECT_TRUE(IsValidCivil({2000, 2, 29}));
  EXPECT_FALSE(IsValidCivil({1900, 2, 29}));  // 1900 is not a leap year
  EXPECT_TRUE(IsValidCivil({1996, 2, 29}));
  EXPECT_FALSE(IsValidCivil({1997, 2, 29}));
  EXPECT_FALSE(IsValidCivil({1997, 13, 1}));
  EXPECT_FALSE(IsValidCivil({1997, 0, 1}));
  EXPECT_FALSE(IsValidCivil({1997, 4, 31}));
}

TEST(Date, ParseAndFormat) {
  int64_t day = 0;
  ASSERT_TRUE(ParseDate("12/10/1995", &day).ok());
  EXPECT_EQ(FormatDate(day), "12/10/1995");
  // Two-digit years: 50-99 -> 19xx, 00-49 -> 20xx.
  ASSERT_TRUE(ParseDate("12/10/95", &day).ok());
  EXPECT_EQ(FormatDate(day), "12/10/1995");
  ASSERT_TRUE(ParseDate("12/10/05", &day).ok());
  EXPECT_EQ(FormatDate(day), "12/10/2005");
  EXPECT_TRUE(ParseDate("13/01/1999", &day).IsInvalidArgument());
  EXPECT_TRUE(ParseDate("02/30/1999", &day).IsInvalidArgument());
  EXPECT_TRUE(ParseDate("hello", &day).IsInvalidArgument());
  EXPECT_TRUE(ParseDate("12/10/1995x", &day).IsInvalidArgument());
  // Fields are digits only, and one wider than an int must not wrap
  // around into a valid date.
  for (const char* text :
       {"4294967308/10/1995", "12/4294967306/1995", "12/10/4294969291",
        "100/10/1995", "12/100/1995", "12/10/10000", "+12/10/1995",
        "12/-10/1995", "12/10/-5", " 12/10/1995", "12//1995"}) {
    EXPECT_TRUE(ParseDate(text, &day).IsInvalidArgument()) << text;
  }
  ASSERT_TRUE(ParseDate("012/010/1995", &day).ok());
  EXPECT_EQ(FormatDate(day), "12/10/1995");
  ASSERT_TRUE(ParseDate("12/31/9999", &day).ok());
  EXPECT_EQ(day, kMaxDayNumber);
}

// ---------------------------------------------------------------- Strings --

TEST(Strings, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi  "), "hi");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("a"), "a");
}

TEST(Strings, Case) {
  EXPECT_EQ(ToUpper("MixedCase123"), "MIXEDCASE123");
  EXPECT_EQ(ToLower("MixedCase123"), "mixedcase123");
  EXPECT_TRUE(EqualsIgnoreCase("OverLaps", "overlaps"));
  EXPECT_FALSE(EqualsIgnoreCase("overlap", "overlaps"));
}

TEST(Strings, SplitAndJoin) {
  EXPECT_EQ(SplitAndTrim("a, b , c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitAndTrim("a||b", '|'),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(SplitAndTrim("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

// ----------------------------------------------------------------- Random --

TEST(Random, DeterministicPerSeed) {
  Random a(7);
  Random b(7);
  Random c(8);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Random, UniformRangeBounds) {
  Random rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Random, DoublesInUnitInterval) {
  Random rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Random, BernoulliRate) {
  Random rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

}  // namespace
}  // namespace grtdb
