#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"

namespace datacell {
namespace {

// --- Status -----------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad thing");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, FactoryHelpersSetCodes) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  EXPECT_TRUE(Status::TypeError("x").IsTypeError());
  EXPECT_TRUE(Status::IoError("x").IsIoError());
}

TEST(StatusTest, CopyPreservesState) {
  Status a = Status::Internal("boom");
  Status b = a;
  EXPECT_TRUE(b.IsInternal());
  EXPECT_EQ(b.message(), "boom");
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "ResourceExhausted");
}

// --- Result --------------------------------------------------------------

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = Half(10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_EQ(r.ValueOr(-1), 5);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Half(7);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  auto run = [](int x) -> Result<int> {
    DC_ASSIGN_OR_RETURN(int h, Half(x));
    return h + 1;
  };
  EXPECT_EQ(*run(10), 6);
  EXPECT_FALSE(run(9).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 7);
}

// --- string_util -------------------------------------------------------

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("abc"), "ABC");
  EXPECT_TRUE(EqualsIgnoreCase("WHERE", "where"));
  EXPECT_FALSE(EqualsIgnoreCase("WHERE", "were"));
  EXPECT_TRUE(StartsWith("datacell", "data"));
  EXPECT_FALSE(StartsWith("data", "datacell"));
}

TEST(StringUtilTest, ParseInt64Strict) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-7"), -7);
  EXPECT_EQ(*ParseInt64("  13 "), 13);
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("4x").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
}

TEST(StringUtilTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

// --- clocks ----------------------------------------------------------------

TEST(ClockTest, WallClockIsMonotonicNonDecreasing) {
  WallClock clock;
  Timestamp a = clock.Now();
  Timestamp b = clock.Now();
  EXPECT_LE(a, b);
}

TEST(ClockTest, SimulatedClockAdvances) {
  SimulatedClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.SetTime(1000);
  EXPECT_EQ(clock.Now(), 1000);
}

TEST(ClockDeathTest, SimulatedClockRejectsTimeTravel) {
  SimulatedClock clock(100);
  EXPECT_DEATH(clock.SetTime(50), "DC_CHECK");
}

// --- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, ZipfStaysInRangeAndSkews) {
  Rng rng(2);
  int64_t low_half = 0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    int64_t v = rng.Zipf(1000, 0.9);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 1000);
    if (v < 500) ++low_half;
  }
  // Skewed towards small ranks: far more than half the mass in [0, 500).
  EXPECT_GT(low_half, kDraws * 6 / 10);
}

TEST(RngTest, ZipfThetaZeroIsUniformish) {
  Rng rng(3);
  int64_t low_half = 0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Zipf(1000, 0.0) < 500) ++low_half;
  }
  EXPECT_NEAR(low_half, kDraws / 2, kDraws / 20);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

// --- SampleStats --------------------------------------------------------

TEST(SampleStatsTest, EmptyIsZero) {
  SampleStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), 0.0);
}

TEST(SampleStatsTest, BasicMoments) {
  SampleStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.Add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.Sum(), 15.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 5.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), 3.0);
  EXPECT_NEAR(s.StdDev(), 1.5811, 1e-3);
}

TEST(SampleStatsTest, PercentileBounds) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 100.0);
  EXPECT_NEAR(s.Percentile(0.99), 99.0, 1.0);
}

TEST(SampleStatsTest, AddAfterPercentileStillSorts) {
  SampleStats s;
  s.Add(5.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), 5.0);
  s.Add(1.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
}

// --- Row hash (common/hash.h) ------------------------------------------
//
// The shard router and the split-merge oracle must agree on placement, so
// these tests pin the concrete FNV-1a values: a change here means every
// committed partition verdict was certified against a different split.

TEST(HashTest, TypedHelpersMixTheValueBytes) {
  const int64_t i = 42;
  EXPECT_EQ(HashInt64(i), FnvMixBytes(kFnvOffsetBasis, &i, sizeof(i)));
  const double d = 3.5;
  EXPECT_EQ(HashDouble(d), FnvMixBytes(kFnvOffsetBasis, &d, sizeof(d)));
  const unsigned char t = 1;
  const unsigned char f = 0;
  EXPECT_EQ(HashBool(true), FnvMixBytes(kFnvOffsetBasis, &t, 1));
  EXPECT_EQ(HashBool(false), FnvMixBytes(kFnvOffsetBasis, &f, 1));
  EXPECT_EQ(HashString("sensor-7"),
            FnvMixBytes(kFnvOffsetBasis, "sensor-7", 8));
}

TEST(HashTest, NegativeZeroFoldsOntoPositiveZero) {
  EXPECT_EQ(HashDouble(-0.0), HashDouble(0.0));
}

TEST(HashTest, EmptyInputsHashToOffsetBasis) {
  // Zero bytes mixed => the FNV offset basis, distinct from the router's
  // null hash 0.
  EXPECT_EQ(HashString(""), kFnvOffsetBasis);
  EXPECT_NE(HashString(""), 0u);
}

TEST(HashTest, DistinctValuesSpread) {
  EXPECT_NE(HashInt64(1), HashInt64(2));
  EXPECT_NE(HashString("a"), HashString("b"));
  EXPECT_NE(HashDouble(1.0), HashInt64(1));  // representation, not promotion
  EXPECT_NE(HashBool(true), HashBool(false));
}

TEST(HashTest, PinnedVectors) {
  // Concrete values pin the byte-mixing order and constants. Every
  // committed partition verdict was certified against this exact hash, so
  // a change here silently re-shards the world — update only together
  // with the oracle and a re-certification of the goldens.
  EXPECT_EQ(HashString("a"), 4953267810257967366ull);
  EXPECT_EQ(HashString("foobar"), 9870438755804841970ull);
}

}  // namespace
}  // namespace datacell
