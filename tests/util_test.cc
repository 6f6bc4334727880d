// Unit tests for the util substrate.
#include <atomic>
#include <cmath>
#include <ctime>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/datetime.h"
#include "util/distributions.h"
#include "util/histogram.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/zorder.h"

namespace snb::util {
namespace {

// ---- Status / Result -------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("person 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: person 7");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kNotFound, StatusCode::kInvalidArgument,
        StatusCode::kAlreadyExists, StatusCode::kAborted,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

Status FailingHelper() { return Status::Aborted("inner"); }

Status PropagatingHelper() {
  SNB_RETURN_IF_ERROR(FailingHelper());
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(PropagatingHelper().code(), StatusCode::kAborted);
}

// ---- Rng --------------------------------------------------------------------

TEST(RngTest, SameKeySameSequence) {
  Rng a(1, 2, RandomPurpose::kFirstName);
  Rng b(1, 2, RandomPurpose::kFirstName);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentPurposeDifferentSequence) {
  Rng a(1, 2, RandomPurpose::kFirstName);
  Rng b(1, 2, RandomPurpose::kLastName);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3, 4, RandomPurpose::kGender);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(5, 6, RandomPurpose::kDegree);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All values hit.
}

TEST(RngTest, BoundedUniformish) {
  Rng rng(7, 8, RandomPurpose::kIp);
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 10 * 0.15);
  }
}

// ---- Distributions ----------------------------------------------------------

TEST(GeometricRankSamplerTest, RankZeroMostLikely) {
  Rng rng(1, 1, RandomPurpose::kInterests);
  GeometricRankSampler sampler(0.2, 50);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 50000; ++i) ++counts[sampler.Sample(rng)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[5]);
  EXPECT_GT(counts[0], 50000 / 10);
}

TEST(GeometricRankSamplerTest, StaysInDomain) {
  Rng rng(2, 2, RandomPurpose::kInterests);
  GeometricRankSampler sampler(0.01, 7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(sampler.Sample(rng), 7u);
  }
}

TEST(DiscreteSamplerTest, RespectsWeights) {
  Rng rng(3, 3, RandomPurpose::kLocation);
  DiscreteSampler sampler({1.0, 0.0, 3.0});
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[sampler.Sample(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(BoundedParetoTest, WithinBoundsAndSkewed) {
  Rng rng(4, 4, RandomPurpose::kEventSpike);
  BoundedParetoSampler sampler(1.2, 1.0, 100.0);
  double below10 = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    double v = sampler.Sample(rng);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 100.0);
    if (v < 10.0) ++below10;
  }
  EXPECT_GT(below10 / kDraws, 0.8);  // Heavy head.
}

TEST(ExponentialTest, MeanMatchesRate) {
  Rng rng(5, 5, RandomPurpose::kPostDate);
  double sum = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) sum += SampleExponential(rng, 0.5);
  EXPECT_NEAR(sum / kDraws, 2.0, 0.1);
}

// ---- Z-order ----------------------------------------------------------------

TEST(ZOrderTest, InterleavesBits) {
  EXPECT_EQ(MortonInterleave16(0, 0), 0u);
  EXPECT_EQ(MortonInterleave16(1, 0), 1u);
  EXPECT_EQ(MortonInterleave16(0, 1), 2u);
  EXPECT_EQ(MortonInterleave16(3, 3), 15u);
}

TEST(ZOrderTest, NearbyCoordinatesShareZOrder) {
  uint8_t berlin = ZOrder8(52.5, 13.4);
  uint8_t hamburg = ZOrder8(53.5, 10.0);
  uint8_t sydney = ZOrder8(-33.8, 151.2);
  EXPECT_EQ(berlin, hamburg);  // 4-bit quantization: same cell.
  EXPECT_NE(berlin, sydney);
}

TEST(ZOrderTest, StudyLocationKeyPacksFields) {
  uint32_t key = StudyLocationKey(0xAB, 0x123, 0x7D5);
  EXPECT_EQ(key >> 24, 0xABu);
  EXPECT_EQ((key >> 12) & 0xfff, 0x123u);
  EXPECT_EQ(key & 0xfff, 0x7D5u);
}

// ---- Datetime ----------------------------------------------------------------

TEST(DatetimeTest, NetworkStartFormats) {
  EXPECT_EQ(FormatTimestamp(kNetworkStartMs), "2010-01-01 00:00:00");
}

TEST(DatetimeTest, TimestampFromDateRoundTrips) {
  TimestampMs ts = TimestampFromDate(2012, 6, 15);
  EXPECT_EQ(FormatTimestamp(ts), "2012-06-15 00:00:00");
}

// util::MonthDayOf against libc: gmtime_r of ts / 1000, which truncates
// toward zero, so -1 ms still falls on 1970-01-01.
void ExpectMonthDayMatchesGmtime(TimestampMs ts) {
  std::time_t secs = static_cast<std::time_t>(ts / kMillisPerSecond);
  std::tm tm_utc{};
  ASSERT_NE(gmtime_r(&secs, &tm_utc), nullptr);
  int month = 0, day = 0;
  MonthDayOf(ts, &month, &day);
  ASSERT_EQ(month, tm_utc.tm_mon + 1) << "ts " << ts;
  ASSERT_EQ(day, tm_utc.tm_mday) << "ts " << ts;
}

TEST(DatetimeTest, MonthDayOfMatchesGmtimeEveryDay1900To2100) {
  TimestampMs first = TimestampFromDate(1900, 1, 1);
  TimestampMs last = TimestampFromDate(2100, 12, 31);
  ASSERT_LT(first, 0);
  for (TimestampMs day = first; day <= last; day += kMillisPerDay) {
    for (TimestampMs offset : {TimestampMs{0}, TimestampMs{1}, TimestampMs{999},
                               kMillisPerDay / 2 + 7, kMillisPerDay - 1}) {
      ExpectMonthDayMatchesGmtime(day + offset);
    }
  }
}

TEST(DatetimeTest, MonthDayOfTruncatesNegativeMillisTowardZero) {
  for (TimestampMs ts : {TimestampMs{-1}, TimestampMs{-999}, TimestampMs{-1000},
                         TimestampMs{-1001}, -kMillisPerDay + 1,
                         -kMillisPerDay - 1, -kMillisPerDay * 365 - 1234567,
                         TimestampFromDate(1900, 3, 1) - 1,
                         TimestampFromDate(1969, 12, 31) - 500}) {
    ExpectMonthDayMatchesGmtime(ts);
  }
  int month = 0, day = 0;
  MonthDayOf(-1, &month, &day);  // Truncates to second 0: still Jan 1.
  EXPECT_EQ(month, 1);
  EXPECT_EQ(day, 1);
  MonthDayOf(-1001, &month, &day);
  EXPECT_EQ(month, 12);
  EXPECT_EQ(day, 31);
}

TEST(DatetimeTest, MonthIndexClampsAndCounts) {
  EXPECT_EQ(MonthIndex(kNetworkStartMs), 0);
  EXPECT_EQ(MonthIndex(kNetworkStartMs - 1), 0);
  EXPECT_EQ(MonthIndex(kNetworkStartMs + kMillisPerMonth), 1);
  EXPECT_EQ(MonthIndex(NetworkEndMs() + kMillisPerDay),
            kSimulationMonths - 1);
}

TEST(DatetimeTest, UpdateSplitIsFourMonthsBeforeEnd) {
  EXPECT_EQ(NetworkEndMs() - UpdateStreamStartMs(), 4 * kMillisPerMonth);
}

// ---- Histogram / stats --------------------------------------------------------

TEST(SampleStatsTest, BasicMoments) {
  SampleStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0}) stats.Add(v);
  EXPECT_DOUBLE_EQ(stats.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.Variance(), 1.25);
  EXPECT_DOUBLE_EQ(stats.Min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 4.0);
}

TEST(SampleStatsTest, Percentiles) {
  SampleStats stats;
  for (int i = 1; i <= 100; ++i) stats.Add(i);
  EXPECT_NEAR(stats.Percentile(50), 50.5, 0.5);
  EXPECT_NEAR(stats.Percentile(99), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(100), 100.0);
}

TEST(SampleStatsTest, MergeCombines) {
  SampleStats a, b;
  a.Add(1.0);
  b.Add(3.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.0);
}

TEST(SampleStatsTest, SumIsRunningAndExact) {
  SampleStats stats;
  EXPECT_DOUBLE_EQ(stats.Sum(), 0.0);
  stats.Add(1.5);
  stats.Add(2.5);
  EXPECT_DOUBLE_EQ(stats.Sum(), 4.0);
  SampleStats other;
  other.Add(6.0);
  stats.Merge(other);
  EXPECT_DOUBLE_EQ(stats.Sum(), 10.0);
  EXPECT_DOUBLE_EQ(stats.Mean(), stats.Sum() / 3.0);
}

TEST(SampleStatsTest, LazySortInvalidatedByAddAndMerge) {
  SampleStats stats;
  for (double v : {5.0, 1.0, 3.0}) stats.Add(v);
  // Query once to trigger the sort, then mutate and query again: the new
  // extremes must be visible (the sorted cache was invalidated).
  EXPECT_DOUBLE_EQ(stats.Max(), 5.0);
  stats.Add(9.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(100), 9.0);
  SampleStats lower;
  lower.Add(0.5);
  stats.Merge(lower);
  EXPECT_DOUBLE_EQ(stats.Min(), 0.5);
  EXPECT_DOUBLE_EQ(stats.Percentile(0), 0.5);
}

TEST(HistogramTest, BucketsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);
  h.Add(9.5);
  h.Add(-1.0);
  h.Add(10.0);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.TotalCount(), 4u);
}

// ---- Thread pool ----------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRangeOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelForRanges(1000, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelForRanges(0, [&](size_t, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

// ---- Stopwatch --------------------------------------------------------------

TEST(StopwatchTest, ElapsedIsMonotoneAndResets) {
  Stopwatch watch;
  uint64_t a = watch.ElapsedNanos();
  uint64_t b = watch.ElapsedNanos();
  EXPECT_GE(b, a);
  EXPECT_GE(watch.ElapsedMicros(), 0.0);
  watch.Reset();
  EXPECT_GE(watch.ElapsedNanos(), 0u);
}

// ---- String utils -------------------------------------------------------------------

TEST(StringUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
  std::vector<std::string> parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

// ---- JSON parser ---------------------------------------------------------
//
// The malformed-input table runs under ASan and UBSan too (util_test
// carries the concurrency label that scripts/check.sh rebuilds).

TEST(JsonParserTest, ParsesWriterSubset) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"({"s":"a\"b\nc","n":[1,2.5,-3e2],"t":true,"f":false,"z":null})", &v,
      &error))
      << error;
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  const JsonValue* s = v.Find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->string, "a\"b\nc");
  const JsonValue* n = v.Find("n");
  ASSERT_NE(n, nullptr);
  ASSERT_EQ(n->array.size(), 3u);
  EXPECT_DOUBLE_EQ(n->array[1].number, 2.5);
  EXPECT_DOUBLE_EQ(n->array[2].number, -300.0);
  EXPECT_TRUE(v.Find("t")->boolean);
  EXPECT_EQ(v.Find("z")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.Find("missing"), nullptr);
  EXPECT_EQ(v.Find("s", JsonValue::Kind::kNumber), nullptr);
  EXPECT_DOUBLE_EQ(v.NumberOr("t", -1.0), -1.0);
}

TEST(JsonParserTest, RejectsMalformedInput) {
  JsonValue v;
  std::string error;
  for (const char* bad :
       {"{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "{}extra", "",
        // Numbers outside the JSON grammar: strtod would take all of these.
        "inf", "-inf", "nan", "Infinity", "0x10", "+1", "01", "1.", ".5",
        "1e", "1e+", "-", "1e400",
        // Raw control character inside a string; whitespace JSON lacks.
        "\"a\tb\"", "\v1"}) {
    error.clear();
    EXPECT_FALSE(ParseJson(bad, &v, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonParserTest, RejectsNestingPastTheBound) {
  JsonValue v;
  std::string error;
  // Deep enough to overflow the stack of a recursive parser with no bound.
  std::string deep(50000, '[');
  EXPECT_FALSE(ParseJson(deep, &v, &error));
  EXPECT_NE(error.find("nesting deeper than 64 levels"), std::string::npos)
      << error;

  std::string at_bound = std::string(kMaxJsonDepth, '[') +
                         std::string(kMaxJsonDepth, ']');
  EXPECT_TRUE(ParseJson(at_bound, &v, &error)) << error;
  std::string past_bound = "{\"a\":" + at_bound + "}";
  EXPECT_FALSE(ParseJson(past_bound, &v, &error));
  EXPECT_NE(error.find("nesting deeper"), std::string::npos) << error;
}

TEST(JsonParserTest, RejectsUnicodeEscapesAboveOneByte) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(R"("\u0041\u00e9\u001f")", &v, &error)) << error;
  EXPECT_EQ(v.string, "A\xe9\x1f");
  // U+0141 does not fit one byte: refused, not truncated to 'A'.
  EXPECT_FALSE(ParseJson(R"("\u0141")", &v, &error));
  EXPECT_NE(error.find("\\u escape above 00FF"), std::string::npos) << error;
}

// ---- JSON typed reads ----------------------------------------------------

JsonValue ParseOrDie(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &v, &error)) << error;
  return v;
}

TEST(JsonGetterTest, U64AcceptsDecimalNumbersAndStrings) {
  JsonValue v = ParseOrDie(
      R"({"n":42,"s":"7","max":18446744073709551615,)"
      R"("smax":"18446744073709551615"})");
  uint64_t out = 0;
  ASSERT_TRUE(GetU64(v, "n", &out, "doc").ok());
  EXPECT_EQ(out, 42u);
  ASSERT_TRUE(GetU64(v, "s", &out, "doc").ok());
  EXPECT_EQ(out, 7u);
  ASSERT_TRUE(GetU64(v, "max", &out, "doc").ok());
  EXPECT_EQ(out, std::numeric_limits<uint64_t>::max());
  ASSERT_TRUE(GetU64(v, "smax", &out, "doc").ok());
  EXPECT_EQ(out, std::numeric_limits<uint64_t>::max());
}

TEST(JsonGetterTest, U64RejectsNonDecimalString) {
  JsonValue v = ParseOrDie(R"({"a":"abc","b":"","c":" 1","d":"+1"})");
  uint64_t out = 0;
  for (const char* key : {"a", "b", "c", "d"}) {
    util::Status st = GetU64(v, key, &out, "doc");
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(st.message().find("is not a decimal integer"),
              std::string::npos)
        << st.message();
  }
}

TEST(JsonGetterTest, U64RejectsNegativeValues) {
  JsonValue v = ParseOrDie(R"({"n":-5,"s":"-5"})");
  uint64_t out = 0;
  for (const char* key : {"n", "s"}) {
    util::Status st = GetU64(v, key, &out, "doc");
    EXPECT_FALSE(st.ok()) << key;
    EXPECT_NE(st.message().find("is negative"), std::string::npos)
        << st.message();
  }
}

TEST(JsonGetterTest, U64RejectsFractions) {
  JsonValue v = ParseOrDie(R"({"f":1.5,"e":1e3,"s":"1.5"})");
  uint64_t out = 0;
  for (const char* key : {"f", "e", "s"}) {
    EXPECT_FALSE(GetU64(v, key, &out, "doc").ok()) << key;
  }
}

TEST(JsonGetterTest, U64RejectsOutOfRange) {
  JsonValue v = ParseOrDie(
      R"({"n":18446744073709551616,"s":"18446744073709551616"})");
  uint64_t out = 0;
  for (const char* key : {"n", "s"}) {
    util::Status st = GetU64(v, key, &out, "doc");
    EXPECT_FALSE(st.ok()) << key;
    EXPECT_NE(st.message().find("is out of range"), std::string::npos)
        << st.message();
  }
}

TEST(JsonGetterTest, I64ReadsSignedRangeExactly) {
  JsonValue v = ParseOrDie(
      R"({"min":-9223372036854775808,"s":"-12","over":9223372036854775808,)"
      R"("f":-1.5,"b":true})");
  int64_t out = 0;
  ASSERT_TRUE(GetI64(v, "min", &out, "doc").ok());
  EXPECT_EQ(out, std::numeric_limits<int64_t>::min());
  ASSERT_TRUE(GetI64(v, "s", &out, "doc").ok());
  EXPECT_EQ(out, -12);
  EXPECT_FALSE(GetI64(v, "over", &out, "doc").ok());
  EXPECT_FALSE(GetI64(v, "f", &out, "doc").ok());
  util::Status st = GetI64(v, "b", &out, "doc");
  EXPECT_NE(st.message().find("is not a number"), std::string::npos)
      << st.message();
  st = GetI64(v, "missing", &out, "doc");
  EXPECT_EQ(st.message(), "doc: field \"missing\" is missing");
}

// ---- JSON writer ---------------------------------------------------------

TEST(JsonWriterTest, SeparatorsAndNewlines) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a").BeginArray().U64(1).I64(-2).EndArray();
  w.Newline().Key("b").BeginArray();
  w.Newline().BeginObject().Key("x").Bool(true).EndObject();
  w.Newline().BeginObject().EndObject();
  w.Newline().EndArray();
  w.Key("c").BeginArray().EndArray();
  w.EndObject();
  EXPECT_EQ(w.Take(),
            "{\"a\":[1,-2],\n\"b\":[\n{\"x\":true},\n{}\n],\"c\":[]}");
  // Take() leaves the writer ready for a new document.
  w.BeginArray().String("x").EndArray();
  EXPECT_EQ(w.Take(), "[\"x\"]");
}

TEST(JsonWriterTest, NumberFormats) {
  JsonWriter w;
  w.BeginArray();
  w.Double(0.1).Double(1234567.0).Double(1e-7).Double(-0.0);
  w.Double(std::nan("")).Double(INFINITY);
  w.Fixed(2.5, 3).Fixed(-1.23449, 4).Fixed(NAN, 3);
  w.U64(std::numeric_limits<uint64_t>::max());
  w.I64(std::numeric_limits<int64_t>::min());
  w.U64String(12345678901234567890ull);
  w.EndArray();
  EXPECT_EQ(w.Take(),
            "[0.1,1.23457e+06,1e-07,-0,0,0,2.500,-1.2345,0.000,"
            "18446744073709551615,-9223372036854775808,"
            "\"12345678901234567890\"]");
}

TEST(JsonWriterTest, EscapesAndRoundTripsEveryByte) {
  std::string all;
  for (int c = 1; c < 256; ++c) all.push_back(static_cast<char>(c));
  JsonWriter w;
  w.BeginObject().Key("k\"\n").String(all).EndObject();
  std::string doc = w.Take();
  EXPECT_NE(doc.find("\"k\\\"\\n\":"), std::string::npos);
  EXPECT_NE(doc.find("\\u0001"), std::string::npos);
  EXPECT_NE(doc.find("\\t"), std::string::npos);
  JsonValue v = ParseOrDie(doc);
  ASSERT_NE(v.Find("k\"\n"), nullptr);
  EXPECT_EQ(v.Find("k\"\n")->string, all);
}

}  // namespace
}  // namespace snb::util
