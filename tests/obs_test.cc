// Tests of the snb::obs subsystem: log-bucket histogram accuracy against
// exact sample statistics, lock-free registry semantics under concurrency
// (run under TSan via scripts/check.sh), TraceSpan engagement, the
// report.json writer/parser round trip, and the Q9 operator profile's
// consistency with the plan's cardinality counters.
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"
#include "queries/complex_queries.h"
#include "queries/query9_plans.h"
#include "store/graph_store.h"
#include "util/datetime.h"
#include "util/histogram.h"
#include "util/json.h"

namespace snb::obs {
namespace {

using util::JsonValue;
using util::ParseJson;

// ---- Log buckets ----------------------------------------------------------

TEST(LogBucketsTest, SmallValuesAreExact) {
  for (uint64_t v = 0; v < 2 * LogBuckets::kSubBuckets; ++v) {
    size_t b = LogBuckets::BucketFor(v);
    EXPECT_EQ(LogBuckets::BucketMid(b), v);
    EXPECT_EQ(LogBuckets::BucketLow(b), v);
  }
}

TEST(LogBucketsTest, MidpointWithinRelativeErrorBound) {
  // Bucket width is at most 1/16 of its lower edge, so the midpoint is
  // within 1/32 (~3.2%) of any sample in the bucket.
  for (uint64_t v = 32; v < (uint64_t{1} << 40); v = v * 29 / 16 + 3) {
    size_t b = LogBuckets::BucketFor(v);
    ASSERT_LT(b, LogBuckets::kNumBuckets);
    uint64_t low = LogBuckets::BucketLow(b);
    EXPECT_LE(low, v);
    uint64_t mid = LogBuckets::BucketMid(b);
    double rel = std::abs(static_cast<double>(mid) - static_cast<double>(v)) /
                 static_cast<double>(v);
    EXPECT_LE(rel, 1.0 / 32.0 + 1e-9) << "v=" << v << " bucket=" << b;
  }
}

TEST(LogBucketsTest, BucketsAreMonotone) {
  size_t prev = LogBuckets::BucketFor(0);
  for (uint64_t v = 1; v < (uint64_t{1} << 20); v = v + 1 + v / 7) {
    size_t b = LogBuckets::BucketFor(v);
    EXPECT_GE(b, prev);
    prev = b;
  }
  // Saturation: absurd values land in the last bucket, not out of range.
  EXPECT_EQ(LogBuckets::BucketFor(~uint64_t{0}), LogBuckets::kNumBuckets - 1);
}

// ---- Registry exactness ---------------------------------------------------

TEST(MetricsRegistryTest, CountSumMinMaxExact) {
  MetricsRegistry registry;
  registry.RecordLatencyNs(OpType::kComplexQ1, 100);
  registry.RecordLatencyNs(OpType::kComplexQ1, 900);
  registry.RecordLatencyNs(OpType::kComplexQ1, 500);
  MetricsSnapshot snap = registry.Snapshot();
  const OpSnapshot& op = snap.Op(OpType::kComplexQ1);
  EXPECT_EQ(op.count, 3u);
  EXPECT_EQ(op.sum_ns, 1500u);
  EXPECT_EQ(op.min_ns, 100u);
  EXPECT_EQ(op.max_ns, 900u);
  EXPECT_DOUBLE_EQ(op.MeanUs(), 0.5);
  // Untouched series stay zeroed (min sentinel must not leak).
  EXPECT_EQ(snap.Op(ComplexOp(2)).count, 0u);
  EXPECT_EQ(snap.Op(ComplexOp(2)).min_ns, 0u);
}

TEST(MetricsRegistryTest, SumMicrosAndCountInRange) {
  MetricsRegistry registry;
  registry.RecordLatencyMicros(ComplexOp(1), 100.0);
  registry.RecordLatencyMicros(ComplexOp(14), 200.0);
  registry.RecordLatencyMicros(ShortOp(1), 50.0);
  registry.RecordLatencyMicros(UpdateOp(8), 25.0);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.SumMicros(kComplexBegin, kShortBegin), 300.0);
  EXPECT_DOUBLE_EQ(snap.SumMicros(kShortBegin, kUpdateBegin), 50.0);
  EXPECT_DOUBLE_EQ(snap.SumMicros(kUpdateBegin, kUpdateBegin + 8), 25.0);
  EXPECT_EQ(snap.CountInRange(kComplexBegin, kShortBegin), 2u);
  EXPECT_EQ(snap.CountInRange(0, kNumOpTypes), 4u);
}

TEST(MetricsRegistryTest, CountersAccumulateGaugesOverwrite) {
  MetricsRegistry registry;
  registry.AddCounter(Counter::kOperationsExecuted);
  registry.AddCounter(Counter::kOperationsExecuted, 41);
  registry.SetGauge(Gauge::kEpochPending, 7);
  registry.SetGauge(Gauge::kEpochPending, 3);  // Last write wins.
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue(Counter::kOperationsExecuted), 42u);
  EXPECT_EQ(snap.CounterValue(Counter::kOperationsFailed), 0u);
  EXPECT_EQ(snap.GaugeValue(Gauge::kEpochPending), 3u);
}

// Percentiles from bucket midpoints vs. the exact (sample-retaining)
// statistics the old recorder kept: within the bucket error bound, i.e.
// well under 5% relative error, across a skewed distribution.
TEST(MetricsRegistryTest, PercentilesTrackExactStatsWithin5Percent) {
  MetricsRegistry registry;
  util::SampleStats exact;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    // Latencies spanning ~1us .. ~16ms with a long tail, like a query mix.
    uint64_t ns = 1000 + (state % 1000) * (state % 16384);
    registry.RecordLatencyNs(OpType::kPointRead, ns);
    exact.Add(static_cast<double>(ns) / 1000.0);  // us.
  }
  MetricsSnapshot snap = registry.Snapshot();
  const OpSnapshot& op = snap.Op(OpType::kPointRead);
  ASSERT_EQ(op.count, 20000u);
  for (double p : {50.0, 90.0, 95.0, 99.0}) {
    double approx = op.PercentileUs(p);
    double truth = exact.Percentile(p);
    EXPECT_NEAR(approx, truth, truth * 0.05) << "p" << p;
  }
  // Percentiles are monotone and bounded by the exact extremes' buckets.
  EXPECT_LE(op.PercentileUs(50), op.PercentileUs(90));
  EXPECT_LE(op.PercentileUs(90), op.PercentileUs(99));
  EXPECT_LE(op.PercentileUs(99), op.PercentileUs(100));
  EXPECT_NEAR(op.PercentileUs(100), exact.Max(), exact.Max() * 0.05);
}

// 8 recorder threads + concurrent snapshots; every pre-join sample must be
// merged exactly once. This is the TSan target for the lock-free path.
TEST(MetricsRegistryTest, ConcurrentRecordAndSnapshot) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      OpType op = ComplexOp(1 + (t % 14));
      for (uint64_t i = 1; i <= kPerThread; ++i) {
        registry.RecordLatencyNs(op, 100 + (i & 0xff));
        registry.AddCounter(Counter::kOperationsExecuted);
      }
    });
  }
  // Snapshot while recording is in flight: totals may be partial but must
  // never be torn below what simple monotonicity allows.
  uint64_t last_total = 0;
  for (int i = 0; i < 50; ++i) {
    MetricsSnapshot mid = registry.Snapshot();
    uint64_t total = mid.CountInRange(kComplexBegin, kShortBegin);
    EXPECT_GE(total, last_total);
    last_total = total;
  }
  for (std::thread& w : workers) w.join();
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CountInRange(kComplexBegin, kShortBegin),
            kThreads * kPerThread);
  EXPECT_EQ(snap.CounterValue(Counter::kOperationsExecuted),
            kThreads * kPerThread);
  uint64_t sum = 0;
  for (size_t i = kComplexBegin; i < kShortBegin; ++i) {
    sum += snap.ops[i].sum_ns;
    if (snap.ops[i].count > 0) {
      EXPECT_EQ(snap.ops[i].min_ns, 100u);  // i & 0xff == 0 at i = 256.
      EXPECT_EQ(snap.ops[i].max_ns, 100u + 0xff);
    }
  }
  // Per-thread sum of (100 + (i & 0xff)) over i in [1, 20000].
  uint64_t expected_per_thread = 0;
  for (uint64_t i = 1; i <= kPerThread; ++i) expected_per_thread += 100 + (i & 0xff);
  EXPECT_EQ(sum, kThreads * expected_per_thread);
}

TEST(MetricsRegistryTest, NamesAreStable) {
  EXPECT_STREQ(OpTypeName(ComplexOp(9)), "complex.Q9");
  EXPECT_STREQ(OpTypeName(ShortOp(2)), "short.S2");
  EXPECT_STREQ(OpTypeName(UpdateOp(8)), "update.U8");
  EXPECT_STREQ(OpTypeName(OpType::kSchedLag), "driver.sched_lag");
  EXPECT_STREQ(CounterName(Counter::kGctDependentWaits),
               "driver.gct_dependent_waits");
  EXPECT_STREQ(GaugeName(Gauge::kRecyclerEvictions), "recycler.evictions");
}

// ---- TraceSpan ------------------------------------------------------------

TEST(TraceSpanTest, AccumulatesIntoSink) {
  OperatorStats stats;
  {
    TraceSpan span(&stats);
    EXPECT_TRUE(span.engaged());
    span.AddRows(5);
    span.AddRows(2);
  }
  {
    TraceSpan span(&stats);
    span.AddRows(3);
  }
  EXPECT_EQ(stats.invocations, 2u);
  EXPECT_EQ(stats.rows, 10u);
  EXPECT_GT(stats.time_ns, 0u);

  OperatorStats other;
  other.invocations = 1;
  other.rows = 90;
  other.time_ns = 1000;
  stats.Merge(other);
  EXPECT_EQ(stats.invocations, 3u);
  EXPECT_EQ(stats.rows, 100u);
}

TEST(TraceSpanTest, NullSinkIsDisengaged) {
  TraceSpan span(nullptr);
  EXPECT_FALSE(span.engaged());
  span.AddRows(7);  // Must be a harmless no-op.
  TraceSpan default_constructed;
  EXPECT_FALSE(default_constructed.engaged());
}

// ---- Report round trip ----------------------------------------------------

RunReport MakeSampleReport() {
  MetricsRegistry registry;
  for (int i = 1; i <= 200; ++i) {
    registry.RecordLatencyMicros(ComplexOp(9), 100.0 * i);
    registry.RecordLatencyMicros(ShortOp(1), 5.0);
  }
  registry.AddCounter(Counter::kOperationsExecuted, 400);
  registry.SetGauge(Gauge::kEpochAdvances, 12);

  RunReport report;
  report.title = "unit-test run";
  report.metrics = registry.Snapshot();
  report.has_driver = true;
  report.driver.operations_executed = 400;
  report.driver.elapsed_seconds = 1.5;
  report.driver.ops_per_second = 400 / 1.5;
  report.driver.max_schedule_lag_ms = 42.0;
  report.driver.lag_timeline_ms = {{0.0, 1.0}, {1.0, 42.0}};
  report.has_q9_profile = true;
  report.q9_profile.plan = "INL-INL-HASH (intended)";
  OperatorEntry entry;
  entry.name = "join1_friends";
  entry.stats.invocations = 200;
  entry.stats.time_ns = 5000000;
  entry.stats.rows = 2400;
  report.q9_profile.operators.push_back(entry);
  return report;
}

TEST(ReportTest, JsonRoundTripPreservesStructure) {
  RunReport report = MakeSampleReport();
  std::string json = ToJson(report);

  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &v, &error)) << error;
  EXPECT_EQ(v.Find("schema")->string, "snb-report-v5");
  EXPECT_EQ(v.Find("title")->string, "unit-test run");

  const JsonValue* ops = v.Find("ops");
  ASSERT_NE(ops, nullptr);
  ASSERT_EQ(ops->array.size(), 2u);  // Zero-count ops omitted.
  const JsonValue& q9 = ops->array[0];
  EXPECT_EQ(q9.Find("op")->string, "complex.Q9");
  EXPECT_DOUBLE_EQ(q9.Find("count")->number, 200.0);
  // p50 of 100us..20000us uniform ~ 10000us = 10ms (bucket error only).
  EXPECT_NEAR(q9.Find("p50_ms")->number, 10.0, 0.5);
  EXPECT_NEAR(q9.Find("max_ms")->number, 20.0, 1.0);

  const JsonValue* driver = v.Find("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_DOUBLE_EQ(driver->Find("operations_executed")->number, 400.0);
  // The compliance section is the one pace verdict; the driver section
  // carries no second one.
  EXPECT_EQ(driver->Find("sustained"), nullptr);
  ASSERT_EQ(driver->Find("lag_timeline_ms")->array.size(), 2u);

  const JsonValue* profile = v.Find("q9_profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->Find("plan")->string, "INL-INL-HASH (intended)");
  ASSERT_EQ(profile->Find("operators")->array.size(), 1u);
  EXPECT_EQ(profile->Find("operators")->array[0].Find("name")->string,
            "join1_friends");

  EXPECT_TRUE(ValidateReportJson(json).ok());
}

TEST(ReportTest, CountersAndGaugesSerialized) {
  std::string json = ToJson(MakeSampleReport());
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &v, &error)) << error;
  const JsonValue* counters = v.Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* executed = counters->Find("driver.operations_executed");
  ASSERT_NE(executed, nullptr);
  EXPECT_DOUBLE_EQ(executed->number, 400.0);
  const JsonValue* gauges = v.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->Find("epoch.advances")->number, 12.0);
}

TEST(ReportTest, ValidationCatchesBrokenReports) {
  // Not the schema.
  EXPECT_FALSE(ValidateReportJson("{\"schema\":\"other\"}").ok());
  // Parse error.
  EXPECT_FALSE(ValidateReportJson("{").ok());
  // Empty ops table.
  EXPECT_FALSE(
      ValidateReportJson("{\"schema\":\"snb-report-v5\",\"ops\":[]}").ok());
  // Non-monotone percentiles.
  EXPECT_FALSE(ValidateReportJson(
                   "{\"schema\":\"snb-report-v5\",\"ops\":[{\"op\":\"x\","
                   "\"count\":2,\"p50_ms\":5.0,\"p90_ms\":1.0,"
                   "\"p95_ms\":6.0,\"p99_ms\":7.0,\"max_ms\":8.0}]}")
                   .ok());
  // Zero-count row.
  EXPECT_FALSE(ValidateReportJson(
                   "{\"schema\":\"snb-report-v5\",\"ops\":[{\"op\":\"x\","
                   "\"count\":0,\"p50_ms\":1.0,\"p90_ms\":1.0,"
                   "\"p95_ms\":1.0,\"p99_ms\":1.0,\"max_ms\":1.0}]}")
                   .ok());
}

TEST(ReportTest, PrometheusTextExposesSeries) {
  RunReport report = MakeSampleReport();
  std::string text = ToPrometheusText(report.metrics);
  EXPECT_NE(text.find("snb_op_count{op=\"complex.Q9\"} 200"),
            std::string::npos);
  EXPECT_NE(text.find("snb_op_latency_ms{op=\"complex.Q9\",quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("snb_counter{name=\"driver.operations_executed\"} 400"),
            std::string::npos);
  EXPECT_NE(text.find("snb_gauge{name=\"epoch.advances\"} 12"),
            std::string::npos);
}

// Per the Prometheus text exposition format, label values must escape
// backslash, double quote and newline — and nothing else.
TEST(ReportTest, PrometheusLabelEscaping) {
  EXPECT_EQ(EscapePromLabelValue("plain.value"), "plain.value");
  EXPECT_EQ(EscapePromLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapePromLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(EscapePromLabelValue("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(EscapePromLabelValue("\\\"\n"), "\\\\\\\"\\n");
  // A hostile value in the dump stays on one line and keeps its quotes
  // balanced: the exposition must still parse line-by-line.
  std::string hostile = "evil\"} 1\nsnb_injected{x=\"";
  std::string escaped = EscapePromLabelValue(hostile);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(escaped, "evil\\\"} 1\\nsnb_injected{x=\\\"");
}

// ---- Compliance section ---------------------------------------------------

ComplianceSection MakeCompliance() {
  ComplianceSection c;
  c.window_ms = 100.0;
  c.required_on_time_fraction = 0.95;
  c.scheduled_ops = 1000;
  c.on_time_ops = 970;
  c.on_time_fraction = 0.97;
  c.passed = true;
  c.lateness_histogram_ms = {{0.0, 900}, {50.0, 70}, {200.0, 30}};
  c.per_op = {{"update.U7", 600, 25, 350.5}, {"complex.Q9", 400, 5, 120.0}};
  return c;
}

TEST(ReportTest, ComplianceSectionRoundTrip) {
  RunReport report = MakeSampleReport();
  report.has_compliance = true;
  report.compliance = MakeCompliance();
  std::string json = ToJson(report);
  EXPECT_TRUE(ValidateReportJson(json).ok());

  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &v, &error)) << error;
  const JsonValue* c = v.Find("compliance");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->Find("window_ms")->number, 100.0);
  EXPECT_DOUBLE_EQ(c->Find("required_on_time_fraction")->number, 0.95);
  EXPECT_DOUBLE_EQ(c->Find("scheduled_ops")->number, 1000.0);
  EXPECT_DOUBLE_EQ(c->Find("on_time_ops")->number, 970.0);
  EXPECT_TRUE(c->Find("passed")->boolean);
  const JsonValue* hist = c->Find("lateness_histogram_ms");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->array.size(), 3u);
  EXPECT_DOUBLE_EQ(hist->array[1].array[0].number, 50.0);
  EXPECT_DOUBLE_EQ(hist->array[1].array[1].number, 70.0);
  const JsonValue* worst = c->Find("worst_offenders");
  ASSERT_NE(worst, nullptr);
  ASSERT_EQ(worst->array.size(), 2u);
  EXPECT_EQ(worst->array[0].Find("op")->string, "update.U7");
  EXPECT_DOUBLE_EQ(worst->array[0].Find("max_late_ms")->number, 350.5);
}

TEST(ReportTest, ValidationChecksComplianceConsistency) {
  RunReport report = MakeSampleReport();
  report.has_compliance = true;

  // On-time count exceeding the scheduled count is structural corruption.
  report.compliance = MakeCompliance();
  report.compliance.on_time_ops = 2000;
  EXPECT_FALSE(ValidateReportJson(ToJson(report)).ok());

  // Fraction outside [0, 1].
  report.compliance = MakeCompliance();
  report.compliance.on_time_fraction = 1.5;
  EXPECT_FALSE(ValidateReportJson(ToJson(report)).ok());

  // Histogram must account for every scheduled operation.
  report.compliance = MakeCompliance();
  report.compliance.lateness_histogram_ms = {{0.0, 1}};
  EXPECT_FALSE(ValidateReportJson(ToJson(report)).ok());
}

// Every section but the op table is optional: a document with nothing
// else still validates.
std::string MinimalReport(const std::string& schema) {
  return "{\"schema\":\"" + schema +
         "\",\"ops\":[{\"op\":\"x\",\"count\":2,\"p50_ms\":1.0,"
         "\"p90_ms\":2.0,\"p95_ms\":3.0,\"p99_ms\":4.0,\"max_ms\":5.0}]}";
}

TEST(ReportTest, ValidatorAcceptsMinimalDocument) {
  EXPECT_TRUE(ValidateReportJson(MinimalReport("snb-report-v5")).ok());
}

// v5 is the one schema: older tags are refused by name, not read as a
// subset.
TEST(ReportTest, ValidatorRejectsOlderSchemaTags) {
  for (const char* tag : {"snb-report-v1", "snb-report-v2", "snb-report-v3",
                          "snb-report-v4"}) {
    util::Status st = ValidateReportJson(MinimalReport(tag));
    EXPECT_FALSE(st.ok()) << tag;
    EXPECT_NE(st.message().find("unsupported schema"), std::string::npos)
        << st.message();
  }
}

// ---- Profile section (v5) -------------------------------------------------

/// A structurally valid v5 profile section to perturb per invariant.
ProfileSection MakeProfile() {
  ProfileSection p;
  p.backend = "timer";
  p.message = "sampling live";
  p.interval_us = 997;
  p.captured = 100;
  p.attributed = 90;
  p.unattributed = 8;
  p.dropped = 2;
  p.self_overhead_ns = 50'000;
  p.task_clock_ns = 500'000'000;
  p.threads = 5;
  ProfileSection::OpFrames op;
  op.op = "complex.Q9";
  op.samples = 90;
  op.frames.push_back({"snb::queries::Query9WithPlan", 60});
  op.frames.push_back({"snb::store::MessageIndex::Scan", 30});
  p.top_frames.push_back(op);
  return p;
}

TEST(ReportTest, ProfileSectionRoundTrip) {
  RunReport report = MakeSampleReport();
  report.has_profile = true;
  report.profile = MakeProfile();
  std::string json = ToJson(report);
  ASSERT_TRUE(ValidateReportJson(json).ok()) << json.substr(0, 300);

  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &v, &error)) << error;
  const JsonValue* profile = v.Find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->Find("backend")->string, "timer");
  EXPECT_DOUBLE_EQ(profile->Find("captured")->number, 100.0);
  EXPECT_DOUBLE_EQ(profile->Find("self_overhead_ns")->number, 50'000.0);
  const JsonValue* top = profile->Find("top_frames");
  ASSERT_NE(top, nullptr);
  ASSERT_EQ(top->array.size(), 1u);
  EXPECT_EQ(top->array[0].Find("op")->string, "complex.Q9");
  ASSERT_EQ(top->array[0].Find("frames")->array.size(), 2u);
  EXPECT_EQ(top->array[0].Find("frames")->array[0].Find("frame")->string,
            "snb::queries::Query9WithPlan");
}

TEST(ReportTest, ValidatorRejectsUnconservedProfileAccounting) {
  RunReport report = MakeSampleReport();
  report.has_profile = true;
  report.profile = MakeProfile();
  report.profile.attributed = 50;  // 50 + 8 + 2 != 100.
  util::Status status = ValidateReportJson(ToJson(report));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("captured == attributed"),
            std::string::npos)
      << status.ToString();
}

TEST(ReportTest, ValidatorRejectsOverheadExceedingTaskClock) {
  RunReport report = MakeSampleReport();
  report.has_profile = true;
  report.profile = MakeProfile();
  // Handler time is a subset of sampled CPU time; more is impossible.
  report.profile.self_overhead_ns = report.profile.task_clock_ns + 1;
  util::Status status = ValidateReportJson(ToJson(report));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("task clock"), std::string::npos)
      << status.ToString();
}

TEST(ReportTest, ValidatorRejectsUnknownProfileBackend) {
  RunReport report = MakeSampleReport();
  report.has_profile = true;
  report.profile = MakeProfile();
  report.profile.backend = "quantum";
  EXPECT_FALSE(ValidateReportJson(ToJson(report)).ok());
}

TEST(ReportTest, ValidatorRejectsSamplesUnderNoopBackend) {
  RunReport report = MakeSampleReport();
  report.has_profile = true;
  report.profile = MakeProfile();
  // A no-op backend cannot have captured anything: fabricated samples.
  report.profile.backend = "noop";
  util::Status status = ValidateReportJson(ToJson(report));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("non-timer"), std::string::npos)
      << status.ToString();

  // The degradation shape CI actually produces — noop with all-zero
  // accounting — stays valid.
  report.profile = ProfileSection();
  report.profile.backend = "noop";
  report.profile.message = "forced no-op (SNB_PROF_FORCE_NOOP)";
  EXPECT_TRUE(ValidateReportJson(ToJson(report)).ok());
}

TEST(ReportTest, ValidatorRejectsMalformedTopFrames) {
  RunReport report = MakeSampleReport();
  report.has_profile = true;
  report.profile = MakeProfile();
  report.profile.top_frames[0].frames.clear();  // Op row with no frames.
  EXPECT_FALSE(ValidateReportJson(ToJson(report)).ok());
}

TEST(ReportTest, MakeProfileSectionRanksLeafFramesPerOp) {
  prof::FoldedProfile folded;
  folded.backend = prof::Backend::kTimer;
  folded.message = "sampling live";
  folded.interval_us = 997;
  folded.accounting.captured = 60;
  folded.accounting.attributed = 50;
  folded.accounting.unattributed = 10;
  folded.accounting.threads = 2;
  auto stack = [](const char* lane, const char* op,
                  std::vector<std::string> frames, uint64_t count) {
    prof::FoldedStack s;
    s.lane = lane;
    s.op = op;
    s.frames = std::move(frames);
    s.count = count;
    return s;
  };
  // Two stacks share the leaf "Scan" under Q9 (different callers), so
  // its self-samples merge: 20 + 15 = 35, ranking above "Sort" (15).
  folded.stacks.push_back(stack("d.0", "complex.Q9", {"main", "Scan"}, 20));
  folded.stacks.push_back(stack("d.1", "complex.Q9", {"run", "Scan"}, 15));
  folded.stacks.push_back(stack("d.0", "complex.Q9", {"main", "Sort"}, 15));
  folded.stacks.push_back(stack("d.0", "", {"main", "Wait"}, 10));

  ProfileSection p = MakeProfileSection(folded, /*top_n=*/2);
  EXPECT_EQ(p.backend, "timer");
  EXPECT_EQ(p.captured, 60u);
  ASSERT_EQ(p.top_frames.size(), 2u);
  // Ops ranked by total samples: Q9 (50) before unattributed (10).
  EXPECT_EQ(p.top_frames[0].op, "complex.Q9");
  EXPECT_EQ(p.top_frames[0].samples, 50u);
  ASSERT_EQ(p.top_frames[0].frames.size(), 2u);
  EXPECT_EQ(p.top_frames[0].frames[0].frame, "Scan");
  EXPECT_EQ(p.top_frames[0].frames[0].samples, 35u);
  EXPECT_EQ(p.top_frames[0].frames[1].frame, "Sort");
  EXPECT_EQ(p.top_frames[0].frames[1].samples, 15u);
  EXPECT_EQ(p.top_frames[1].op, "(unattributed)");

  // The emitted JSON validates as a v5 document end to end.
  RunReport report = MakeSampleReport();
  report.has_profile = true;
  report.profile = p;
  EXPECT_TRUE(ValidateReportJson(ToJson(report)).ok());
}

// ---- TraceBuffer ----------------------------------------------------------

// Chrome-trace validation helper: walks traceEvents and checks, per lane,
// strictly matched B/E pairs with non-decreasing timestamps.
void CheckChromeTrace(const std::string& json, size_t* out_spans) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &v, &error)) << error;
  const JsonValue* events = v.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  std::map<int, int> open_per_lane;
  std::map<int, double> last_ts;
  size_t spans = 0;
  for (const JsonValue& e : events->array) {
    const std::string& ph = e.Find("ph")->string;
    if (ph == "M") continue;  // Metadata carries no timestamp.
    ASSERT_TRUE(ph == "B" || ph == "E") << ph;
    int lane = static_cast<int>(e.Find("tid")->number);
    double ts = e.Find("ts")->number;
    auto [it, fresh] = last_ts.emplace(lane, ts);
    if (!fresh) {
      EXPECT_GE(ts, it->second) << "lane " << lane;
      it->second = ts;
    }
    if (ph == "B") {
      ASSERT_NE(e.Find("name"), nullptr);
      ++open_per_lane[lane];
      ++spans;
    } else {
      ASSERT_GT(open_per_lane[lane], 0) << "E without B on lane " << lane;
      --open_per_lane[lane];
    }
  }
  for (const auto& [lane, open] : open_per_lane) {
    EXPECT_EQ(open, 0) << "unclosed span on lane " << lane;
  }
  if (out_spans != nullptr) *out_spans = spans;
}

TEST(TraceBufferTest, MultiThreadExportIsWellFormedChromeTrace) {
  TraceBuffer buffer;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&buffer, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        TraceEvent event;
        event.op = ComplexOp(1 + ((t + i) % 14));
        event.exec_begin_ns = buffer.NowNs();
        if (i % 3 == 0) {
          // Simulate a T_GC wait preceding execution.
          event.gct_begin_ns =
              event.exec_begin_ns > 500 ? event.exec_begin_ns - 500 : 0;
          event.gct_wait_ns = 400;
        }
        if (i % 2 == 0) {
          event.sched_ns = static_cast<int64_t>(event.exec_begin_ns) - 100;
        }
        event.end_ns = event.exec_begin_ns + 1000 + i;
        buffer.Record(event);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(buffer.recorded(), kThreads * kOpsPerThread);
  EXPECT_EQ(buffer.dropped(), 0u);
  ASSERT_EQ(buffer.Events().size(), kThreads * kOpsPerThread);

  size_t spans = 0;
  CheckChromeTrace(ToChromeTraceJson(buffer), &spans);
  // Every op span, plus one gct_wait sub-span per i%3==0 event.
  size_t gct_spans = 0;
  for (const TraceEvent& e : buffer.Events()) {
    if (e.gct_wait_ns > 0) ++gct_spans;
  }
  EXPECT_EQ(spans, kThreads * kOpsPerThread + gct_spans);
}

TEST(TraceBufferTest, RingBoundOverwritesOldestAndCounts) {
  TraceBuffer buffer(/*events_per_lane=*/16);
  for (int i = 0; i < 100; ++i) {
    TraceEvent event;
    event.op = ShortOp(1);
    event.exec_begin_ns = static_cast<uint64_t>(i) * 10;
    event.end_ns = event.exec_begin_ns + 5;
    buffer.Record(event);
  }
  EXPECT_EQ(buffer.recorded(), 100u);
  EXPECT_EQ(buffer.dropped(), 84u);  // 100 - 16 retained.
  std::vector<TraceEvent> events = buffer.Events();
  ASSERT_EQ(events.size(), 16u);
  // The retained window is the *tail* of the run.
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.exec_begin_ns, 84u * 10);
  }
  CheckChromeTrace(ToChromeTraceJson(buffer), nullptr);
}

TEST(TraceBufferTest, PerLaneStatsAccountForEveryRecordedEvent) {
  TraceBuffer buffer(/*events_per_lane=*/8);
  constexpr int kThreads = 3;
  const int counts[kThreads] = {4, 8, 30};  // Under, at, past the ring bound.
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&buffer, n = counts[t]] {
      for (int i = 0; i < n; ++i) {
        TraceEvent event;
        event.op = ShortOp(1);
        event.exec_begin_ns = static_cast<uint64_t>(i) * 10;
        event.end_ns = event.exec_begin_ns + 5;
        buffer.Record(event);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  std::vector<TraceBuffer::LaneStats> lanes = buffer.PerLaneStats();
  ASSERT_EQ(lanes.size(), static_cast<size_t>(kThreads));
  uint64_t recorded = 0;
  uint64_t dropped = 0;
  for (const TraceBuffer::LaneStats& lane : lanes) {
    EXPECT_EQ(lane.recorded, lane.retained + lane.dropped)
        << "lane " << lane.lane;
    EXPECT_LE(lane.retained, 8u);
    recorded += lane.recorded;
    dropped += lane.dropped;
  }
  // Lane rows must sum to the aggregate counters: no event unaccounted.
  EXPECT_EQ(recorded, buffer.recorded());
  EXPECT_EQ(dropped, buffer.dropped());
  EXPECT_EQ(recorded, 42u);
  EXPECT_EQ(dropped, 22u);  // Only the 30-event lane wraps: 30 - 8.
}

TEST(TraceBufferTest, SchedArgsOnlyOnScheduledOps) {
  TraceBuffer buffer;
  TraceEvent scheduled;
  scheduled.op = UpdateOp(7);
  scheduled.sched_ns = 1'000'000;
  scheduled.exec_begin_ns = 3'500'000;
  scheduled.end_ns = 4'000'000;
  buffer.Record(scheduled);
  TraceEvent unscheduled;
  unscheduled.op = ShortOp(2);
  unscheduled.exec_begin_ns = 5'000'000;
  unscheduled.end_ns = 6'000'000;
  buffer.Record(unscheduled);

  std::string json = ToChromeTraceJson(buffer);
  CheckChromeTrace(json, nullptr);
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &v, &error)) << error;
  int with_args = 0;
  for (const JsonValue& e : v.Find("traceEvents")->array) {
    if (e.Find("ph")->string != "B") continue;
    const JsonValue* args = e.Find("args");
    if (e.Find("name")->string == OpTypeName(UpdateOp(7))) {
      ASSERT_NE(args, nullptr);
      // 3.5ms actual - 1.0ms scheduled = 2.5ms lag (exact at the %.3f
      // precision the exporter prints args with).
      EXPECT_NEAR(args->Find("lag_ms")->number, 2.5, 1e-9);
      EXPECT_NEAR(args->Find("sched_ms")->number, 1.0, 1e-9);
      ++with_args;
    } else {
      EXPECT_EQ(args, nullptr) << e.Find("name")->string;
    }
  }
  EXPECT_EQ(with_args, 1);
}

// ---- Q9 operator profile --------------------------------------------------

TEST(Q9ProfileTest, ProfileConsistentWithPlanStats) {
  datagen::DatagenConfig config;
  config.num_persons = 250;
  config.split_update_stream = false;
  datagen::Dataset dataset = datagen::Generate(config);
  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(dataset.bulk).ok());
  util::TimestampMs max_date =
      util::kNetworkStartMs + 30 * util::kMillisPerMonth;

  queries::Q9OperatorProfile inl_profile;
  queries::Q9OperatorProfile hash_profile;
  queries::Q9PlanStats stats_sum{};
  int executions = 0;
  std::vector<schema::PersonId> person_ids;
  {
    auto pin = store.ReadLock();
    person_ids = store.PersonIds(pin);
  }
  for (schema::PersonId p : person_ids) {
    if (p % 23 != 0) continue;
    queries::Q9PlanStats s{};
    std::vector<queries::Q9Result> with_profile = queries::Query9WithPlan(
        store, p, max_date, 20, queries::JoinStrategy::kIndexNestedLoop,
        queries::JoinStrategy::kIndexNestedLoop,
        queries::JoinStrategy::kIndexNestedLoop, &s, &inl_profile);
    std::vector<queries::Q9Result> reference =
        queries::Query9(store, p, max_date, 20);
    ASSERT_EQ(with_profile.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(with_profile[i].message_id, reference[i].message_id);
    }
    (void)queries::Query9WithPlan(
        store, p, max_date, 20, queries::JoinStrategy::kHash,
        queries::JoinStrategy::kHash, queries::JoinStrategy::kHash, nullptr,
        &hash_profile);
    stats_sum.join1_output += s.join1_output;
    stats_sum.join2_output += s.join2_output;
    stats_sum.join3_output += s.join3_output;
    ++executions;
  }
  ASSERT_GT(executions, 0);

  // Operator row counts mirror the cardinality counters exactly.
  EXPECT_EQ(inl_profile.join1.invocations, (uint64_t)executions);
  EXPECT_EQ(inl_profile.join1.rows, stats_sum.join1_output);
  EXPECT_EQ(inl_profile.join2.rows, stats_sum.join2_output);
  EXPECT_EQ(inl_profile.join3.rows, stats_sum.join3_output);
  // A pure-INL plan never builds a hash table; ProfileRows drops the row.
  EXPECT_EQ(inl_profile.hash_build.invocations, 0u);
  for (const auto& [name, op] : queries::ProfileRows(inl_profile)) {
    EXPECT_NE(name, "hash_build");
    EXPECT_GT(op.invocations, 0u);
  }
  // The all-hash plan does build, and its profile keeps the row.
  EXPECT_GT(hash_profile.hash_build.invocations, 0u);

  obs::Q9ProfileSection section =
      queries::MakeQ9ProfileSection(inl_profile, "INL-INL-INL");
  EXPECT_EQ(section.plan, "INL-INL-INL");
  EXPECT_EQ(section.operators.size(),
            queries::ProfileRows(inl_profile).size());

  // And the section survives the JSON round trip inside a report.
  RunReport report;
  report.title = "q9 profile test";
  MetricsRegistry registry;
  registry.RecordLatencyMicros(ComplexOp(9), 123.0);
  report.metrics = registry.Snapshot();
  report.has_q9_profile = true;
  report.q9_profile = section;
  std::string json = ToJson(report);
  EXPECT_TRUE(ValidateReportJson(json).ok());
}

}  // namespace
}  // namespace snb::obs
