// Self-tests for the benchmark's own logic: the max_accel search, the
// percentile bookkeeping, the spans, and the output check.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "battery.h"
#include "datagen/datagen.h"
#include "driver/connectors.h"
#include "driver/driver.h"
#include "driver/query_mix.h"
#include "ledger.h"
#include "obs/metrics.h"
#include "schema/dictionaries.h"
#include "store/graph_store.h"

namespace perfbench {
namespace {

using snb::driver::Operation;
using snb::driver::OperationType;

// ---- max_accel search -------------------------------------------------------

/// Probe with a sharp cliff: everything on time up to `cliff`, 30% above.
std::function<double(double)> Cliff(double cliff, int* calls) {
  return [cliff, calls](double accel) {
    ++*calls;
    return accel <= cliff ? 1.0 : 0.3;
  };
}

TEST(FindMaxAccel, LandsOnASyntheticCliffWithinItsResolution) {
  // Cliffs inside the first bracket, above it and far below it.
  for (double cliff : {0.9e6, 1.0e6, 1.2e6, 3.7e6, 0.08e6}) {
    int calls = 0;
    SearchResult r = FindMaxAccel(1.0e6, Cliff(cliff, &calls));
    SCOPED_TRACE(cliff);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.max_accel, cliff);
    EXPECT_GE(r.max_accel, cliff / (1.0 + kSearchResolution));
    EXPECT_GT(r.lowest_failing, cliff);
    EXPECT_LE(r.lowest_failing / r.max_accel, 1.0 + kSearchResolution);
    EXPECT_EQ(calls, static_cast<int>(r.probes.size()));
    EXPECT_LE(calls, kMaxProbes);
  }
}

TEST(FindMaxAccel, UsesTheOnTimeThresholdNotThePassFlag) {
  // On-time share falls linearly: 0.95 is reached exactly at 150.
  auto probe = [](double accel) { return 1.0 - (accel - 100.0) / 1000.0; };
  SearchResult r = FindMaxAccel(100.0, probe);
  EXPECT_LE(r.max_accel, 150.0);
  EXPECT_GE(r.max_accel, 150.0 / (1.0 + kSearchResolution));
}

TEST(FindMaxAccel, ReportsZeroWhenNothingPassesWithinTheBudget) {
  SearchResult r = FindMaxAccel(1.0, [](double) { return 0.0; }, 4);
  EXPECT_EQ(r.max_accel, 0.0);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.probes.size(), 4u);
}

// ---- Percentiles ------------------------------------------------------------

TEST(NearestRank, CarriesItsSampleCount) {
  std::vector<uint64_t> samples(200);
  std::iota(samples.begin(), samples.end(), 1);  // 1..200, then two swapped.
  std::swap(samples[3], samples[190]);
  Percentile p99 = NearestRank(samples, 99);
  EXPECT_EQ(p99.value, 198.0);
  EXPECT_EQ(p99.samples, 200u);
  Percentile p50 = NearestRank(samples, 50);
  EXPECT_EQ(p50.value, 100.0);
  EXPECT_EQ(p50.samples, 200u);

  std::vector<uint64_t> empty;
  Percentile none = NearestRank(empty, 99);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_EQ(none.value, 0.0);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

// ---- Spans ------------------------------------------------------------------

TEST(SpanLog, RecordsParentsAndRendersThem) {
  SpanLog log;
  uint32_t root = log.Open("root", 0);
  {
    ScopedSpan child(&log, "child", root);
    EXPECT_EQ(child.id(), 2u);
  }
  Span s;
  s.name = "lane";
  s.lane = 3;
  s.parent = root;
  s.start_ns = 1000;
  s.end_ns = 3000;
  log.Add(s);
  log.Close(root);
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[1].parent, root);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
  EXPECT_EQ(log.spans()[2].duration_ns(), 2000);
  std::string json = log.ToChromeTraceJson();
  EXPECT_NE(json.find("\"name\":\"lane\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":1"), std::string::npos);
}

TEST(ScopedSpan, NullLogRecordsNothing) {
  ScopedSpan span(nullptr, "x", 0);
  EXPECT_EQ(span.id(), 0u);
}

// ---- Output check -----------------------------------------------------------

/// A tiny full-mix world replayed like the benchmark replays it.
class OutputCheck : public ::testing::Test {
 protected:
  void SetUp() override {
    snb::datagen::DatagenConfig config;
    config.num_persons = 120;
    config.seed = 7;
    dataset_ = snb::datagen::Generate(config);
    dict_ = std::make_unique<snb::schema::Dictionaries>(config.seed);
    snb::driver::QueryMixConfig mix;
    mix.seed = config.seed;
    workload_ = snb::driver::BuildWorkload(dataset_, *dict_, mix);
    ASSERT_GT(workload_.num_updates, 10u);
    ASSERT_GT(workload_.num_complex_reads, 0u);
  }

  /// Replays `ops` into a fresh store through a TimedConnector and runs
  /// CheckReplay against the full schedule.
  std::string ReplayAndCheck(const std::vector<Operation>& ops,
                             snb::store::GraphStore* store) {
    EXPECT_TRUE(store->BulkLoad(dataset_.bulk).ok());
    snb::obs::MetricsRegistry metrics;
    snb::driver::StoreConnector inner(store, &dataset_.updates, dict_.get(),
                                      &metrics);
    SpanLog clock;
    TimedConnector connector(inner, clock, /*record_spans=*/true);
    snb::driver::DriverConfig config;
    config.num_partitions = 3;
    config.metrics = &metrics;
    snb::driver::DriverReport report =
        snb::driver::RunWorkload(ops, connector, config);
    uint64_t lane_ops = 0;
    for (size_t i = 0; i < connector.num_lanes(); ++i) {
      lane_ops += connector.lane(i).ops;
      EXPECT_EQ(connector.lane(i).spans.size(), connector.lane(i).ops);
    }
    EXPECT_EQ(lane_ops, ops.size());
    return CheckReplay(dataset_, workload_.operations, report,
                       metrics.Snapshot(), *store);
  }

  snb::datagen::Dataset dataset_;
  std::unique_ptr<snb::schema::Dictionaries> dict_;
  snb::driver::Workload workload_;
};

TEST_F(OutputCheck, PassesOnTheFullSchedule) {
  snb::store::GraphStore store;
  EXPECT_EQ(ReplayAndCheck(workload_.operations, &store), "");
  EXPECT_EQ(CompareCounts(CountsOf(dataset_.stats), CountsOf(store)), "");
}

TEST_F(OutputCheck, FiresWhenOneUpdateIsWithheld) {
  // Withhold the last update of the schedule: nothing depends on it, so
  // every other op still succeeds and only the check can notice.
  std::vector<Operation> ops = workload_.operations;
  for (size_t i = ops.size(); i-- > 0;) {
    if (ops[i].type == OperationType::kUpdate) {
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  ASSERT_EQ(ops.size() + 1, workload_.operations.size());
  snb::store::GraphStore store;
  std::string error = ReplayAndCheck(ops, &store);
  EXPECT_NE(error.find("executed ops"), std::string::npos) << error;
  EXPECT_NE(error.find("recorded updates"), std::string::npos) << error;
  EXPECT_NE(error.find("store after replay"), std::string::npos) << error;
  EXPECT_NE(error.find("store vs dataset stats"), std::string::npos) << error;
}

TEST_F(OutputCheck, ReadBatteryMatchesTheOracleAndCatchesADifference) {
  snb::store::GraphStore store;
  ASSERT_EQ(ReplayAndCheck(workload_.operations, &store), "");
  std::vector<Operation> battery = PickBattery(workload_.operations);
  ASSERT_FALSE(battery.empty());

  snb::datagen::DatagenConfig config = dataset_.config;
  config.split_update_stream = false;
  snb::datagen::Dataset unsplit = snb::datagen::Generate(config);
  BatteryResults expected = RunBatteryOnOracle(unsplit.bulk, *dict_, battery);
  BatteryResults actual = RunBatteryOnStore(store, *dict_, battery);
  EXPECT_EQ(CompareBattery(battery, expected, actual), "");

  // A store that missed the update stream answers differently.
  snb::store::GraphStore bulk_only;
  ASSERT_TRUE(bulk_only.BulkLoad(dataset_.bulk).ok());
  BatteryResults stale = RunBatteryOnStore(bulk_only, *dict_, battery);
  EXPECT_NE(CompareBattery(battery, expected, stale), "");

  BatteryResults corrupted = actual;
  corrupted.back().push_back("extra row");
  EXPECT_NE(CompareBattery(battery, expected, corrupted).find("<absent>"),
            std::string::npos);
}

}  // namespace
}  // namespace perfbench
