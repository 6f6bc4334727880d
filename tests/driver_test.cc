// End-to-end driver tests: all execution modes must replay the update
// stream with zero dependency violations, and the full mix must run reads
// concurrently with updates.
#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "driver/driver.h"
#include "driver/query_mix.h"
#include "driver/run_audit.h"
#include "obs/dossier.h"
#include "obs/trace_buffer.h"
#include "queries/complex_queries.h"
#include "queries/query9_plans.h"

namespace snb::driver {
namespace {

class DriverTest : public ::testing::Test {
 protected:
  struct World {
    datagen::Dataset dataset;
    std::unique_ptr<schema::Dictionaries> dict;
  };

  static World& world() {
    static World* w = [] {
      auto* world = new World();
      datagen::DatagenConfig config;
      config.num_persons = 250;
      world->dataset = datagen::Generate(config);
      world->dict = std::make_unique<schema::Dictionaries>(config.seed);
      return world;
    }();
    return *w;
  }

  static Workload UpdateOnlyWorkload() {
    QueryMixConfig mix;
    mix.include_complex_reads = false;
    return BuildWorkload(world().dataset, *world().dict, mix);
  }
};

TEST_F(DriverTest, WorkloadIsDueTimeSorted) {
  Workload workload = UpdateOnlyWorkload();
  ASSERT_GT(workload.operations.size(), 0u);
  for (size_t i = 1; i < workload.operations.size(); ++i) {
    EXPECT_GE(workload.operations[i].due_time,
              workload.operations[i - 1].due_time);
  }
  EXPECT_EQ(workload.num_updates, world().dataset.updates.size());
}

// The core correctness property: replaying the update stream through the
// driver in ANY mode with ANY parallelism must produce zero dependency
// violations (the store rejects an op whose dependencies are missing).
class DriverModeTest
    : public DriverTest,
      public ::testing::WithParamInterface<std::tuple<ExecutionMode, int>> {};

TEST_P(DriverModeTest, ReplaysUpdateStreamWithoutViolations) {
  auto [mode, partitions] = GetParam();
  Workload workload = UpdateOnlyWorkload();

  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(world().dataset.bulk).ok());
  obs::MetricsRegistry metrics;
  StoreConnector connector(&store, &world().dataset.updates, world().dict.get(),
                           &metrics);

  DriverConfig config;
  config.mode = mode;
  config.num_partitions = partitions;
  config.metrics = &metrics;
  DriverReport report =
      RunWorkload(workload.operations, connector, config);

  EXPECT_EQ(report.operations_executed, workload.operations.size());
  EXPECT_EQ(report.operations_failed, 0u) << report.first_error;
  // The final store state matches the full dataset.
  EXPECT_EQ(store.NumPersons(), world().dataset.stats.num_persons);
  EXPECT_EQ(store.NumKnowsEdges(), world().dataset.stats.num_knows);
  EXPECT_EQ(store.NumMessages(), world().dataset.stats.NumMessages());
  EXPECT_EQ(store.NumLikes(), world().dataset.stats.num_likes);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, DriverModeTest,
    ::testing::Combine(
        ::testing::Values(ExecutionMode::kSequentialForum,
                          ExecutionMode::kParallelGct,
                          ExecutionMode::kWindowed),
        ::testing::Values(1, 4, 8)),
    [](const auto& info) {
      const char* mode = "Unknown";
      switch (std::get<0>(info.param)) {
        case ExecutionMode::kSequentialForum:
          mode = "SequentialForum";
          break;
        case ExecutionMode::kParallelGct:
          mode = "ParallelGct";
          break;
        case ExecutionMode::kWindowed:
          mode = "Windowed";
          break;
      }
      return std::string(mode) + "P" + std::to_string(std::get<1>(info.param));
    });

TEST_F(DriverTest, FullMixRunsReadsAndWalk) {
  QueryMixConfig mix;
  // Small frequencies so a mini stream still gets reads of every type.
  for (auto& f : mix.frequencies) f = std::max<uint32_t>(1, f / 40);
  Workload workload = BuildWorkload(world().dataset, *world().dict, mix);
  EXPECT_GT(workload.num_complex_reads, 0u);

  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(world().dataset.bulk).ok());
  obs::MetricsRegistry metrics;
  StoreConnector connector(&store, &world().dataset.updates, world().dict.get(),
                           &metrics);
  DriverConfig config;
  config.num_partitions = 4;
  config.metrics = &metrics;
  DriverReport report = RunWorkload(workload.operations, connector, config);

  EXPECT_EQ(report.operations_failed, 0u) << report.first_error;
  // Complex reads of several types ran.
  obs::MetricsSnapshot snap = metrics.Snapshot();
  int complex_types = 0;
  for (size_t i = obs::kComplexBegin; i < obs::kShortBegin; ++i) {
    if (snap.ops[i].count > 0) ++complex_types;
  }
  EXPECT_GE(complex_types, 10);
  // The random walk spawned short reads.
  EXPECT_GT(connector.short_reads_executed(), 0u);
  double short_micros = snap.SumMicros(obs::kShortBegin, obs::kUpdateBegin);
  EXPECT_GT(short_micros, 0.0);
  EXPECT_GT(snap.CounterValue(obs::Counter::kShortReadWalkSteps), 0u);
  // The run's outcome counters were folded into the registry.
  EXPECT_EQ(snap.CounterValue(obs::Counter::kOperationsExecuted),
            report.operations_executed);
  EXPECT_EQ(snap.CounterValue(obs::Counter::kOperationsFailed), 0u);
}

TEST_F(DriverTest, ThrottledRunSustainsAcceleration) {
  // Replay a slice at a pace that is easy to sustain and check the
  // compliance verdict plus rough wall-clock agreement.
  Workload workload = UpdateOnlyWorkload();
  size_t slice = std::min<size_t>(workload.operations.size(), 400);
  std::vector<Operation> ops(workload.operations.begin(),
                             workload.operations.begin() + slice);

  SleepingConnector connector(0);
  DriverConfig config;
  config.num_partitions = 4;
  util::TimestampMs span = ops.back().due_time - ops.front().due_time;
  // Target ~200ms of real time for the slice.
  config.acceleration = static_cast<double>(span) / 200.0;
  DriverReport report = RunWorkload(ops, connector, config);
  ASSERT_TRUE(report.has_compliance);
  EXPECT_TRUE(report.compliance.passed)
      << report.compliance.on_time_fraction << " on time, max lag "
      << report.max_schedule_lag_ms << " ms";
  EXPECT_GT(report.elapsed_seconds, 0.15);
  EXPECT_EQ(report.operations_failed, 0u);
}

TEST_F(DriverTest, ThrottledRunRecordsLagTimeline) {
  Workload workload = UpdateOnlyWorkload();
  size_t slice = std::min<size_t>(workload.operations.size(), 400);
  std::vector<Operation> ops(workload.operations.begin(),
                             workload.operations.begin() + slice);

  SleepingConnector connector(0);
  obs::MetricsRegistry metrics;
  DriverConfig config;
  config.num_partitions = 4;
  config.metrics = &metrics;
  util::TimestampMs span = ops.back().due_time - ops.front().due_time;
  // ~1.2s of real time so the timeline spans at least two seconds.
  config.acceleration = static_cast<double>(span) / 1200.0;
  DriverReport report = RunWorkload(ops, connector, config);

  ASSERT_FALSE(report.lag_timeline_ms.empty());
  double prev_second = -1.0;
  for (const auto& [second, lag_ms] : report.lag_timeline_ms) {
    EXPECT_GT(second, prev_second);  // Strictly increasing seconds.
    EXPECT_GE(lag_ms, 0.0);
    prev_second = second;
  }
  EXPECT_GE(report.lag_timeline_ms.back().first, 1.0);
  // The sched-lag series saw every operation.
  obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.Op(obs::OpType::kSchedLag).count, ops.size());
  // An unthrottled run has no timeline.
  config.acceleration = 0.0;
  DriverReport unthrottled = RunWorkload(ops, connector, config);
  EXPECT_TRUE(unthrottled.lag_timeline_ms.empty());
}

TEST_F(DriverTest, SleepingConnectorScalesWithPartitions) {
  // Table 5 in miniature: more partitions -> more ops/sec with a fixed
  // per-op sleep.
  Workload workload = UpdateOnlyWorkload();
  size_t slice = std::min<size_t>(workload.operations.size(), 2000);
  std::vector<Operation> ops(workload.operations.begin(),
                             workload.operations.begin() + slice);

  auto run = [&](uint32_t partitions) {
    SleepingConnector connector(500);  // 0.5 ms.
    DriverConfig config;
    config.num_partitions = partitions;
    DriverReport report = RunWorkload(ops, connector, config);
    EXPECT_EQ(report.operations_failed, 0u);
    return report.ops_per_second;
  };
  double one = run(1);
  double four = run(4);
  EXPECT_GT(four, one * 2.0);
}

TEST_F(DriverTest, FrequencyLogScaleGrows) {
  EXPECT_NEAR(FrequencyLogScale(datagen::PersonsForScaleFactor(1.0)), 1.0,
              1e-9);
  EXPECT_GT(FrequencyLogScale(datagen::PersonsForScaleFactor(300)), 1.0);
  EXPECT_LT(FrequencyLogScale(60), 1.0);
}

TEST_F(DriverTest, CalibrateMixEqualizesCpuShares) {
  // Queries with 10x cost differences must get 10x lower frequencies.
  std::array<double, 14> costs{};
  for (int q = 0; q < 14; ++q) costs[q] = 100.0;
  costs[5] = 1000.0;  // Q6 is 10x heavier.
  costs[7] = 50.0;    // Q8 is 2x lighter.
  MixCalibration cal = CalibrateMix(costs, 1000000, 50.0, 5.0);
  EXPECT_GT(cal.frequencies[5], cal.frequencies[0] * 5);
  EXPECT_LT(cal.frequencies[7] * 3, cal.frequencies[0] * 2);
  // Equal CPU per query: instances * cost equal across queries (within
  // integer rounding).
  double budget0 = 100000.0 / cal.frequencies[0] * costs[0];
  double budget5 = 100000.0 / cal.frequencies[5] * costs[5];
  EXPECT_NEAR(budget5 / budget0, 1.0, 0.25);
  // Walk fills the short-read share.
  EXPECT_GT(cal.expected_walk_length, 0.0);
  EXPECT_GT(cal.short_read_initial_probability, 0.0);
}

TEST_F(DriverTest, CalibrateMixShortWalkScalesWithShortShare) {
  std::array<double, 14> costs{};
  for (int q = 0; q < 14; ++q) costs[q] = 100.0;
  MixCalibration narrow = CalibrateMix(costs, 10000, 50.0, 5.0, 0.3, 0.6);
  MixCalibration wide = CalibrateMix(costs, 10000, 50.0, 5.0, 0.1, 0.5);
  // 40% short share needs a longer walk than 10%.
  EXPECT_GT(wide.expected_walk_length, narrow.expected_walk_length);
}

TEST_F(DriverTest, EmptyWorkloadIsNoOp) {
  SleepingConnector connector(0);
  DriverConfig config;
  DriverReport report = RunWorkload({}, connector, config);
  EXPECT_EQ(report.operations_executed, 0u);
}

// ---- LagTimeline (bounded sched-lag series) -------------------------------

TEST_F(DriverTest, LagTimelineStaysWithinSlotCap) {
  LagTimeline timeline(/*max_slots=*/8);
  // A "run" 100x longer than the slot budget at 1 s/slot.
  for (int64_t second = 0; second < 800; ++second) {
    timeline.Record(second, second * 10);
  }
  EXPECT_LE(timeline.Snapshot().size(), timeline.max_slots());
  // 800 seconds over 8 slots -> 128 s/slot (next power of two >= 100).
  EXPECT_EQ(timeline.seconds_per_slot(), 128);
  // Downsampling folds by max: the last slot keeps the run's worst lag.
  auto rows = timeline.Snapshot();
  ASSERT_FALSE(rows.empty());
  EXPECT_DOUBLE_EQ(rows.back().second, 799 * 10 / 1000.0);
  // Slot edges are strictly increasing multiples of the scale.
  double prev = -1.0;
  for (const auto& [second, lag_ms] : rows) {
    EXPECT_GT(second, prev);
    EXPECT_EQ(static_cast<int64_t>(second) % timeline.seconds_per_slot(), 0);
    prev = second;
  }
}

TEST_F(DriverTest, LagTimelineKeepsMaxUnderConcurrentRescale) {
  LagTimeline timeline(/*max_slots=*/16);
  constexpr int kThreads = 4;
  constexpr int64_t kSecondsPerThread = 4000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&timeline, t] {
      for (int64_t s = t; s < kSecondsPerThread; s += kThreads) {
        timeline.Record(s, s);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  auto rows = timeline.Snapshot();
  EXPECT_LE(rows.size(), timeline.max_slots());
  ASSERT_FALSE(rows.empty());
  // The global max lag survives every fold.
  double max_lag = 0.0;
  for (const auto& [_, lag_ms] : rows) max_lag = std::max(max_lag, lag_ms);
  EXPECT_DOUBLE_EQ(max_lag, (kSecondsPerThread - 1) / 1000.0);
}

// ---- ComplianceTracker ----------------------------------------------------

TEST_F(DriverTest, ComplianceTrackerAuditsWindow) {
  ComplianceTracker tracker(/*window_ms=*/10.0);
  // 8 on-time Q1s, 2 late ones, and a very late update.
  for (int i = 0; i < 8; ++i) tracker.Record(obs::ComplexOp(1), 500);
  tracker.Record(obs::ComplexOp(1), 15'000);
  tracker.Record(obs::ComplexOp(1), 20'000);
  tracker.Record(obs::UpdateOp(7), 2'000'000);

  obs::ComplianceSection section = tracker.Finish(/*required=*/0.95);
  EXPECT_EQ(section.scheduled_ops, 11u);
  EXPECT_EQ(section.on_time_ops, 8u);
  EXPECT_NEAR(section.on_time_fraction, 8.0 / 11.0, 1e-12);
  EXPECT_FALSE(section.passed);
  // Worst offender ordering: the 2 s update leads.
  ASSERT_EQ(section.per_op.size(), 2u);
  EXPECT_EQ(section.per_op[0].op, "update.U7");
  EXPECT_EQ(section.per_op[0].late, 1u);
  EXPECT_NEAR(section.per_op[0].max_late_ms, 2000.0, 2000.0 / 16.0);
  EXPECT_EQ(section.per_op[1].op, "complex.Q1");
  EXPECT_EQ(section.per_op[1].scheduled, 10u);
  EXPECT_EQ(section.per_op[1].late, 2u);
  // The histogram accounts for every scheduled op (on-time ones too).
  uint64_t hist_total = 0;
  for (const auto& [_, count] : section.lateness_histogram_ms) {
    hist_total += count;
  }
  EXPECT_EQ(hist_total, section.scheduled_ops);
  // A permissive bar passes the same counts.
  EXPECT_TRUE(tracker.Finish(0.5).passed);
}

// ---- Dossiers time the serving plan ----------------------------------------

// Arming dossiers must not change the Q9 plan being timed. The connector
// with a collector runs the same Query9 as the one without it, only with
// a profile attached: the dossier's operator rows match a direct profiled
// Query9 call row for row (invocations and cardinalities), that call
// returns the unprofiled rows, and neither resembles Query9WithPlan — no
// hash_build, and join3 keeps at most `limit` messages per circle person
// where the INL plan keeps every qualifying one.
TEST_F(DriverTest, DossierQ9ProfilesTheServingPlan) {
  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(world().dataset.bulk).ok());
  util::TimestampMs max_date =
      util::kNetworkStartMs + 40 * util::kMillisPerMonth;

  // A person whose circle has more qualifying messages than the serving
  // plan's per-person truncation keeps, so the two plans' join3 differ.
  std::vector<schema::PersonId> persons;
  {
    auto pin = store.ReadLock();
    persons = store.PersonIds(pin);
  }
  schema::PersonId person = schema::kInvalidId;
  queries::Q9PlanStats serving_stats;
  queries::Q9PlanStats inl_stats;
  for (schema::PersonId p : persons) {
    queries::Query9(store, p, max_date, 20, &serving_stats);
    queries::Query9WithPlan(store, p, max_date, 20,
                            queries::JoinStrategy::kIndexNestedLoop,
                            queries::JoinStrategy::kIndexNestedLoop,
                            queries::JoinStrategy::kIndexNestedLoop,
                            &inl_stats);
    if (serving_stats.join3_output < inl_stats.join3_output) {
      person = p;
      break;
    }
  }
  ASSERT_NE(person, schema::kInvalidId);

  Operation op;
  op.type = OperationType::kComplexRead;
  op.query_id = 9;
  op.person_param = person;
  op.aux0 = static_cast<uint64_t>(max_date);
  op.due_time = max_date;

  obs::MetricsRegistry plain_metrics;
  StoreConnector plain(&store, &world().dataset.updates, world().dict.get(),
                       &plain_metrics);
  ASSERT_TRUE(plain.Execute(op).ok());

  obs::MetricsRegistry armed_metrics;
  obs::DossierCollector dossiers(/*keep_per_op=*/1);
  StoreConnector armed(&store, &world().dataset.updates, world().dict.get(),
                       &armed_metrics, ShortReadWalkConfig(),
                       /*dispatch_overhead_us=*/0, /*trace=*/nullptr,
                       &dossiers);
  ASSERT_TRUE(armed.Execute(op).ok());

  const obs::SlowQueryDossier* q9 = nullptr;
  std::vector<obs::SlowQueryDossier> kept = dossiers.Snapshot();
  for (const obs::SlowQueryDossier& d : kept) {
    if (d.op == obs::ComplexOp(9)) q9 = &d;
  }
  ASSERT_NE(q9, nullptr);

  queries::Q9PlanStats stats;
  queries::Q9OperatorProfile profile;
  std::vector<queries::Q9Result> profiled =
      queries::Query9(store, person, max_date, 20, &stats, &profile);
  std::vector<queries::Q9Result> unprofiled =
      queries::Query9(store, person, max_date, 20);
  ASSERT_EQ(profiled.size(), unprofiled.size());
  for (size_t i = 0; i < unprofiled.size(); ++i) {
    EXPECT_EQ(profiled[i].message_id, unprofiled[i].message_id) << i;
    EXPECT_EQ(profiled[i].creator_id, unprofiled[i].creator_id) << i;
    EXPECT_EQ(profiled[i].creation_date, unprofiled[i].creation_date) << i;
  }

  auto expected = queries::ProfileRows(profile);
  ASSERT_EQ(q9->operators.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const obs::DossierOperatorRow& row = q9->operators[i];
    EXPECT_EQ(row.name, expected[i].first);
    EXPECT_NE(row.name, "hash_build");
    EXPECT_EQ(row.invocations, expected[i].second.invocations) << row.name;
    EXPECT_EQ(row.rows, expected[i].second.rows) << row.name;
  }
  EXPECT_EQ(profile.hash_build.invocations, 0u);
  EXPECT_EQ(profile.join3.rows, stats.join3_output);
  EXPECT_LT(profile.join3.rows, inl_stats.join3_output);

  // Both connectors ran the same short-read walk after the read.
  obs::MetricsSnapshot plain_snap = plain_metrics.Snapshot();
  obs::MetricsSnapshot armed_snap = armed_metrics.Snapshot();
  EXPECT_EQ(armed_snap.CounterValue(obs::Counter::kShortReadWalkSteps),
            plain_snap.CounterValue(obs::Counter::kShortReadWalkSteps));
  for (size_t i = obs::kShortBegin; i < obs::kUpdateBegin; ++i) {
    EXPECT_EQ(armed_snap.ops[i].count, plain_snap.ops[i].count) << i;
  }
}

// ---- Compliance + trace wired through a real run --------------------------

TEST_F(DriverTest, ThrottledRunProducesComplianceAndTrace) {
  Workload workload = UpdateOnlyWorkload();
  size_t slice = std::min<size_t>(workload.operations.size(), 400);
  std::vector<Operation> ops(workload.operations.begin(),
                             workload.operations.begin() + slice);

  SleepingConnector connector(0);
  obs::TraceBuffer trace;
  DriverConfig config;
  config.num_partitions = 2;
  config.trace = &trace;
  util::TimestampMs span = ops.back().due_time - ops.front().due_time;
  config.acceleration = static_cast<double>(span) / 200.0;
  DriverReport report = RunWorkload(ops, connector, config);

  // Compliance: present, covers every driver op, generous window -> pass.
  ASSERT_TRUE(report.has_compliance);
  EXPECT_EQ(report.compliance.scheduled_ops, ops.size());
  EXPECT_TRUE(report.compliance.passed) << report.compliance.on_time_fraction;
  EXPECT_DOUBLE_EQ(report.compliance.window_ms, 100.0);
  EXPECT_FALSE(report.compliance.per_op.empty());

  // Trace: one event per driver op, all with a schedule attached.
  EXPECT_EQ(trace.recorded(), ops.size());
  for (const obs::TraceEvent& e : trace.Events()) {
    EXPECT_GE(e.sched_ns, 0);
    EXPECT_LE(e.exec_begin_ns, e.end_ns);
  }

  // Unthrottled runs audit nothing (there is no schedule to comply with).
  config.acceleration = 0.0;
  config.trace = nullptr;
  DriverReport unthrottled = RunWorkload(ops, connector, config);
  EXPECT_FALSE(unthrottled.has_compliance);
}

TEST_F(DriverTest, WindowedModeAuditsPerOperation) {
  Workload workload = UpdateOnlyWorkload();
  size_t slice = std::min<size_t>(workload.operations.size(), 400);
  std::vector<Operation> ops(workload.operations.begin(),
                             workload.operations.begin() + slice);

  SleepingConnector connector(0);
  DriverConfig config;
  config.num_partitions = 2;
  config.mode = ExecutionMode::kWindowed;
  util::TimestampMs span = ops.back().due_time - ops.front().due_time;
  config.acceleration = static_cast<double>(span) / 200.0;
  DriverReport report = RunWorkload(ops, connector, config);
  ASSERT_TRUE(report.has_compliance);
  // Windowed pacing holds starts to window boundaries, not op due times,
  // so ops late in a window show lag — but every op must be audited.
  EXPECT_EQ(report.compliance.scheduled_ops, ops.size());
}

}  // namespace
}  // namespace snb::driver
