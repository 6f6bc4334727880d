// The repository benchmark: runs the library as examples/benchmark_run
// wires it (datagen -> GraphStore bulk load -> BuildWorkload -> driver
// RunWorkload over a StoreConnector), measures it from outside, checks its
// outputs, and prints one JSON result line last.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 adds one traced
// replay and prints the per-layer ledger instead (and writes the spans to
// --trace-out). README.md in this directory documents the workloads and
// metrics; run.py builds this program and forwards the arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
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

using namespace snb;
using driver::Operation;
using driver::OperationType;

// ---- Workloads --------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  double scale_factor;
  bool include_updates;
  bool include_complex_reads;
  /// Set-ups per run, half before the replays and half after them (see
  /// kSetupsBefore); setup_s is their median.
  int setups;
};

// README.md says why each exists. reads-sf1 is left out of BENCHMARK.json:
// its figures move 13-25% between seeds (each SF1 graph's own traversal
// cost), more than any bound the gate allows.
constexpr WorkloadSpec kWorkloads[] = {
    {"interactive-sf0.3", 0.3, true, true, 10},
    {"updates-sf1", 1.0, true, false, 4},
    {"reads-sf1", 1.0, false, true, 4},
};

/// Set-ups before the replays. The first one's dataset is dropped for the
/// battery reference, so at least two are needed. The rest of a workload's
/// set-ups run after the replays, with the retained dataset released
/// first, so a burst of load from other processes on the host rarely hits
/// all of them and peak RSS never holds two datasets.
constexpr int kSetupsBefore = 2;
static_assert(kSetupsBefore >= 2);
/// Unthrottled replays of an untraced run: at least kMinReplays, then more
/// until --seconds have passed. Every metric is a median over replays.
constexpr int kMinReplays = 3;
constexpr int kMaxReplays = 200;
/// Traced run: alternating untraced and traced replays after the search,
/// for the tracing overhead.
constexpr int kTracedPairs = 2;
/// Traced run: each max_accel search probe replays the schedule prefix
/// that lasts --seconds / kProbeSlots of wall time at its factor.
constexpr int kProbeSlots = 5;
constexpr uint32_t kDriverPartitions = 3;

// ---- Set-up -----------------------------------------------------------------

struct SetupTimes {
  double generate_s = 0.0;
  double bulk_load_s = 0.0;
  double build_workload_s = 0.0;

  double total_s() const { return generate_s + bulk_load_s + build_workload_s; }
};

struct Prepared {
  std::unique_ptr<schema::Dictionaries> dictionaries;
  std::unique_ptr<datagen::Dataset> dataset;
  driver::Workload workload;
  SetupTimes times;
};

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

datagen::DatagenConfig DatagenConfigFor(const WorkloadSpec& spec,
                                        uint64_t seed) {
  datagen::DatagenConfig config =
      datagen::DatagenConfig::ForScaleFactor(spec.scale_factor);
  config.seed = seed;
  return config;
}

/// benchmark_run's mix: Table 4 frequencies / 10, scaled by log(persons).
driver::QueryMixConfig MixFor(const WorkloadSpec& spec, uint64_t seed,
                              const datagen::GenerationStats& stats) {
  driver::QueryMixConfig mix;
  for (auto& f : mix.frequencies) f = std::max<uint32_t>(1, f / 10);
  mix.frequency_scale = driver::FrequencyLogScale(stats.num_persons);
  mix.include_updates = spec.include_updates;
  mix.include_complex_reads = spec.include_complex_reads;
  mix.seed = seed;
  return mix;
}

/// Generate + BulkLoad + BuildWorkload, as benchmark_run does them. The
/// bulk-loaded store is destroyed again: every replay loads its own.
Prepared SetUp(const WorkloadSpec& spec, uint64_t seed, SpanLog* log,
               uint32_t parent) {
  ScopedSpan setup_span(log, "setup", parent);
  Prepared p;
  datagen::DatagenConfig config = DatagenConfigFor(spec, seed);
  {
    ScopedSpan span(log, "datagen.Generate", setup_span.id());
    Clock::time_point t = Clock::now();
    p.dataset = std::make_unique<datagen::Dataset>(datagen::Generate(config));
    p.times.generate_s = SecondsSince(t);
  }
  p.dictionaries = std::make_unique<schema::Dictionaries>(config.seed);
  {
    ScopedSpan span(log, "store.BulkLoad", setup_span.id());
    Clock::time_point t = Clock::now();
    store::GraphStore store;
    util::Status status = store.BulkLoad(p.dataset->bulk);
    p.times.bulk_load_s = SecondsSince(t);
    if (!status.ok()) {
      throw std::runtime_error("bulk load failed: " + status.ToString());
    }
  }
  {
    ScopedSpan span(log, "curation.BuildWorkload", setup_span.id());
    Clock::time_point t = Clock::now();
    driver::QueryMixConfig mix = MixFor(spec, seed, p.dataset->stats);
    p.workload = driver::BuildWorkload(*p.dataset, *p.dictionaries, mix);
    p.times.build_workload_s = SecondsSince(t);
  }
  if (p.workload.operations.empty()) {
    throw std::runtime_error("workload has no operations");
  }
  std::fprintf(stderr,
               "  set-up: generate %.3f s, bulk load %.3f s, build workload"
               " %.3f s\n",
               p.times.generate_s, p.times.bulk_load_s,
               p.times.build_workload_s);
  return p;
}

// ---- Replay -----------------------------------------------------------------

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// What the output check compares the read battery against.
struct BatteryReference {
  std::vector<Operation> battery;
  BatteryResults expected;
};

struct ReplayResult {
  size_t ops = 0;
  uint64_t failed = 0;
  driver::DriverReport report;
  obs::MetricsSnapshot metrics;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<uint64_t> complex_ns;
  std::vector<uint64_t> update_ns;
  double execute_s = 0.0;
  /// Sum over lanes of (last Execute end - replay start), and of
  /// (replay end - last Execute end).
  double lane_busy_s = 0.0;
  double lane_tail_idle_s = 0.0;
  uint64_t store_bytes = 0;
  /// Output-check failure; empty when the replay checked out.
  std::string error;

  double throughput() const { return static_cast<double>(ops) / wall_s; }
};

/// Bulk-loads a fresh store, replays `ops` through a TimedConnector over
/// the StoreConnector and runs the output check. The store is destroyed
/// when this returns, so the next replay never sees these updates.
/// `trace_execute` times a span around every Execute; `spans` non-null
/// keeps them, with the RunWorkload span as their parent.
ReplayResult Replay(const Prepared& p, const std::vector<Operation>& ops,
                    double acceleration, SpanLog& clock, SpanLog* spans,
                    uint32_t parent, bool trace_execute,
                    const BatteryReference* battery) {
  ReplayResult r;
  r.ops = ops.size();
  auto store = std::make_unique<store::GraphStore>();
  util::Status status = store->BulkLoad(p.dataset->bulk);
  if (!status.ok()) {
    r.error = "bulk load failed: " + status.ToString();
    return r;
  }
  obs::MetricsRegistry metrics;
  driver::StoreConnector inner(store.get(), &p.dataset->updates,
                               p.dictionaries.get(), &metrics);
  TimedConnector connector(inner, clock, trace_execute);
  driver::DriverConfig config;
  config.num_partitions = kDriverPartitions;
  config.acceleration = acceleration;
  config.metrics = &metrics;

  int64_t start_ns = clock.NowNs();
  double cpu_before = ProcessCpuSeconds();
  uint32_t run_span =
      spans == nullptr ? 0 : spans->Open("driver.RunWorkload", parent);
  r.report = driver::RunWorkload(ops, connector, config);
  if (spans != nullptr) spans->Close(run_span);
  int64_t end_ns = clock.NowNs();
  r.cpu_s = ProcessCpuSeconds() - cpu_before;
  r.wall_s = static_cast<double>(end_ns - start_ns) / 1e9;
  r.metrics = metrics.Snapshot();
  if (trace_execute && spans != nullptr) {
    for (size_t i = 0; i < connector.num_lanes(); ++i) {
      for (Span s : connector.lane(i).spans) {
        s.parent = run_span;
        spans->Add(s);
      }
    }
  }

  uint64_t lane_ops = 0;
  for (size_t i = 0; i < connector.num_lanes(); ++i) {
    const TimedConnector::Lane& lane = connector.lane(i);
    lane_ops += lane.ops;
    r.failed += lane.failed;
    r.execute_s += static_cast<double>(lane.execute_ns) / 1e9;
    r.lane_busy_s += static_cast<double>(lane.last_end_ns - start_ns) / 1e9;
    r.lane_tail_idle_s += static_cast<double>(end_ns - lane.last_end_ns) / 1e9;
    r.complex_ns.insert(r.complex_ns.end(), lane.complex_ns.begin(),
                        lane.complex_ns.end());
    r.update_ns.insert(r.update_ns.end(), lane.update_ns.begin(),
                       lane.update_ns.end());
  }
  r.error = CheckReplay(*p.dataset, ops, r.report, r.metrics, *store);
  if (lane_ops != ops.size()) {
    r.error += (r.error.empty() ? "" : "; ") + std::string("connector saw ") +
               std::to_string(lane_ops) + " ops, attempted " +
               std::to_string(ops.size());
  }
  if (battery != nullptr) {
    std::string diff = CompareBattery(
        battery->battery, battery->expected,
        RunBatteryOnStore(*store, *p.dictionaries, battery->battery));
    if (!diff.empty()) {
      r.error += (r.error.empty() ? "" : "; ") + ("read battery: " + diff);
    }
  }
  r.store_bytes = store->ComputeStorageBreakdown().Total();
  return r;
}

/// The schedule prefix whose due times fall within `span_ms` of the start.
std::vector<Operation> PrefixBySpan(const std::vector<Operation>& ops,
                                    double span_ms) {
  util::TimestampMs base = ops.front().due_time;
  auto end = std::upper_bound(
      ops.begin(), ops.end(), span_ms,
      [base](double limit, const Operation& op) {
        return static_cast<double>(op.due_time - base) > limit;
      });
  return std::vector<Operation>(ops.begin(), end);
}

// ---- Reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string samples;  // What the value was taken over, for the table.
};

void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 uint64_t attempted, uint64_t failed) {
  std::printf("\n%-34s %16s %-9s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6g %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    // A non-finite value already failed the run; keep the line parseable.
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("\n%s\n", json.c_str());
  std::fflush(stdout);
}

std::string Count(uint64_t n, const char* what) {
  return std::to_string(n) + " " + what;
}

double Ms(double ns) { return ns / 1e6; }

// ---- The run ----------------------------------------------------------------

struct Options {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 0x5eed;
  double seconds = 15.0;
  bool trace = false;
  std::string trace_out;
};

/// Output-check and op accounting across every replay of a run.
struct RunAccount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Add(const ReplayResult& r, const char* what) {
    attempted += r.ops;
    failed += std::max<uint64_t>(r.failed, r.report.operations_failed);
    if (!r.error.empty()) errors.push_back(std::string(what) + ": " + r.error);
  }
};

/// Runs the set-ups before the replays (keeping the last) and computes the
/// battery reference between them, so the extra network it needs is never
/// alive next to a retained dataset.
Prepared SetUpAll(const WorkloadSpec& spec, uint64_t seed, SpanLog* spans,
                  uint32_t root, std::vector<SetupTimes>* times,
                  BatteryReference* reference) {
  Prepared p;
  for (int i = 0; i < kSetupsBefore; ++i) {
    p = Prepared();
    p = SetUp(spec, seed, spans, root);
    times->push_back(p.times);
    if (i > 0) continue;
    // The battery takes the first curated binding of each complex query
    // from the read-only mix of this dataset, whatever the workload.
    driver::QueryMixConfig mix = MixFor(spec, seed, p.dataset->stats);
    mix.include_updates = false;
    mix.include_complex_reads = true;
    reference->battery = PickBattery(
        driver::BuildWorkload(*p.dataset, *p.dictionaries, mix).operations);
    if (spec.include_updates) {
      // The store after the whole update stream must answer like the
      // oracle over the unsplit network of the same seed.
      std::unique_ptr<schema::Dictionaries> dict = std::move(p.dictionaries);
      p = Prepared();
      ScopedSpan span(spans, "check.OracleReference", root);
      datagen::DatagenConfig config = DatagenConfigFor(spec, seed);
      config.split_update_stream = false;
      datagen::Dataset unsplit = datagen::Generate(config);
      reference->expected =
          RunBatteryOnOracle(unsplit.bulk, *dict, reference->battery);
    }
  }
  if (!spec.include_updates) {
    // Read-only: the replayed store is the bulk load itself.
    ScopedSpan span(spans, "check.OracleReference", root);
    reference->expected = RunBatteryOnOracle(p.dataset->bulk, *p.dictionaries,
                                             reference->battery);
  }
  return p;
}

/// Median over set-ups of a SetupTimes field or of total_s().
template <typename Field>
double MedianOf(const std::vector<SetupTimes>& times, Field field) {
  std::vector<double> v;
  for (const SetupTimes& t : times) v.push_back(std::invoke(field, t));
  return Median(v);
}

int Run(const Options& opt) {
  const WorkloadSpec& spec = *opt.workload;
  SpanLog log;
  SpanLog* spans = opt.trace ? &log : nullptr;
  uint32_t root = spans == nullptr ? 0 : spans->Open("perfbench", 0);
  RunAccount account;

  std::vector<SetupTimes> setups;
  BatteryReference reference;
  Prepared p = SetUpAll(spec, opt.seed, spans, root, &setups, &reference);
  if (reference.battery.size() != 14) {
    account.errors.push_back("read battery covers " +
                            std::to_string(reference.battery.size()) +
                            " of the 14 complex queries");
  }
  const std::vector<Operation>& schedule = p.workload.operations;
  std::printf("workload %s seed %llu: %zu driver ops (%llu updates, %llu"
              " complex reads), %llu persons\n",
              spec.name, static_cast<unsigned long long>(opt.seed),
              schedule.size(),
              static_cast<unsigned long long>(p.workload.num_updates),
              static_cast<unsigned long long>(p.workload.num_complex_reads),
              static_cast<unsigned long long>(p.dataset->stats.num_persons));

  // Warm-up: the first replay after set-up runs slower (the heap is still
  // growing), so it only feeds the output check's read battery and the
  // search bracket.
  ReplayResult warmup =
      Replay(p, schedule, 0.0, log, spans, root, false, &reference);
  account.Add(warmup, "warm-up replay");

  std::vector<Metric> out;
  if (!opt.trace) {
    // Untraced run: unthrottled replays of the whole schedule for --seconds
    // (at least kMinReplays); throughput, CPU per op and Execute latencies
    // are each the median over replays.
    int replays = 0;
    std::vector<double> throughput, cpu_us_per_op, p95_ms, p99_ms;
    std::vector<double> complex_p99_ms, update_p99_ms;
    uint64_t op_samples = 0, complex_samples = 0, update_samples = 0;
    {
      ScopedSpan phase(spans, "replay.unthrottled", root);
      Clock::time_point start = Clock::now();
      for (int i = 0; i < kMinReplays || (SecondsSince(start) < opt.seconds &&
                                          i < kMaxReplays);
           ++i) {
        ReplayResult r =
            Replay(p, schedule, 0.0, log, spans, phase.id(), false, nullptr);
        account.Add(r, "unthrottled replay");
        throughput.push_back(r.throughput());
        cpu_us_per_op.push_back(r.cpu_s * 1e6 / static_cast<double>(r.ops));
        std::vector<uint64_t> all = r.complex_ns;
        all.insert(all.end(), r.update_ns.begin(), r.update_ns.end());
        Percentile p95 = NearestRank(all, 95);
        Percentile p99 = NearestRank(all, 99);
        p95_ms.push_back(Ms(p95.value));
        p99_ms.push_back(Ms(p99.value));
        op_samples += p95.samples;
        Percentile c = NearestRank(r.complex_ns, 99);
        Percentile u = NearestRank(r.update_ns, 99);
        complex_p99_ms.push_back(Ms(c.value));
        update_p99_ms.push_back(Ms(u.value));
        complex_samples += c.samples;
        update_samples += u.samples;
        replays = i + 1;
      }
    }
    std::string replay_count = Count(replays, "replays");
    auto per_replay = [&](uint64_t samples) {
      return Count(samples, "ops") + " in " + replay_count;
    };

    out = {
        {"throughput_ops_s", Median(throughput), "1/s", replay_count},
        {"cpu_us_per_op", Median(cpu_us_per_op), "us", replay_count},
        {"op_p95_ms", Median(p95_ms), "ms", per_replay(op_samples)},
        {"peak_rss_mb", PeakRssMb(), "MB", "1 process"},
    };
    // For reading only (see README.md): a class that a workload lacks has
    // no value, p99 moves with each seed's curated bindings, and
    // failed_frac is 0 on every run that passes the check.
    std::printf("\n%-34s %16s %-9s %s\n", "also measured (not in JSON)",
                "value", "unit", "samples");
    std::printf("%-34s %16.6g %-9s %s\n", "op_p99_ms", Median(p99_ms), "ms",
                per_replay(op_samples).c_str());
    if (complex_samples > 0) {
      std::printf("%-34s %16.6g %-9s %s\n", "complex_p99_ms",
                  Median(complex_p99_ms), "ms",
                  per_replay(complex_samples).c_str());
    }
    if (update_samples > 0) {
      std::printf("%-34s %16.6g %-9s %s\n", "update_p99_ms",
                  Median(update_p99_ms), "ms",
                  per_replay(update_samples).c_str());
    }
    std::printf("%-34s %16.6g %-9s %llu ops\n", "failed_frac",
                static_cast<double>(account.failed) /
                    static_cast<double>(account.attempted),
                "fraction", static_cast<unsigned long long>(account.attempted));
  } else {
    // max_accel: bracket around the factor at which the schedule's
    // average offered rate equals the measured throughput, then bisect.
    // Each probe replays the schedule prefix that lasts probe_ms at its
    // factor.
    double schedule_span_ms = static_cast<double>(schedule.back().due_time -
                                                  schedule.front().due_time);
    double probe_ms = opt.seconds / kProbeSlots * 1000.0;
    double start = warmup.throughput() * schedule_span_ms /
                   static_cast<double>(schedule.size()) / 1000.0;
    double best_accel = 0.0;
    double best_on_time = 0.0;
    Percentile best_lag;
    SearchResult found;
    {
      ScopedSpan phase(spans, "replay.search", root);
      found = FindMaxAccel(start, [&](double accel) {
        std::vector<Operation> ops = PrefixBySpan(schedule, accel * probe_ms);
        ReplayResult r =
            Replay(p, ops, accel, log, spans, phase.id(), false, nullptr);
        account.Add(r, "throttled replay");
        double on_time = r.report.compliance.on_time_fraction;
        std::fprintf(stderr, "  probe %.6g x: %zu ops, %.3f on time, %.2f s\n",
                     accel, ops.size(), on_time, r.wall_s);
        if (on_time >= kOnTimeThreshold && accel >= best_accel) {
          best_accel = accel;
          best_on_time = on_time;
          const obs::OpSnapshot& lag = r.metrics.Op(obs::OpType::kSchedLag);
          best_lag = {lag.PercentileUs(99) / 1000.0, lag.count};
        }
        return on_time;
      });
    }
    if (found.max_accel <= 0.0) {
      account.errors.push_back(
          "max_accel search found no factor meeting the rule");
    }
    std::string probes = Count(found.probes.size(), "probes");

    // Untraced and traced unthrottled replays, alternating, after the
    // search warmed the process up. Traced ones time a span around every
    // Execute; the layer split comes from the last one (the only one whose
    // spans are kept) and the registry it filled.
    ReplayResult t;
    std::vector<double> untraced_throughput, traced_throughput;
    {
      ScopedSpan phase(spans, "replay.traced", root);
      for (int i = 0; i < kTracedPairs; ++i) {
        ReplayResult u =
            Replay(p, schedule, 0.0, log, nullptr, 0, false, nullptr);
        account.Add(u, "untraced replay");
        untraced_throughput.push_back(u.throughput());
        bool keep = i + 1 == kTracedPairs;
        t = Replay(p, schedule, 0.0, log, keep ? spans : nullptr, phase.id(),
                   true, nullptr);
        account.Add(t, "traced replay");
        traced_throughput.push_back(t.throughput());
      }
    }
    const obs::MetricsSnapshot& m = t.metrics;
    const obs::OpSnapshot& gct = m.Op(obs::OpType::kGctWait);
    double gct_wait_s = static_cast<double>(gct.sum_ns) / 1e9;
    double query_s = m.SumMicros(0, obs::kUpdateBegin + 8) / 1e6;
    double walk_s = m.SumMicros(obs::kShortBegin, obs::kUpdateBegin) / 1e6;
    Percentile complex_p99 = NearestRank(t.complex_ns, 99);
    Percentile update_p99 = NearestRank(t.update_ns, 99);
    std::string traced = Count(t.ops, "ops, traced");
    out = {
        {"store.bytes", static_cast<double>(t.store_bytes), "count",
         "after traced replay"},
        {"driver.max_accel", found.max_accel, "x", probes},
        {"driver.on_time_frac_at_max", best_on_time, "fraction", probes},
        {"driver.sched_lag_p99_ms_at_max", best_lag.value, "ms",
         Count(best_lag.samples, "ops")},
        {"driver.outside_connector_s",
         t.lane_busy_s - t.execute_s - gct_wait_s, "s", traced},
        {"driver.lane_tail_idle_s", t.lane_tail_idle_s, "s", traced},
        {"driver.gct_waits", static_cast<double>(gct.count), "count", traced},
        {"driver.gct_wait_s", gct_wait_s, "s", Count(gct.count, "waits")},
        {"driver.dependencies_tracked",
         static_cast<double>(t.report.dependencies_tracked), "count", traced},
        {"connector.dispatch_s", t.execute_s - query_s, "s", traced},
        {"connector.walk_s", walk_s, "s", traced},
        {"connector.walk_steps",
         static_cast<double>(m.CounterValue(obs::Counter::kShortReadWalkSteps)),
         "count", traced},
        {"connector.complex_p99_ms", Ms(complex_p99.value), "ms",
         Count(complex_p99.samples, "ops")},
        {"connector.update_p99_ms", Ms(update_p99.value), "ms",
         Count(update_p99.samples, "ops")},
    };
    for (int q = 1; q <= 14; ++q) {
      const obs::OpSnapshot& s = m.Op(obs::ComplexOp(q));
      std::string n = "queries.Q" + std::to_string(q);
      std::string c = Count(s.count, "ops");
      out.push_back(
          {n + ".total_s", static_cast<double>(s.sum_ns) / 1e9, "s", c});
      out.push_back({n + ".p50_ms", s.PercentileUs(50) / 1000.0, "ms", c});
      out.push_back({n + ".p99_ms", s.PercentileUs(99) / 1000.0, "ms", c});
    }
    for (int q = 1; q <= 7; ++q) {
      const obs::OpSnapshot& s = m.Op(obs::ShortOp(q));
      out.push_back({"queries.S" + std::to_string(q) + ".total_s",
                     static_cast<double>(s.sum_ns) / 1e9, "s",
                     Count(s.count, "ops")});
    }
    for (int u = 1; u <= 8; ++u) {
      const obs::OpSnapshot& s = m.Op(obs::UpdateOp(u));
      std::string n = "queries.U" + std::to_string(u);
      std::string c = Count(s.count, "ops");
      out.push_back(
          {n + ".total_s", static_cast<double>(s.sum_ns) / 1e9, "s", c});
      out.push_back({n + ".p50_us", s.PercentileUs(50), "us", c});
      out.push_back({n + ".p99_us", s.PercentileUs(99), "us", c});
    }
    out.push_back({"trace.overhead_frac",
                   1.0 - Median(traced_throughput) /
                             Median(untraced_throughput),
                   "fraction", Count(kTracedPairs, "replays each way")});
  }

  // The remaining set-ups, with the retained dataset released.
  p = Prepared();
  for (int i = kSetupsBefore; i < spec.setups; ++i) {
    setups.push_back(SetUp(spec, opt.seed, spans, root).times);
  }
  std::string setup_count = Count(setups.size(), "set-ups");
  if (!opt.trace) {
    out.push_back({"setup_s", MedianOf(setups, &SetupTimes::total_s), "s",
                   setup_count});
  } else {
    out.insert(
        out.begin(),
        {{"datagen.generate_s", MedianOf(setups, &SetupTimes::generate_s), "s",
          setup_count},
         {"store.bulk_load_s", MedianOf(setups, &SetupTimes::bulk_load_s),
          "s", setup_count},
         {"curation.build_workload_s",
          MedianOf(setups, &SetupTimes::build_workload_s), "s",
          setup_count}});
  }

  for (const Metric& m : out) {
    if (!std::isfinite(m.value)) {
      account.errors.push_back(m.name + " is not a finite number");
    }
  }
  bool correct = account.errors.empty();
  for (const std::string& e : account.errors) {
    std::fprintf(stderr, "OUTPUT CHECK FAILED: %s\n", e.c_str());
  }
  if (correct) std::printf("output check: passed\n");
  if (spans != nullptr) spans->Close(root);
  if (opt.trace && !opt.trace_out.empty()) {
    std::ofstream f(opt.trace_out, std::ios::binary | std::ios::trunc);
    f << log.ToChromeTraceJson();
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
      return 1;
    }
    std::printf("wrote %zu spans to %s\n", log.spans().size(),
                opt.trace_out.c_str());
  }
  PrintResult(out, correct, account.attempted, account.failed);
  return correct ? 0 : 1;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n"
               "workloads:",
               msg);
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (value == w.name) opt.workload = &w;
      }
      if (opt.workload == nullptr) {
        return Usage(("unknown workload " + value).c_str());
      }
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload == nullptr) return Usage("--workload is required");
  if (opt.seconds <= 0.0) return Usage("--seconds must be positive");
  try {
    return Run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
