// The SNB-Interactive workload driver (paper section 4.2).
//
// Executes a due-time-ordered operation stream against a Connector using one
// of three execution modes:
//
//  * kSequentialForum (the SNB default): forum-tree operations (forum,
//    membership, post, comment, like) are partitioned by forum into streams
//    executed sequentially — intra-forum dependencies need no tracking at
//    all. Person-graph operations (add person, add friendship) are the
//    Dependencies set, tracked via the Global Dependency Service; dependent
//    operations wait until T_GC passes their person-graph dependency time.
//
//  * kParallelGct: no forum partitioning shortcut — every update is both a
//    Dependency and a Dependent and all cross-operation ordering goes
//    through T_GC. This is the "excessive synchronization" strawman the
//    paper argues against; the mode exists for the ablation bench.
//
//  * kWindowed: operations are grouped into windows of T_SAFE simulation
//    time and executed window-by-window with a barrier. DATAGEN guarantees
//    every cross-stream dependency spans at least T_SAFE, so anything a
//    window depends on completed before the window started; within a window
//    forum groups run sequentially and everything else runs freely
//    parallel. T_GC needs no fine-grained synchronization at all.
//
// The driver can replay the stream as fast as possible (acceleration == 0)
// or throttle it to a fixed acceleration factor (simulation time / real
// time), auditing schedule compliance — the benchmark's metric.
#ifndef SNB_DRIVER_DRIVER_H_
#define SNB_DRIVER_DRIVER_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "driver/connectors.h"
#include "driver/operation.h"
#include "obs/report.h"
#include "obs/trace_buffer.h"
#include "util/histogram.h"

namespace snb::driver {

/// How the driver schedules dependent operations.
enum class ExecutionMode {
  kSequentialForum,
  kParallelGct,
  kWindowed,
};

const char* ExecutionModeName(ExecutionMode mode);

/// Driver knobs.
struct DriverConfig {
  /// Number of parallel streams (worker threads).
  uint32_t num_partitions = 4;
  ExecutionMode mode = ExecutionMode::kSequentialForum;
  /// Simulation-time / real-time ratio. 0 disables throttling (max
  /// throughput). 1.0 replays in real time; 2.0 twice as fast as the
  /// simulation timeline.
  double acceleration = 0.0;
  /// Optional metrics sink. When set, the driver records per-operation
  /// scheduling lag (driver.sched_lag) and T_GC dependent-wait time
  /// (driver.gct_wait) as latency series, and accumulates the run's
  /// executed/failed/dependency counters at the end of the run.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional full-run trace sink. When set, every driver-scheduled
  /// operation is recorded as a span (with its schedule and T_GC wait);
  /// pass the same buffer to the connector to also capture walk-spawned
  /// short reads.
  obs::TraceBuffer* trace = nullptr;
  /// Schedule-compliance audit (throttled runs only): an operation is
  /// on time when it starts within this many real ms of its schedule.
  double compliance_window_ms = 100.0;
  /// Fraction of scheduled operations that must be on time for the run
  /// to pass the compliance audit (the LDBC bar is 0.95).
  double compliance_threshold = 0.95;
  /// When non-zero, forum partitioning keys on the store's shard of the
  /// forum (store/shard_router.h) instead of a generic hash: every forum
  /// living on one shard executes on one stream (kSequentialForum) or in
  /// one window group (kWindowed), so the updates touching a shard funnel
  /// through one thread and the shard's writer mutex stays uncontended.
  /// Zero keeps the shard-oblivious legacy partitioning.
  uint32_t store_shards = 0;
};

/// Outcome of a driver run.
struct DriverReport {
  uint64_t operations_executed = 0;
  uint64_t operations_failed = 0;
  std::string first_error;
  double elapsed_seconds = 0.0;
  double ops_per_second = 0.0;
  /// Largest observed lateness behind the throttled schedule (real ms).
  double max_schedule_lag_ms = 0.0;
  /// Operations registered with the dependency services (IT/CT traffic).
  uint64_t dependencies_tracked = 0;
  /// Operations that had to consult T_GC before executing.
  uint64_t dependent_waits = 0;
  /// Scheduling-lag time series for throttled runs: (scheduled second of
  /// the run, max lag ms among operations due within that second). Empty
  /// when unthrottled; bounded — long runs are downsampled to a fixed
  /// number of slots (see LagTimeline), so the resolution coarsens but
  /// memory does not grow with run length.
  std::vector<std::pair<double, double>> lag_timeline_ms;
  /// Schedule-compliance audit; populated only for throttled runs. Its
  /// `passed` flag is the run's one pace verdict.
  bool has_compliance = false;
  obs::ComplianceSection compliance;
};

/// Packages a report as the report.json "driver" section.
obs::DriverSection MakeDriverSection(const DriverReport& report);

/// Runs `operations` (must be sorted by due_time ascending) through
/// `connector` with the configured mode and parallelism. Blocks until every
/// operation completed.
DriverReport RunWorkload(const std::vector<Operation>& operations,
                         Connector& connector, const DriverConfig& config);

}  // namespace snb::driver

#endif  // SNB_DRIVER_DRIVER_H_
