#include "driver/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <unordered_map>

#include "datagen/config.h"
#include "driver/dependency_services.h"
#include "driver/run_audit.h"
#include "obs/perf_counters.h"
#include "obs/prof.h"
#include "store/shard_router.h"
#include "util/mutex.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace snb::driver {
namespace {

using Clock = std::chrono::steady_clock;

/// The obs series an operation's execution is attributed to (also the
/// trace span name and the compliance audit row).
obs::OpType TraceOpType(const Operation& op) {
  switch (op.type) {
    case OperationType::kComplexRead:
      return obs::ComplexOp(op.query_id);
    case OperationType::kShortRead:
      return obs::ShortOp(op.query_id);
    case OperationType::kUpdate:
      return obs::UpdateOp(op.update_kind == 0 ? 1 : op.update_kind);
  }
  return obs::OpType::kPointRead;
}

/// Shared run accounting across worker threads.
struct RunState {
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> failed{0};
  util::Mutex error_mu;
  std::string first_error SNB_GUARDED_BY(error_mu);
  std::atomic<int64_t> max_lag_us{0};
  std::atomic<uint64_t> dependencies_tracked{0};
  std::atomic<uint64_t> dependent_waits{0};
  /// Bounded per-second max-lag series (downsamples past 1024 seconds).
  LagTimeline lag_timeline;
  /// Schedule-compliance audit; only fed on throttled runs.
  ComplianceTracker compliance;

  explicit RunState(double compliance_window_ms)
      : compliance(compliance_window_ms) {}

  void RecordResult(const util::Status& status) {
    executed.fetch_add(1, std::memory_order_relaxed);
    if (!status.ok()) {
      failed.fetch_add(1, std::memory_order_relaxed);
      util::MutexLock lock(&error_mu);
      if (first_error.empty()) first_error = status.ToString();
    }
  }

  /// `second` is the operation's scheduled second of the run (-1 when
  /// unthrottled — no timeline then).
  void RecordLag(int64_t lag_us, int64_t second) {
    FoldMax(max_lag_us, lag_us);
    lag_timeline.Record(second, lag_us);
  }
};

/// Maps simulation due times to wall-clock deadlines under an acceleration
/// factor and blocks until an operation's start time.
class Throttle {
 public:
  Throttle(double acceleration, util::TimestampMs base_due)
      : acceleration_(acceleration),
        base_due_(base_due),
        start_(Clock::now()) {}

  /// Wall-clock deadline `due` maps to. Only meaningful when throttled.
  Clock::time_point DeadlineFor(util::TimestampMs due) const {
    double real_ms = static_cast<double>(due - base_due_) / acceleration_;
    return start_ + std::chrono::microseconds(
                        static_cast<int64_t>(real_ms * 1000.0));
  }

  /// Waits until `due` is scheduled; returns lateness in microseconds
  /// (0 when unthrottled).
  int64_t WaitUntilDue(util::TimestampMs due) const {
    if (acceleration_ <= 0.0) return 0;
    Clock::time_point deadline = DeadlineFor(due);
    Clock::time_point now = Clock::now();
    if (now < deadline) {
      std::this_thread::sleep_until(deadline);
      return 0;
    }
    return std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                                 deadline)
        .count();
  }

  /// How many microseconds past `due`'s deadline the clock already is
  /// (0 when unthrottled or still ahead of schedule). No sleeping — the
  /// windowed mode paces at window granularity but audits per operation.
  int64_t LatenessMicros(util::TimestampMs due) const {
    if (acceleration_ <= 0.0) return 0;
    Clock::time_point deadline = DeadlineFor(due);
    Clock::time_point now = Clock::now();
    if (now <= deadline) return 0;
    return std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                                 deadline)
        .count();
  }

  /// The run-relative second `due` is scheduled into (-1 when
  /// unthrottled). Pure due-time arithmetic — no clock read — so the
  /// timeline costs nothing beyond the CAS-max in RecordLag.
  int64_t ScheduledSecond(util::TimestampMs due) const {
    if (acceleration_ <= 0.0) return -1;
    double real_ms = static_cast<double>(due - base_due_) / acceleration_;
    return real_ms < 0.0 ? 0 : static_cast<int64_t>(real_ms / 1000.0);
  }

  bool throttled() const { return acceleration_ > 0.0; }

 private:
  double acceleration_;
  util::TimestampMs base_due_;
  Clock::time_point start_;
};

uint32_t PartitionOf(const Operation& op, uint32_t num_partitions,
                     ExecutionMode mode, uint64_t index,
                     uint32_t store_shards) {
  if (mode == ExecutionMode::kSequentialForum &&
      op.forum_partition != schema::kInvalidId) {
    // Shard-affine routing: forums on one store shard share a stream, so
    // a sharded store sees each shard's forum-tree updates from a single
    // thread. Same-forum ops still share a stream either way.
    if (store_shards > 0) {
      return store::ShardOfForum(op.forum_partition, store_shards) %
             num_partitions;
    }
    return static_cast<uint32_t>(util::Mix64(op.forum_partition) %
                                 num_partitions);
  }
  return static_cast<uint32_t>(index % num_partitions);
}

/// Stream loop shared by the sequential-forum and parallel-GCT modes
/// (Figure 8 of the paper).
void RunStream(const std::vector<const Operation*>& ops,
               Connector& connector, ExecutionMode mode,
               LocalDependencyService* lds, GlobalDependencyService* gds,
               const Throttle& throttle, RunState* state,
               obs::MetricsRegistry* metrics, obs::TraceBuffer* trace) {
  for (const Operation* op : ops) {
    // CPU burned anywhere in this iteration — dependency wait, throttle
    // spin, execution — is on behalf of this op; attribute all of it.
    obs::prof::ScopedOpContext prof_op(
        static_cast<uint16_t>(TraceOpType(*op)));
    bool is_dependency =
        op->is_dependency ||
        (mode == ExecutionMode::kParallelGct &&
         op->type == OperationType::kUpdate);
    util::TimestampMs wait_for = mode == ExecutionMode::kParallelGct
                                     ? op->dependency_time
                                     : op->person_dependency_time;
    if (is_dependency) {
      lds->Initiate(op->due_time);
      state->dependencies_tracked.fetch_add(1, std::memory_order_relaxed);
    } else {
      lds->MarkTime(op->due_time);
    }
    obs::TraceEvent event;
    if (wait_for > 0) {
      state->dependent_waits.fetch_add(1, std::memory_order_relaxed);
      // Most dependencies are already satisfied by the time their dependent
      // op is due; the lock-free probe keeps those off the waiter mutex and
      // keeps the clock out of the no-wait path entirely (kGctWait records
      // only waits that actually blocked).
      if (!gds->CompletedThrough(wait_for)) {
        if (metrics != nullptr || trace != nullptr) {
          if (trace != nullptr) event.gct_begin_ns = trace->NowNs();
          util::Stopwatch wait_watch;
          gds->WaitUntilCompleted(wait_for);
          uint64_t waited_ns = wait_watch.ElapsedNanos();
          if (metrics != nullptr) {
            metrics->RecordLatencyNs(obs::OpType::kGctWait, waited_ns);
          }
          if (trace != nullptr) event.gct_wait_ns = waited_ns;
        } else {
          gds->WaitUntilCompleted(wait_for);
        }
      }
    }
    int64_t lag_us = throttle.WaitUntilDue(op->due_time);
    state->RecordLag(lag_us, throttle.ScheduledSecond(op->due_time));
    if (throttle.throttled()) {
      state->compliance.Record(TraceOpType(*op), lag_us);
      if (metrics != nullptr) {
        metrics->RecordLatencyNs(obs::OpType::kSchedLag,
                                 static_cast<uint64_t>(lag_us) * 1000);
      }
    }
    if (trace != nullptr) {
      event.op = TraceOpType(*op);
      if (throttle.throttled()) {
        event.sched_ns = trace->ToBufferNs(throttle.DeadlineFor(op->due_time));
      }
      event.exec_begin_ns = trace->NowNs();
      obs::perf::ScopedHwCounts hw_scope;
      state->RecordResult(connector.Execute(*op));
      event.hw = hw_scope.Delta();
      event.end_ns = trace->NowNs();
      trace->Record(event);
    } else {
      state->RecordResult(connector.Execute(*op));
    }
    if (is_dependency) lds->Complete(op->due_time);
  }
  lds->MarkTime(kTimeMax);
}

DriverReport FinishReport(const RunState& state, double elapsed_seconds,
                          const DriverConfig& config) {
  DriverReport report;
  report.operations_executed = state.executed.load();
  report.operations_failed = state.failed.load();
  report.first_error = state.first_error;
  report.elapsed_seconds = elapsed_seconds;
  report.ops_per_second =
      elapsed_seconds > 0.0
          ? static_cast<double>(report.operations_executed) / elapsed_seconds
          : 0.0;
  report.max_schedule_lag_ms =
      static_cast<double>(state.max_lag_us.load()) / 1000.0;
  report.dependencies_tracked = state.dependencies_tracked.load();
  report.dependent_waits = state.dependent_waits.load();
  report.lag_timeline_ms = state.lag_timeline.Snapshot();
  if (config.acceleration > 0.0) {
    report.has_compliance = true;
    report.compliance = state.compliance.Finish(config.compliance_threshold);
  }
  if (config.metrics != nullptr) {
    config.metrics->AddCounter(obs::Counter::kOperationsExecuted,
                               report.operations_executed);
    config.metrics->AddCounter(obs::Counter::kOperationsFailed,
                               report.operations_failed);
    config.metrics->AddCounter(obs::Counter::kDependenciesTracked,
                               report.dependencies_tracked);
    config.metrics->AddCounter(obs::Counter::kGctDependentWaits,
                               report.dependent_waits);
  }
  return report;
}

DriverReport RunStreamed(const std::vector<Operation>& operations,
                         Connector& connector, const DriverConfig& config) {
  uint32_t partitions = std::max<uint32_t>(config.num_partitions, 1);
  std::vector<std::vector<const Operation*>> streams(partitions);
  for (size_t i = 0; i < operations.size(); ++i) {
    streams[PartitionOf(operations[i], partitions, config.mode, i,
                        config.store_shards)]
        .push_back(&operations[i]);
  }

  GlobalDependencyService gds;
  std::vector<LocalDependencyService*> lds;
  lds.reserve(partitions);
  for (uint32_t p = 0; p < partitions; ++p) {
    lds.push_back(gds.AddStream());
    // Seed every stream with the workload start: dependencies older than the
    // first operation live in the bulk load and are complete by definition.
    lds.back()->MarkTime(operations.front().due_time);
  }

  RunState state(config.compliance_window_ms);
  Throttle throttle(config.acceleration, operations.front().due_time);
  Clock::time_point start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(partitions);
  for (uint32_t p = 0; p < partitions; ++p) {
    workers.emplace_back([&, p] {
      std::string lane = "driver." + std::to_string(p);
      obs::prof::ScopedThreadRegistration prof_thread(lane.c_str());
      RunStream(streams[p], connector, config.mode, lds[p], &gds, throttle,
                &state, config.metrics, config.trace);
    });
  }
  for (std::thread& t : workers) t.join();
  double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  return FinishReport(state, elapsed, config);
}

/// One operation of a window: audits its lateness against its own due
/// time (the pool may start it well after the window barrier released)
/// and records its trace span.
void ExecuteWindowedOp(const Operation& op, Connector& connector,
                       const Throttle& throttle, RunState* state,
                       obs::MetricsRegistry* metrics,
                       obs::TraceBuffer* trace) {
  // Pool workers register lazily under a shared lane (idempotent after
  // the first window) and unregister at thread exit.
  obs::prof::RegisterCurrentThread("driver.pool");
  obs::prof::ScopedOpContext prof_op(static_cast<uint16_t>(TraceOpType(op)));
  if (throttle.throttled()) {
    int64_t lag_us = throttle.LatenessMicros(op.due_time);
    state->RecordLag(lag_us, throttle.ScheduledSecond(op.due_time));
    state->compliance.Record(TraceOpType(op), lag_us);
    if (metrics != nullptr) {
      metrics->RecordLatencyNs(obs::OpType::kSchedLag,
                               static_cast<uint64_t>(lag_us) * 1000);
    }
  }
  if (trace == nullptr) {
    state->RecordResult(connector.Execute(op));
    return;
  }
  obs::TraceEvent event;
  event.op = TraceOpType(op);
  if (throttle.throttled()) {
    event.sched_ns = trace->ToBufferNs(throttle.DeadlineFor(op.due_time));
  }
  event.exec_begin_ns = trace->NowNs();
  obs::perf::ScopedHwCounts hw_scope;
  state->RecordResult(connector.Execute(op));
  event.hw = hw_scope.Delta();
  event.end_ns = trace->NowNs();
  trace->Record(event);
}

DriverReport RunWindowed(const std::vector<Operation>& operations,
                         Connector& connector, const DriverConfig& config) {
  uint32_t partitions = std::max<uint32_t>(config.num_partitions, 1);
  util::ThreadPool pool(partitions);
  RunState state(config.compliance_window_ms);
  util::TimestampMs base = operations.front().due_time;
  Throttle throttle(config.acceleration, base);
  Clock::time_point start = Clock::now();

  // Window width must not exceed T_SAFE for cross-window dependency safety.
  const util::TimestampMs window_ms = datagen::kTSafeMs;
  size_t next = 0;
  while (next < operations.size()) {
    util::TimestampMs window_start =
        base + (operations[next].due_time - base) / window_ms * window_ms;
    util::TimestampMs window_end = window_start + window_ms;
    size_t end = next;
    while (end < operations.size() &&
           operations[end].due_time < window_end) {
      ++end;
    }

    // Throttled runs start a window no earlier than its scheduled time.
    // Lag is audited per operation below (ExecuteWindowedOp), so the wait
    // itself needs no recording.
    throttle.WaitUntilDue(window_start);

    // Group the window: forum-tree ops run sequentially per forum; all
    // remaining ops have >= T_SAFE-old dependencies and run freely.
    std::unordered_map<uint64_t, std::vector<const Operation*>> forum_groups;
    std::vector<std::vector<const Operation*>> free_batches(partitions);
    size_t free_index = 0;
    for (size_t i = next; i < end; ++i) {
      const Operation& op = operations[i];
      if (op.forum_partition != schema::kInvalidId) {
        // With shard affinity, group by the forum's store shard: grouping
        // by shard coarsens grouping by forum (same forum, same shard),
        // so intra-forum sequencing survives and each shard's forum-tree
        // updates run on one worker.
        uint64_t group_key =
            config.store_shards > 0
                ? store::ShardOfForum(op.forum_partition, config.store_shards)
                : op.forum_partition;
        forum_groups[group_key].push_back(&op);
      } else {
        free_batches[free_index++ % partitions].push_back(&op);
      }
    }
    for (auto& [_, group] : forum_groups) {
      pool.Submit([&connector, &state, &throttle, &config, group = &group] {
        for (const Operation* op : *group) {
          ExecuteWindowedOp(*op, connector, throttle, &state, config.metrics,
                            config.trace);
        }
      });
    }
    for (std::vector<const Operation*>& batch : free_batches) {
      if (batch.empty()) continue;
      pool.Submit([&connector, &state, &throttle, &config, batch = &batch] {
        for (const Operation* op : *batch) {
          ExecuteWindowedOp(*op, connector, throttle, &state, config.metrics,
                            config.trace);
        }
      });
    }
    pool.Wait();  // Window barrier.
    next = end;
  }
  double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  return FinishReport(state, elapsed, config);
}

}  // namespace

obs::DriverSection MakeDriverSection(const DriverReport& report) {
  obs::DriverSection section;
  section.operations_executed = report.operations_executed;
  section.operations_failed = report.operations_failed;
  section.elapsed_seconds = report.elapsed_seconds;
  section.ops_per_second = report.ops_per_second;
  section.max_schedule_lag_ms = report.max_schedule_lag_ms;
  section.dependencies_tracked = report.dependencies_tracked;
  section.dependent_waits = report.dependent_waits;
  section.lag_timeline_ms = report.lag_timeline_ms;
  return section;
}

const char* ExecutionModeName(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kSequentialForum:
      return "sequential-forum";
    case ExecutionMode::kParallelGct:
      return "parallel-gct";
    case ExecutionMode::kWindowed:
      return "windowed";
  }
  return "unknown";
}

DriverReport RunWorkload(const std::vector<Operation>& operations,
                         Connector& connector, const DriverConfig& config) {
  if (operations.empty()) return DriverReport{};
  if (config.mode == ExecutionMode::kWindowed) {
    return RunWindowed(operations, connector, config);
  }
  return RunStreamed(operations, connector, config);
}

}  // namespace snb::driver
