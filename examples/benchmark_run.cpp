// A complete SNB-Interactive benchmark run, following the paper's
// protocol (section 4, "Rules and Metrics"):
//
//   1. generate the dataset; bulk-load the first 32 simulated months;
//   2. build the query mix: the pre-generated update stream interleaved
//      with complex reads at the Table 4 frequencies, short reads spawned
//      by the random walk;
//   3. pick an acceleration factor (simulation time / real time) and replay
//      the workload at that pace;
//   4. the run is successful if the schedule-compliance audit passed
//      (>= 95% of operations started within the lateness window) — the
//      one verdict; report the acceleration factor and per-query
//      latencies (p50/p95/p99), and write the machine-readable artifacts:
//      report.json (schema snb-report-v5, incl. the compliance audit, a
//      Q9 per-operator profile, build provenance and the CPU-profile
//      section) and report.prom (Prometheus text exposition).
//
//   ./examples/benchmark_run [scale_factor] [acceleration] [report_path]
//                            [--listen <port>] [--trace-out <path>]
//                            [--perf-counters] [--cpu-profile=<path>]
//
//   --listen <port>    serve GET /metrics (Prometheus text),
//                      GET /report.json (live snapshot), GET /healthz and
//                      GET /profile?seconds=N (on-demand folded-stack
//                      capture; 503 while the profiler backend is no-op)
//                      while the run executes (0 picks an ephemeral port).
//   --trace-out <path> record every executed operation into a bounded
//                      ring and flush a Chrome-trace/Perfetto JSON
//                      (one lane per driver thread, T_GC-wait sub-spans,
//                      hw-counter tracks when counters are live).
//   --perf-counters    attach per-thread perf_event counter groups
//                      (cycles/instructions/LLC/branch misses) so every
//                      op row carries IPC and miss rates, and collect
//                      slow-query dossiers for the tail of every op type.
//                      Falls back to a no-op backend (run still valid,
//                      counters marked unavailable) where perf_event_open
//                      is denied — containers, CI.
//   --cpu-profile <path>  additionally write the sampling CPU profile as
//                      collapsed stacks ("folded" text, one line per
//                      unique stack) to <path>; scripts/profile_view.py
//                      turns it into a flamegraph SVG or speedscope JSON.
//                      The profiler itself is always on (it degrades to a
//                      no-op backend under seccomp/sanitizers or with
//                      SNB_PROF_FORCE_NOOP=1); the flag only adds the
//                      artifact.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/datagen.h"
#include "driver/driver.h"
#include "driver/query_mix.h"
#include "obs/dossier.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/prof.h"
#include "obs/report.h"
#include "obs/trace_buffer.h"
#include "queries/query9_plans.h"
#include "store/graph_store.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  using namespace snb;

  double scale_factor = 0.1;
  double acceleration = 0.0;
  std::string report_path = "report.json";
  int listen_port = -1;
  std::string trace_path;
  std::string cpu_profile_path;
  bool perf_counters = false;

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      listen_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--perf-counters") == 0) {
      perf_counters = true;
    } else if (std::strncmp(argv[i], "--cpu-profile=", 14) == 0) {
      cpu_profile_path = argv[i] + 14;
    } else if (std::strcmp(argv[i], "--cpu-profile") == 0 && i + 1 < argc) {
      cpu_profile_path = argv[++i];
    } else if (argv[i][0] == '-' && argv[i][1] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    } else {
      switch (positional++) {
        case 0: scale_factor = std::atof(argv[i]); break;
        case 1: acceleration = std::atof(argv[i]); break;
        case 2: report_path = argv[i]; break;
        default:
          std::fprintf(stderr, "too many positional arguments\n");
          return 1;
      }
    }
  }

  std::printf("=== SNB-Interactive benchmark run (mini SF %.2f) ===\n\n",
              scale_factor);
  datagen::DatagenConfig config =
      datagen::DatagenConfig::ForScaleFactor(scale_factor);
  datagen::Dataset dataset = datagen::Generate(config);
  schema::Dictionaries dictionaries(config.seed);
  std::printf("dataset: %llu persons, %llu knows, %llu messages"
              " (%.4f CSV-GB)\n",
              (unsigned long long)dataset.stats.num_persons,
              (unsigned long long)dataset.stats.num_knows,
              (unsigned long long)dataset.stats.NumMessages(),
              dataset.stats.csv_bytes / 1e9);

  store::GraphStore store;
  util::Status status = store.BulkLoad(dataset.bulk);
  if (!status.ok()) {
    std::fprintf(stderr, "bulk load failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("bulk-loaded first %d simulated months (%zu update ops to"
              " stream)\n\n", util::kBulkLoadMonths, dataset.updates.size());

  driver::QueryMixConfig mix;
  // Compress Table 4 frequencies so the mini stream exercises all queries,
  // then apply the paper's log scaling rule for this dataset size.
  for (auto& f : mix.frequencies) f = std::max<uint32_t>(1, f / 10);
  mix.frequency_scale =
      driver::FrequencyLogScale(dataset.stats.num_persons);
  driver::Workload workload =
      driver::BuildWorkload(dataset, dictionaries, mix);
  std::printf("workload: %llu updates + %llu complex reads (+ random-walk"
              " short reads)\n",
              (unsigned long long)workload.num_updates,
              (unsigned long long)workload.num_complex_reads);

  if (acceleration <= 0.0) {
    // Auto-pick: replay the simulated span in ~5 s.
    util::TimestampMs span = workload.operations.back().due_time -
                             workload.operations.front().due_time;
    acceleration = static_cast<double>(span) / 5000.0;
  }
  std::printf("acceleration factor: %.0fx (simulation/real time)\n\n",
              acceleration);

  obs::MetricsRegistry metrics;
  std::unique_ptr<obs::TraceBuffer> trace;
  if (!trace_path.empty()) trace = std::make_unique<obs::TraceBuffer>();

  // Hardware counters + tail attribution. Enable() probes perf_event_open
  // and degrades to the no-op backend where the syscall is denied; dossier
  // collection is latency-triggered, so it produces tail attributions
  // (without counter columns) even on the no-op backend.
  std::unique_ptr<obs::DossierCollector> dossiers;
  if (perf_counters) {
    obs::perf::Backend backend = obs::perf::Enable();
    std::printf("perf counters: backend=%s (%s)\n\n",
                obs::perf::BackendName(backend),
                obs::perf::BackendMessage().c_str());
    dossiers = std::make_unique<obs::DossierCollector>(/*keep_per_op=*/3);
  }

  // Always-on sampling CPU profiler. Enabled after datagen + bulk load so
  // the samples cover the replay itself; degrades to a no-op backend when
  // per-thread timers are unavailable (seccomp, sanitizers,
  // SNB_PROF_FORCE_NOOP) without invalidating the run.
  obs::prof::Backend prof_backend = obs::prof::Enable();
  std::printf("cpu profiler: backend=%s (%s)\n\n",
              obs::prof::BackendName(prof_backend),
              obs::prof::BackendMessage().c_str());

  // Live observer: /metrics and /report.json rebuild from the registry at
  // most every 250 ms, so curl/Prometheus can watch the run as it executes.
  obs::HttpExporter exporter;
  if (listen_port >= 0) {
    exporter.Handle("/metrics", "text/plain; version=0.0.4", [&metrics] {
      return obs::ToPrometheusText(metrics.Snapshot());
    });
    std::string title =
        "snb-interactive benchmark_run SF " + std::to_string(scale_factor);
    exporter.Handle("/report.json", "application/json", [&metrics, title] {
      obs::RunReport live;
      live.title = title + " (live)";
      live.metrics = metrics.Snapshot();
      return obs::ToJson(live);
    });
    // On-demand capture window: two Collect() snapshots N seconds apart,
    // served as collapsed stacks. 503 + JSON error while the profiler
    // backend is no-op, matching the /healthz convention of never lying.
    // Runs on the exporter's dynamic worker thread (never the accept
    // loop), so /healthz and /metrics answer throughout the window.
    exporter.HandleDynamic("/profile", [&exporter](const std::string& query) {
      obs::HttpExporter::HttpResponse resp;
      if (!obs::prof::SamplingLive()) {
        resp.status = 503;
        resp.content_type = "application/json";
        resp.body = std::string("{\"error\":\"profiler unavailable\","
                                "\"backend\":\"") +
                    obs::prof::BackendName(obs::prof::ActiveBackend()) +
                    "\"}\n";
        return resp;
      }
      int seconds = 1;
      size_t pos = query.find("seconds=");
      if (pos != std::string::npos) {
        seconds = std::atoi(query.c_str() + pos + 8);
      }
      if (seconds < 1) seconds = 1;
      if (seconds > 30) seconds = 30;
      obs::prof::FoldedProfile before = obs::prof::Collect();
      // Sliced wait: Stop() retires the listener before joining this
      // worker, so a capture in flight ends early at shutdown (serving
      // whatever the window gathered) instead of holding the join for
      // up to the full 30 s.
      for (int waited_ms = 0; waited_ms < seconds * 1000 && exporter.running();
           waited_ms += 100) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      obs::prof::FoldedProfile after = obs::prof::Collect();
      resp.content_type = "text/plain; version=folded";
      resp.body = obs::prof::ToFoldedText(obs::prof::DeltaSince(before, after));
      return resp;
    });
    status = exporter.Start(static_cast<uint16_t>(listen_port));
    if (!status.ok()) {
      std::fprintf(stderr, "--listen failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("serving http://localhost:%u/metrics, /report.json and"
                " /profile\n\n",
                exporter.port());
  }

  driver::StoreConnector connector(&store, &dataset.updates, &dictionaries,
                                   &metrics, driver::ShortReadWalkConfig(),
                                   /*dispatch_overhead_us=*/0, trace.get(),
                                   dossiers.get());
  driver::DriverConfig driver_config;
  driver_config.num_partitions = 4;
  driver_config.acceleration = acceleration;
  driver_config.metrics = &metrics;
  driver_config.trace = trace.get();
  driver::DriverReport report =
      driver::RunWorkload(workload.operations, connector, driver_config);
  driver::PublishStoreMetrics(store, &metrics);

  std::printf("=== results ===\n");
  std::printf("executed %llu driver ops in %.2f s (%.0f ops/s), %llu failed\n",
              (unsigned long long)report.operations_executed,
              report.elapsed_seconds, report.ops_per_second,
              (unsigned long long)report.operations_failed);
  std::printf("max schedule lag: %.1f ms at acceleration %.0fx\n",
              report.max_schedule_lag_ms, acceleration);
  if (report.has_compliance) {
    const obs::ComplianceSection& c = report.compliance;
    std::printf("schedule compliance: %llu/%llu on time (%.2f%%, window"
                " %.0f ms) -> %s\n",
                (unsigned long long)c.on_time_ops,
                (unsigned long long)c.scheduled_ops,
                c.on_time_fraction * 100.0, c.window_ms,
                c.passed ? "PASSED" : "FAILED");
    for (size_t i = 0; i < c.per_op.size() && i < 3; ++i) {
      std::printf("  worst offender: %-14s %6llu late of %8llu, max"
                  " %.1f ms\n",
                  c.per_op[i].op.c_str(),
                  (unsigned long long)c.per_op[i].late,
                  (unsigned long long)c.per_op[i].scheduled,
                  c.per_op[i].max_late_ms);
    }
  }
  std::printf("\n");

  obs::MetricsSnapshot snap = metrics.Snapshot();
  bool hw_live = obs::perf::CountersLive();
  std::printf("%-18s %8s %10s %10s %10s %10s%s\n", "operation", "count",
              "p50 ms", "p95 ms", "p99 ms", "max ms",
              hw_live ? "      ipc   llc/kinst" : "");
  for (size_t i = 0; i < obs::kNumOpTypes; ++i) {
    const obs::OpSnapshot& op = snap.ops[i];
    if (op.count == 0) continue;
    std::printf("%-18s %8llu %10.3f %10.3f %10.3f %10.3f",
                obs::OpTypeName(static_cast<obs::OpType>(i)),
                (unsigned long long)op.count, op.PercentileUs(50) / 1000.0,
                op.PercentileUs(95) / 1000.0, op.PercentileUs(99) / 1000.0,
                op.MaxUs() / 1000.0);
    if (hw_live && op.hw.valid()) {
      std::printf(" %8.2f %11.3f", op.hw.Ipc(),
                  op.hw.LlcMissesPerKiloInstr());
    }
    std::printf("\n");
  }

  // Profile the serving Q9 plan on a handful of real parameters so the
  // report carries a per-operator section.
  queries::Q9OperatorProfile q9_profile;
  {
    // The main thread joins the profiled population only for this block,
    // attributed to complex.Q9 — its report-assembly work stays unsampled.
    obs::prof::ScopedThreadRegistration prof_main("main");
    obs::prof::ScopedOpContext prof_q9(
        static_cast<uint16_t>(obs::ComplexOp(9)));
    std::vector<schema::PersonId> persons;
    {
      auto pin = store.ReadLock();
      persons = store.PersonIds(pin);
    }
    // At least 5 executions for the operator rows; keep going (bounded)
    // until the block has burned ~60 ms of CPU so the sampling profiler
    // collects a meaningful number of operator-labelled samples even at
    // kernel-tick sampling granularity (per-thread CPU timers fire at
    // multi-ms resolution on HZ=250 kernels regardless of the requested
    // interval).
    util::Stopwatch block_watch;
    int runs = 0;
    for (size_t i = 0; runs < 150; i += 17, ++runs) {
      if (i >= persons.size()) {
        if (persons.empty()) break;
        i %= persons.size();
      }
      if (runs >= 5 && block_watch.ElapsedNanos() > 60'000'000) break;
      queries::Query9(store, persons[i], workload.operations.back().due_time,
                      20, nullptr, &q9_profile);
    }
  }
  std::printf("\nQ9 operator profile (serving Query9):\n");
  for (const auto& [name, stats] : queries::ProfileRows(q9_profile)) {
    std::printf("  %-26s %6llu calls %10.3f ms %10llu rows\n", name.c_str(),
                (unsigned long long)stats.invocations, stats.TimeMs(),
                (unsigned long long)stats.rows);
  }

  // Collected after the Q9 block so its samples (main-thread lane) are
  // folded in; driver lanes folded their totals when their threads exited.
  obs::prof::FoldedProfile folded = obs::prof::Collect();
  {
    const obs::prof::SampleAccounting& acc = folded.accounting;
    double overhead_pct =
        acc.task_clock_ns > 0
            ? 100.0 * static_cast<double>(acc.self_overhead_ns) /
                  static_cast<double>(acc.task_clock_ns)
            : 0.0;
    std::printf("\ncpu profile: %llu samples captured (%llu attributed,"
                " %llu unattributed, %llu dropped) across %u threads,"
                " self-overhead %.3f%% of task-clock\n",
                (unsigned long long)acc.captured,
                (unsigned long long)acc.attributed,
                (unsigned long long)acc.unattributed,
                (unsigned long long)acc.dropped, acc.threads, overhead_pct);
  }

  obs::RunReport run_report;
  run_report.title = "snb-interactive benchmark_run SF " +
                     std::to_string(scale_factor);
  run_report.metrics = metrics.Snapshot();  // Re-snapshot: gauges now set.
  run_report.has_driver = true;
  run_report.driver = driver::MakeDriverSection(report);
  run_report.has_compliance = report.has_compliance;
  run_report.compliance = report.compliance;
  run_report.has_q9_profile = true;
  run_report.q9_profile =
      queries::MakeQ9ProfileSection(q9_profile, "serving Query9");
  run_report.has_provenance = true;
  run_report.provenance = obs::BuildProvenance();
  run_report.has_profile = true;
  run_report.profile = obs::MakeProfileSection(folded);
  for (size_t i = 0; i < run_report.profile.top_frames.size() && i < 4; ++i) {
    const obs::ProfileSection::OpFrames& row = run_report.profile.top_frames[i];
    std::printf("  hottest under %-16s (%llu samples): %s\n", row.op.c_str(),
                (unsigned long long)row.samples,
                row.frames.empty() ? "-" : row.frames[0].frame.c_str());
  }
  if (perf_counters) {
    run_report.has_perf = true;
    run_report.perf = obs::CurrentPerfSection();
  }
  if (dossiers != nullptr) {
    run_report.dossiers = dossiers->Snapshot();
    std::printf("\nslow-query dossiers: %zu kept (slowest %zu per op"
                " type)\n",
                run_report.dossiers.size(), dossiers->keep_per_op());
    for (size_t i = 0; i < run_report.dossiers.size() && i < 5; ++i) {
      const obs::SlowQueryDossier& d = run_report.dossiers[i];
      std::printf("  %-14s seq %-8llu %10.3f ms, %zu operator rows%s\n",
                  obs::OpTypeName(d.op), (unsigned long long)d.seq,
                  static_cast<double>(d.latency_ns) / 1e6,
                  d.operators.size(),
                  d.hw.valid() ? ", hw counters attached" : "");
    }
  }
  if (trace != nullptr) {
    run_report.has_trace_stats = true;
    run_report.trace_stats.recorded = trace->recorded();
    run_report.trace_stats.dropped = trace->dropped();
    for (const auto& lane : trace->PerLaneStats()) {
      obs::TraceStatsSection::LaneRow row;
      row.lane = lane.lane;
      row.recorded = lane.recorded;
      row.retained = lane.retained;
      row.dropped = lane.dropped;
      run_report.trace_stats.lanes.push_back(row);
    }
  }
  std::string json = obs::ToJson(run_report);
  util::Status valid = obs::ValidateReportJson(json);
  if (!valid.ok()) {
    std::fprintf(stderr, "report self-validation failed: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  status = obs::WriteFileReport(report_path, json);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::string prom_path = report_path + ".prom";
  (void)obs::WriteFileReport(prom_path,
                             obs::ToPrometheusText(run_report.metrics));
  std::printf("\nwrote %s and %s\n", report_path.c_str(), prom_path.c_str());

  if (!cpu_profile_path.empty()) {
    status = obs::WriteFileReport(cpu_profile_path,
                                  obs::prof::ToFoldedText(folded));
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu folded stacks, %llu samples)\n",
                cpu_profile_path.c_str(), folded.stacks.size(),
                (unsigned long long)folded.accounting.captured);
  }

  if (trace != nullptr) {
    status = obs::WriteFileReport(trace_path, obs::ToChromeTraceJson(*trace));
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%llu events recorded, %llu dropped by ring"
                " bound)\n",
                trace_path.c_str(), (unsigned long long)trace->recorded(),
                (unsigned long long)trace->dropped());
  }

  exporter.Stop();

  bool ok = !report.has_compliance || report.compliance.passed;
  std::printf("benchmark metric: acceleration-factor %.0fx %s\n",
              acceleration, ok ? "(valid run)" : "(lower the factor)");
  return ok ? 0 : 2;
}
