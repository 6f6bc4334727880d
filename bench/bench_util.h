// Shared setup and table-printing helpers for the reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper (see
// DESIGN.md for the index) and prints it in a paper-like layout, plus the
// measured reproduction notes consumed by EXPERIMENTS.md.
#ifndef SNB_BENCH_BENCH_UTIL_H_
#define SNB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "obs/perf_counters.h"
#include "obs/report.h"
#include "schema/dictionaries.h"
#include "store/graph_store.h"

namespace snb::bench {

/// Mini scale factors used throughout the benches. The paper's SF is GB of
/// CSV; these laptop-scale factors keep the same person-per-SF ratio.
inline constexpr double kSmallSf = 0.05;   // ~300 persons.
inline constexpr double kMediumSf = 0.15;  // ~900 persons.
inline constexpr double kLargeSf = 0.4;    // ~2400 persons.

/// A generated dataset plus a bulk-loaded store, shared by query benches.
struct BenchWorld {
  explicit BenchWorld(
      store::ReadConcurrency mode = store::ReadConcurrency::kEpoch)
      : store(mode) {}

  datagen::Dataset dataset;
  std::unique_ptr<schema::Dictionaries> dictionaries;
  store::GraphStore store;
  std::vector<schema::PlaceId> city_country;
  std::vector<schema::PlaceId> company_country;
};

/// Generates a world at the given mini scale factor. When `load_updates` is
/// true the update stream is applied on top of the bulk load (full final
/// state); otherwise the store holds the 32-month bulk image. `read_mode`
/// picks the store's snapshot mechanism (epoch vs. global-lock ablation).
std::unique_ptr<BenchWorld> MakeWorld(
    double scale_factor, bool load_updates = true,
    bool split_update_stream = true,
    store::ReadConcurrency read_mode = store::ReadConcurrency::kEpoch);

/// Prints a horizontal rule and a centered title.
void PrintHeader(const std::string& title);

/// Prints "label: value" aligned rows.
void PrintKv(const std::string& label, const std::string& value);

/// Simple ASCII bar for distribution plots: `value` scaled to `max_value`
/// over `width` characters.
std::string Bar(double value, double max_value, int width = 50);

/// Handles a `--perf-counters` flag: probes and enables the
/// hardware-counter backend and prints the outcome. Safe where
/// perf_event_open is denied — the no-op backend keeps the bench
/// running counter-less.
void EnablePerfCounters();

/// Handles a `--cpu-profile=PATH` flag: probes and enables the sampling
/// CPU profiler and prints the outcome. Safe where per-thread POSIX
/// timers are unavailable — the no-op backend keeps the bench running
/// sample-less (the folded artifact is then empty but still written).
void EnableCpuProfiler();

/// Stamps the profiler section (schema snb-report-v5 superset field) from
/// a collected profile and writes the folded-stack artifact to `path`
/// when non-empty. Call after the measured region, before WriteReport.
void StampProfile(obs::RunReport* report, const std::string& path);

/// Stamps build provenance (git SHA, compiler, SIMD, sanitizer) and —
/// once the perf subsystem has been enabled — the perf backend state
/// into the report (schema snb-report-v4 superset fields).
inline void StampProvenance(obs::RunReport* report) {
  report->has_provenance = true;
  report->provenance = obs::BuildProvenance();
  if (obs::perf::ActiveBackend() != obs::perf::Backend::kDisabled) {
    report->has_perf = true;
    report->perf = obs::CurrentPerfSection();
  }
}

}  // namespace snb::bench

#endif  // SNB_BENCH_BENCH_UTIL_H_
