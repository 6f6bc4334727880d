// Validation-mode CLI: golden-set emission and replay.
//
//   ./tools/validate_run --emit [--out validation_set.json]
//                        [--seed S] [--persons N] [--segments K]
//
//     Runs the serial reference execution (datagen at the given seed,
//     updates applied in stream order, deterministic read battery after
//     each segment) and writes the versioned golden file
//     ("snb-validation-v1").
//
//   ./tools/validate_run --replay validation_set.json
//                        [--threads N] [--mode sequential|parallel|windowed]
//                        [--shards N] [--report report.json]
//                        [--mutate <op>]
//
//     Regenerates the dataset from the golden file's parameters, replays
//     the update segments through the real driver at the requested thread
//     count, execution mode and store shard count, re-runs the battery
//     and diffs every canonical row. --shards runs the sharded store
//     (1..8); the serial single-shard emission must replay
//     byte-identically at every count. Writes report.json (schema
//     snb-report-v3) with the "validation" section and the replayed
//     updates' latency table.
//     --mutate injects a result corruption for the named op (e.g.
//     "complex.Q9") — the mutation test: a replay so poisoned MUST fail.
//
// Exit codes: 0 = success / zero diffs, 1 = usage or setup error,
// 2 = divergence detected.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "driver/driver.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "store/shard_router.h"
#include "validate/canonical.h"
#include "validate/golden.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --emit [--out FILE] [--seed S] [--persons N] "
               "[--segments K]\n"
               "       %s --replay FILE [--threads N] "
               "[--mode sequential|parallel|windowed] [--shards N] "
               "[--report FILE] [--mutate OP]\n",
               argv0, argv0);
  return 1;
}

bool ParseMode(const std::string& name, snb::driver::ExecutionMode* out) {
  if (name == "sequential") {
    *out = snb::driver::ExecutionMode::kSequentialForum;
  } else if (name == "parallel") {
    *out = snb::driver::ExecutionMode::kParallelGct;
  } else if (name == "windowed") {
    *out = snb::driver::ExecutionMode::kWindowed;
  } else {
    return false;
  }
  return true;
}

int RunEmit(const std::string& out_path,
            const snb::validate::GoldenEmitOptions& options) {
  using namespace snb;
  validate::GoldenSet golden;
  util::Status st = validate::EmitGoldenSet(options, &golden);
  if (!st.ok()) {
    std::fprintf(stderr, "emit failed: %s\n", st.message().c_str());
    return 1;
  }
  st = validate::WriteGoldenSet(golden, out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 st.message().c_str());
    return 1;
  }
  uint64_t ops = 0;
  for (const auto& segment : golden.segments) {
    ops += segment.operations.size();
  }
  std::printf(
      "emitted %s: seed=%s persons=%s segments=%zu battery_ops=%s\n",
      out_path.c_str(), validate::FormatU64(golden.seed).c_str(),
      validate::FormatU64(golden.num_persons).c_str(),
      golden.segments.size(), validate::FormatU64(ops).c_str());
  return 0;
}

int RunReplay(const std::string& golden_path, const std::string& report_path,
              snb::validate::ReplayOptions options) {
  using namespace snb;
  validate::GoldenSet golden;
  util::Status st = validate::ReadGoldenSet(golden_path, &golden);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", golden_path.c_str(),
                 st.message().c_str());
    return 1;
  }
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  validate::ReplayOutcome outcome;
  st = validate::ReplayGoldenSet(golden, options, &outcome);
  if (!st.ok()) {
    std::fprintf(stderr, "replay failed: %s\n", st.message().c_str());
    return 1;
  }

  obs::RunReport report;
  report.title = "golden replay of " + golden_path;
  report.metrics = metrics.Snapshot();
  report.has_validation = true;
  obs::ValidationSection& v = report.validation;
  v.passed = outcome.passed;
  v.golden_path = golden_path;
  v.threads = options.threads;
  v.mode = driver::ExecutionModeName(options.mode);
  v.segments_compared = outcome.segments_compared;
  v.ops_compared = outcome.ops_compared;
  v.rows_compared = outcome.rows_compared;
  v.diffs = outcome.diffs;
  if (outcome.diffs > 0) {
    const validate::Divergence& d = outcome.first;
    v.first_divergence = "segment " + std::to_string(d.segment) + " " +
                         d.op + "(" + d.params + ") row " +
                         validate::FormatU64(d.row) + ": expected \"" +
                         d.expected + "\", got \"" + d.actual + "\"";
  } else if (!outcome.error.empty()) {
    v.first_divergence = outcome.error;
  }
  if (!report_path.empty()) {
    std::string json = obs::ToJson(report);
    st = obs::ValidateReportJson(json);
    if (!st.ok()) {
      std::fprintf(stderr, "report failed self-validation: %s\n",
                   st.message().c_str());
      return 1;
    }
    st = obs::WriteFileReport(report_path, json);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", report_path.c_str(),
                   st.message().c_str());
      return 1;
    }
  }

  std::printf(
      "replay %s: threads=%u mode=%s segments=%s ops=%s rows=%s diffs=%s\n",
      outcome.passed ? "PASSED" : "FAILED", options.threads, v.mode.c_str(),
      validate::FormatU64(outcome.segments_compared).c_str(),
      validate::FormatU64(outcome.ops_compared).c_str(),
      validate::FormatU64(outcome.rows_compared).c_str(),
      validate::FormatU64(outcome.diffs).c_str());
  if (!v.first_divergence.empty()) {
    std::printf("first divergence: %s\n", v.first_divergence.c_str());
  }
  return outcome.passed ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool emit = false;
  bool replay = false;
  std::string golden_path = "validation_set.json";
  std::string report_path;
  snb::validate::GoldenEmitOptions emit_options;
  snb::validate::ReplayOptions replay_options;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--emit") {
      emit = true;
    } else if (arg == "--replay") {
      const char* value = next();
      if (value == nullptr) return Usage(argv[0]);
      replay = true;
      golden_path = value;
    } else if (arg == "--out") {
      const char* value = next();
      if (value == nullptr) return Usage(argv[0]);
      golden_path = value;
    } else if (arg == "--seed") {
      const char* value = next();
      if (value == nullptr) return Usage(argv[0]);
      emit_options.seed = std::strtoull(value, nullptr, 0);
    } else if (arg == "--persons") {
      const char* value = next();
      if (value == nullptr) return Usage(argv[0]);
      emit_options.num_persons = std::strtoull(value, nullptr, 10);
    } else if (arg == "--segments") {
      const char* value = next();
      if (value == nullptr) return Usage(argv[0]);
      emit_options.num_segments = std::atoi(value);
    } else if (arg == "--threads") {
      const char* value = next();
      if (value == nullptr) return Usage(argv[0]);
      int threads = std::atoi(value);
      if (threads < 1) return Usage(argv[0]);
      replay_options.threads = static_cast<uint32_t>(threads);
    } else if (arg == "--mode") {
      const char* value = next();
      if (value == nullptr || !ParseMode(value, &replay_options.mode)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--shards") {
      const char* value = next();
      if (value == nullptr) return Usage(argv[0]);
      int shards = std::atoi(value);
      if (shards < 1 || shards > static_cast<int>(snb::store::kMaxShards)) {
        return Usage(argv[0]);
      }
      replay_options.shards = static_cast<uint32_t>(shards);
    } else if (arg == "--report") {
      const char* value = next();
      if (value == nullptr) return Usage(argv[0]);
      report_path = value;
    } else if (arg == "--mutate") {
      const char* value = next();
      if (value == nullptr) return Usage(argv[0]);
      replay_options.mutate_op = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (emit == replay) return Usage(argv[0]);  // Exactly one action.
  if (emit) return RunEmit(golden_path, emit_options);
  return RunReplay(golden_path, report_path, replay_options);
}
