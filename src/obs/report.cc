#include "obs/report.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>

#include "util/json.h"

// Provenance macros come from CMake (src/obs/CMakeLists.txt); default to
// "unknown" so non-CMake builds (e.g. single-file test compiles) still
// link.
#ifndef SNB_PROVENANCE_GIT_SHA
#define SNB_PROVENANCE_GIT_SHA "unknown"
#endif
#ifndef SNB_PROVENANCE_COMPILER
#define SNB_PROVENANCE_COMPILER "unknown"
#endif
#ifndef SNB_PROVENANCE_BUILD_TYPE
#define SNB_PROVENANCE_BUILD_TYPE ""
#endif
#ifndef SNB_PROVENANCE_SANITIZE
#define SNB_PROVENANCE_SANITIZE "none"
#endif
#ifndef SNB_PROVENANCE_SIMD
#define SNB_PROVENANCE_SIMD 0
#endif

namespace snb::obs {
namespace {

using util::JsonValue;
using util::JsonWriter;
using Kind = util::JsonValue::Kind;

/// Writes hardware-counter ratio fields derived from `hw` averaged over
/// `samples` operations into the open object. Writes nothing when the
/// counts are invalid, so counter-less rows carry no counter keys.
void WriteHwFields(JsonWriter& w, const perf::HwCounts& hw, uint64_t samples) {
  if (!hw.valid() || samples == 0) return;
  double n = static_cast<double>(samples);
  auto per_op = [&](perf::HwMetric m) {
    return static_cast<double>(hw.Value(m)) / n;
  };
  w.Key("hw_samples").U64(samples);
  if (hw.Has(perf::HwMetric::kCycles) &&
      hw.Has(perf::HwMetric::kInstructions)) {
    w.Key("ipc").Double(hw.Ipc());
  }
  if (hw.Has(perf::HwMetric::kCycles)) {
    w.Key("cycles_per_op").Double(per_op(perf::HwMetric::kCycles));
  }
  if (hw.Has(perf::HwMetric::kInstructions)) {
    w.Key("instructions_per_op").Double(per_op(perf::HwMetric::kInstructions));
  }
  if (hw.Has(perf::HwMetric::kLlcLoadMisses)) {
    w.Key("llc_miss_per_op").Double(per_op(perf::HwMetric::kLlcLoadMisses));
    if (hw.Has(perf::HwMetric::kInstructions)) {
      w.Key("llc_miss_per_kinstr").Double(hw.LlcMissesPerKiloInstr());
    }
  }
  if (hw.Has(perf::HwMetric::kBranchMisses)) {
    w.Key("branch_miss_per_op").Double(per_op(perf::HwMetric::kBranchMisses));
    if (hw.Has(perf::HwMetric::kInstructions)) {
      w.Key("branch_miss_per_kinstr").Double(hw.BranchMissesPerKiloInstr());
    }
  }
}

void WriteDriver(JsonWriter& w, const DriverSection& d) {
  w.Key("driver").BeginObject();
  w.Key("operations_executed").U64(d.operations_executed);
  w.Key("operations_failed").U64(d.operations_failed);
  w.Key("elapsed_seconds").Double(d.elapsed_seconds);
  w.Key("ops_per_second").Double(d.ops_per_second);
  w.Key("max_schedule_lag_ms").Double(d.max_schedule_lag_ms);
  w.Key("dependencies_tracked").U64(d.dependencies_tracked);
  w.Key("dependent_waits").U64(d.dependent_waits);
  w.Key("lag_timeline_ms").BeginArray();
  for (const auto& [second, lag_ms] : d.lag_timeline_ms) {
    w.BeginArray().Double(second).Double(lag_ms).EndArray();
  }
  w.EndArray().EndObject();
}

void WriteCompliance(JsonWriter& w, const ComplianceSection& c) {
  w.Key("compliance").BeginObject();
  w.Key("window_ms").Double(c.window_ms);
  w.Key("required_on_time_fraction").Double(c.required_on_time_fraction);
  w.Key("scheduled_ops").U64(c.scheduled_ops);
  w.Key("on_time_ops").U64(c.on_time_ops);
  w.Key("on_time_fraction").Double(c.on_time_fraction);
  w.Key("passed").Bool(c.passed);
  w.Key("lateness_histogram_ms").BeginArray();
  for (const auto& [edge_ms, count] : c.lateness_histogram_ms) {
    w.BeginArray().Double(edge_ms).U64(count).EndArray();
  }
  w.EndArray();
  w.Key("worst_offenders").BeginArray();
  for (const ComplianceOpEntry& entry : c.per_op) {
    w.BeginObject();
    w.Key("op").String(entry.op);
    w.Key("scheduled").U64(entry.scheduled);
    w.Key("late").U64(entry.late);
    w.Key("max_late_ms").Double(entry.max_late_ms);
    w.EndObject();
  }
  w.EndArray().EndObject();
}

void WriteQ9Profile(JsonWriter& w, const Q9ProfileSection& q9) {
  w.Key("q9_profile").BeginObject();
  w.Key("plan").String(q9.plan);
  w.Key("operators").BeginArray();
  for (const OperatorEntry& entry : q9.operators) {
    w.BeginObject();
    w.Key("name").String(entry.name);
    w.Key("invocations").U64(entry.stats.invocations);
    w.Key("time_ms").Double(entry.stats.TimeMs());
    w.Key("rows").U64(entry.stats.rows);
    WriteHwFields(w, entry.stats.hw, entry.stats.hw_invocations);
    w.EndObject();
  }
  w.EndArray().EndObject();
}

void WriteValidation(JsonWriter& w, const ValidationSection& v) {
  w.Key("validation").BeginObject();
  w.Key("passed").Bool(v.passed);
  w.Key("golden_path").String(v.golden_path);
  w.Key("threads").U64(v.threads);
  w.Key("mode").String(v.mode);
  w.Key("segments_compared").U64(v.segments_compared);
  w.Key("ops_compared").U64(v.ops_compared);
  w.Key("rows_compared").U64(v.rows_compared);
  w.Key("diffs").U64(v.diffs);
  w.Key("first_divergence").String(v.first_divergence);
  w.EndObject();
}

void WriteProvenance(JsonWriter& w, const ProvenanceSection& p) {
  w.Key("provenance").BeginObject();
  w.Key("git_sha").String(p.git_sha);
  w.Key("compiler").String(p.compiler);
  w.Key("build_type").String(p.build_type);
  w.Key("simd").Bool(p.simd);
  w.Key("sanitizer").String(p.sanitizer);
  w.EndObject();
}

void WritePerf(JsonWriter& w, const PerfSection& p) {
  w.Key("perf").BeginObject();
  w.Key("backend").String(p.backend);
  w.Key("counters_available").Bool(p.counters_available);
  w.Key("message").String(p.message);
  w.EndObject();
}

void WriteDossiers(JsonWriter& w, const std::vector<SlowQueryDossier>& all) {
  w.Key("dossiers").BeginArray();
  for (const SlowQueryDossier& d : all) {
    w.BeginObject();
    w.Key("op").String(OpTypeName(d.op));
    w.Key("seq").U64(d.seq);
    w.Key("latency_ms").Double(static_cast<double>(d.latency_ns) / 1e6);
    WriteHwFields(w, d.hw, 1);
    w.Key("operators").BeginArray();
    for (const DossierOperatorRow& row : d.operators) {
      w.BeginObject();
      w.Key("name").String(row.name);
      w.Key("invocations").U64(row.invocations);
      w.Key("time_ms").Double(static_cast<double>(row.time_ns) / 1e6);
      w.Key("rows").U64(row.rows);
      WriteHwFields(w, row.hw, row.hw_invocations);
      w.EndObject();
    }
    w.EndArray().EndObject();
  }
  w.EndArray();
}

void WriteTraceStats(JsonWriter& w, const TraceStatsSection& t) {
  w.Key("trace").BeginObject();
  w.Key("recorded").U64(t.recorded);
  w.Key("dropped").U64(t.dropped);
  w.Key("lanes").BeginArray();
  for (const TraceStatsSection::LaneRow& lane : t.lanes) {
    w.BeginObject();
    w.Key("lane").U64(lane.lane);
    w.Key("recorded").U64(lane.recorded);
    w.Key("retained").U64(lane.retained);
    w.Key("dropped").U64(lane.dropped);
    w.EndObject();
  }
  w.EndArray().EndObject();
}

void WriteProfile(JsonWriter& w, const ProfileSection& p) {
  w.Key("profile").BeginObject();
  w.Key("backend").String(p.backend);
  w.Key("message").String(p.message);
  w.Key("interval_us").U64(p.interval_us);
  w.Key("captured").U64(p.captured);
  w.Key("attributed").U64(p.attributed);
  w.Key("unattributed").U64(p.unattributed);
  w.Key("dropped").U64(p.dropped);
  w.Key("self_overhead_ns").U64(p.self_overhead_ns);
  w.Key("task_clock_ns").U64(p.task_clock_ns);
  w.Key("threads").U64(p.threads);
  w.Key("top_frames").BeginArray();
  for (const ProfileSection::OpFrames& op : p.top_frames) {
    w.BeginObject();
    w.Key("op").String(op.op);
    w.Key("samples").U64(op.samples);
    w.Key("frames").BeginArray();
    for (const ProfileSection::FrameRow& frame : op.frames) {
      w.BeginObject();
      w.Key("frame").String(frame.frame);
      w.Key("samples").U64(frame.samples);
      w.EndObject();
    }
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();
}

}  // namespace

std::string ToJson(const RunReport& report) {
  JsonWriter w(16 * 1024);
  w.BeginObject();
  w.Key("schema").String("snb-report-v5");
  w.Key("title").String(report.title);

  // Per-op-type latency table (Tables 6/7/9 layout).
  w.Key("ops").BeginArray();
  for (size_t i = 0; i < kNumOpTypes; ++i) {
    const OpSnapshot& op = report.metrics.ops[i];
    if (op.count == 0) continue;
    w.BeginObject();
    w.Key("op").String(OpTypeName(static_cast<OpType>(i)));
    w.Key("count").U64(op.count);
    w.Key("mean_ms").Double(op.MeanUs() / 1000.0);
    w.Key("min_ms").Double(op.MinUs() / 1000.0);
    w.Key("p50_ms").Double(op.PercentileUs(50) / 1000.0);
    w.Key("p90_ms").Double(op.PercentileUs(90) / 1000.0);
    w.Key("p95_ms").Double(op.PercentileUs(95) / 1000.0);
    w.Key("p99_ms").Double(op.PercentileUs(99) / 1000.0);
    w.Key("max_ms").Double(op.MaxUs() / 1000.0);
    WriteHwFields(w, op.hw, op.hw_samples);
    w.EndObject();
  }
  w.EndArray();

  w.Key("counters").BeginObject();
  for (size_t c = 0; c < kNumCounters; ++c) {
    w.Key(CounterName(static_cast<Counter>(c)))
        .U64(report.metrics.counters[c]);
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (size_t g = 0; g < kNumGauges; ++g) {
    w.Key(GaugeName(static_cast<Gauge>(g))).U64(report.metrics.gauges[g]);
  }
  w.EndObject();

  if (report.has_driver) WriteDriver(w, report.driver);
  if (report.has_compliance) WriteCompliance(w, report.compliance);
  if (report.has_q9_profile) WriteQ9Profile(w, report.q9_profile);
  if (report.has_validation) WriteValidation(w, report.validation);
  if (report.has_provenance) WriteProvenance(w, report.provenance);
  if (report.has_perf) WritePerf(w, report.perf);
  if (!report.dossiers.empty()) WriteDossiers(w, report.dossiers);
  if (report.has_trace_stats) WriteTraceStats(w, report.trace_stats);
  if (report.has_profile) WriteProfile(w, report.profile);
  w.EndObject();
  return w.Take();
}

ProvenanceSection BuildProvenance() {
  ProvenanceSection p;
  p.git_sha = SNB_PROVENANCE_GIT_SHA;
  p.compiler = SNB_PROVENANCE_COMPILER;
  p.build_type = SNB_PROVENANCE_BUILD_TYPE;
  p.simd = SNB_PROVENANCE_SIMD != 0;
  p.sanitizer = SNB_PROVENANCE_SANITIZE;
  if (p.sanitizer.empty()) p.sanitizer = "none";
  return p;
}

PerfSection CurrentPerfSection() {
  PerfSection p;
  p.backend = perf::BackendName(perf::ActiveBackend());
  p.counters_available = perf::CountersLive();
  p.message = perf::BackendMessage();
  return p;
}

ProfileSection MakeProfileSection(const prof::FoldedProfile& profile,
                                  size_t top_n) {
  ProfileSection out;
  out.backend = prof::BackendName(profile.backend);
  out.message = profile.message;
  out.interval_us = profile.interval_us;
  out.captured = profile.accounting.captured;
  out.attributed = profile.accounting.attributed;
  out.unattributed = profile.accounting.unattributed;
  out.dropped = profile.accounting.dropped;
  out.self_overhead_ns = profile.accounting.self_overhead_ns;
  out.task_clock_ns = profile.accounting.task_clock_ns;
  out.threads = profile.accounting.threads;

  // Rank leaf frames (self samples) within each op. A stack's leaf is
  // its last rendered frame; frame-less stacks fall back to the
  // operator label, then to a placeholder.
  std::map<std::string, std::map<std::string, uint64_t>> per_op;
  for (const prof::FoldedStack& stack : profile.stacks) {
    std::string op = stack.op.empty() ? "(unattributed)" : stack.op;
    std::string leaf = !stack.frames.empty()
                           ? stack.frames.back()
                           : (!stack.op_label.empty() ? stack.op_label
                                                      : "[no frames]");
    per_op[op][leaf] += stack.count;
  }
  for (const auto& [op, frames] : per_op) {
    ProfileSection::OpFrames row;
    row.op = op;
    std::vector<ProfileSection::FrameRow> ranked;
    ranked.reserve(frames.size());
    for (const auto& [frame, samples] : frames) {
      row.samples += samples;
      ranked.push_back({frame, samples});
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const ProfileSection::FrameRow& a,
                        const ProfileSection::FrameRow& b) {
                       return a.samples > b.samples;
                     });
    if (ranked.size() > top_n) ranked.resize(top_n);
    row.frames = std::move(ranked);
    out.top_frames.push_back(std::move(row));
  }
  std::stable_sort(out.top_frames.begin(), out.top_frames.end(),
                   [](const ProfileSection::OpFrames& a,
                      const ProfileSection::OpFrames& b) {
                     return a.samples > b.samples;
                   });
  return out;
}

std::string EscapePromLabelValue(const std::string& value) {
  // Text exposition format: inside a label value, backslash, double quote
  // and line feed must be escaped; everything else passes through.
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

namespace {

/// Appends one sample line: `metric{label="escaped value"} <number>`.
void AppendPromSample(std::string* out, const char* metric,
                      const char* label, const std::string& value,
                      const char* extra, double number) {
  *out += metric;
  *out += '{';
  *out += label;
  *out += "=\"";
  *out += EscapePromLabelValue(value);
  *out += '"';
  *out += extra;  // Pre-formatted, e.g. ",quantile=\"0.99\"" or "".
  *out += "} ";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", number);
  *out += buf;
  *out += '\n';
}

void AppendPromSampleU64(std::string* out, const char* metric,
                         const char* label, const std::string& value,
                         uint64_t number) {
  *out += metric;
  *out += '{';
  *out += label;
  *out += "=\"";
  *out += EscapePromLabelValue(value);
  *out += "\"} ";
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, number);
  *out += buf;
  *out += '\n';
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(8 * 1024);
  out += "# TYPE snb_op_count counter\n";
  out += "# TYPE snb_op_latency_ms summary\n";
  for (size_t i = 0; i < kNumOpTypes; ++i) {
    const OpSnapshot& op = snapshot.ops[i];
    if (op.count == 0) continue;
    const std::string name = OpTypeName(static_cast<OpType>(i));
    AppendPromSampleU64(&out, "snb_op_count", "op", name, op.count);
    AppendPromSample(&out, "snb_op_latency_ms_sum", "op", name, "",
                     static_cast<double>(op.sum_ns) / 1e6);
    const double quantiles[] = {0.5, 0.9, 0.95, 0.99};
    for (double q : quantiles) {
      char extra[32];
      std::snprintf(extra, sizeof(extra), ",quantile=\"%.2f\"", q);
      AppendPromSample(&out, "snb_op_latency_ms", "op", name, extra,
                       op.PercentileUs(q * 100.0) / 1000.0);
    }
  }
  out += "# TYPE snb_counter counter\n";
  for (size_t c = 0; c < kNumCounters; ++c) {
    AppendPromSampleU64(&out, "snb_counter", "name",
                        CounterName(static_cast<Counter>(c)),
                        snapshot.counters[c]);
  }
  out += "# TYPE snb_gauge gauge\n";
  for (size_t g = 0; g < kNumGauges; ++g) {
    AppendPromSampleU64(&out, "snb_gauge", "name",
                        GaugeName(static_cast<Gauge>(g)),
                        snapshot.gauges[g]);
  }
  return out;
}

util::Status ValidateReportJson(const std::string& json) {
  JsonValue root;
  std::string error;
  if (!util::ParseJson(json, &root, &error)) {
    return util::Status::InvalidArgument("report is not valid JSON: " +
                                         error);
  }
  if (root.kind != Kind::kObject) {
    return util::Status::InvalidArgument("report root is not an object");
  }
  SNB_RETURN_IF_ERROR(util::CheckSchema(root, "snb-report-v5", "report"));
  const JsonValue* ops = root.Find("ops", Kind::kArray);
  if (ops == nullptr) {
    return util::Status::InvalidArgument("missing \"ops\" array");
  }
  if (ops->array.empty()) {
    return util::Status::InvalidArgument("\"ops\" array is empty");
  }
  for (const JsonValue& op : ops->array) {
    if (op.kind != Kind::kObject) {
      return util::Status::InvalidArgument("op entry is not an object");
    }
    const JsonValue* name = op.Find("op", Kind::kString);
    if (name == nullptr) {
      return util::Status::InvalidArgument("op entry lacks a name");
    }
    double count = op.NumberOr("count", -1.0);
    if (count <= 0.0) {
      return util::Status::InvalidArgument("op " + name->string +
                                           " has no samples");
    }
    double p50 = op.NumberOr("p50_ms", -1.0);
    double p90 = op.NumberOr("p90_ms", -1.0);
    double p95 = op.NumberOr("p95_ms", -1.0);
    double p99 = op.NumberOr("p99_ms", -1.0);
    double max = op.NumberOr("max_ms", -1.0);
    if (p50 < 0.0 || p90 < 0.0 || p95 < 0.0 || p99 < 0.0 || max < 0.0) {
      return util::Status::InvalidArgument("op " + name->string +
                                           " lacks percentile fields");
    }
    // Monotone percentiles; bucket midpoints can overshoot the exact max
    // by at most half a bucket width (1/32), so allow that much slack at
    // the top end.
    if (p50 > p90 || p90 > p95 || p95 > p99 || p99 > max * (1.0 + 1.0 / 32) + 1e-9) {
      return util::Status::InvalidArgument(
          "op " + name->string + " has non-monotone percentiles");
    }
  }
  const JsonValue* compliance = root.Find("compliance");
  if (compliance != nullptr) {
    double scheduled = compliance->NumberOr("scheduled_ops", -1.0);
    double on_time = compliance->NumberOr("on_time_ops", -1.0);
    double fraction = compliance->NumberOr("on_time_fraction", -1.0);
    if (scheduled < 0.0 || on_time < 0.0 || fraction < 0.0 ||
        fraction > 1.0 + 1e-9 || on_time > scheduled + 1e-9) {
      return util::Status::InvalidArgument(
          "compliance section is inconsistent");
    }
    const JsonValue* hist =
        compliance->Find("lateness_histogram_ms", Kind::kArray);
    if (hist == nullptr) {
      return util::Status::InvalidArgument(
          "compliance lacks a lateness histogram");
    }
    double hist_total = 0.0;
    for (const JsonValue& row : hist->array) {
      if (row.kind != Kind::kArray || row.array.size() != 2) {
        return util::Status::InvalidArgument(
            "compliance histogram row is not a [edge_ms, count] pair");
      }
      hist_total += row.array[1].number;
    }
    if (scheduled > 0.0 && std::abs(hist_total - scheduled) > 1e-6) {
      return util::Status::InvalidArgument(
          "compliance histogram does not sum to scheduled_ops");
    }
  }
  const JsonValue* q9 = root.Find("q9_profile");
  if (q9 != nullptr) {
    const JsonValue* operators = q9->Find("operators", Kind::kArray);
    if (operators == nullptr ||
        operators->array.empty()) {
      return util::Status::InvalidArgument(
          "q9_profile lacks a non-empty operators array");
    }
    for (const JsonValue& entry : operators->array) {
      if (entry.NumberOr("time_ms", -1.0) < 0.0 ||
          entry.NumberOr("invocations", -1.0) < 0.0) {
        return util::Status::InvalidArgument(
            "q9_profile operator entry lacks time/invocations");
      }
    }
  }
  const JsonValue* validation = root.Find("validation");
  if (validation != nullptr) {
    const JsonValue* passed = validation->Find("passed", Kind::kBool);
    if (passed == nullptr) {
      return util::Status::InvalidArgument(
          "validation section lacks a boolean \"passed\"");
    }
    double diffs = validation->NumberOr("diffs", -1.0);
    double rows = validation->NumberOr("rows_compared", -1.0);
    if (diffs < 0.0 || rows < 0.0) {
      return util::Status::InvalidArgument(
          "validation section lacks diffs/rows_compared");
    }
    if (passed->boolean && diffs != 0.0) {
      return util::Status::InvalidArgument(
          "validation section passed with non-zero diffs");
    }
  }
  const JsonValue* provenance = root.Find("provenance");
  if (provenance != nullptr) {
    const JsonValue* sha = provenance->Find("git_sha", Kind::kString);
    const JsonValue* compiler = provenance->Find("compiler", Kind::kString);
    if (sha == nullptr ||
        sha->string.empty() || compiler == nullptr) {
      return util::Status::InvalidArgument(
          "provenance section lacks git_sha/compiler strings");
    }
  }
  const JsonValue* perf = root.Find("perf");
  if (perf != nullptr) {
    const JsonValue* backend = perf->Find("backend", Kind::kString);
    if (backend == nullptr ||
        (backend->string != "disabled" && backend->string != "noop" &&
         backend->string != "linux")) {
      return util::Status::InvalidArgument(
          "perf section has a missing/unknown backend");
    }
    const JsonValue* available = perf->Find("counters_available", Kind::kBool);
    if (available == nullptr) {
      return util::Status::InvalidArgument(
          "perf section lacks a boolean counters_available");
    }
    // Only the linux backend can produce live counters.
    if (available->boolean && backend->string != "linux") {
      return util::Status::InvalidArgument(
          "perf section claims counters without the linux backend");
    }
  }
  const JsonValue* dossiers = root.Find("dossiers");
  if (dossiers != nullptr) {
    if (dossiers->kind != Kind::kArray) {
      return util::Status::InvalidArgument("dossiers is not an array");
    }
    for (const JsonValue& d : dossiers->array) {
      const JsonValue* op = d.Find("op", Kind::kString);
      if (op == nullptr) {
        return util::Status::InvalidArgument("dossier lacks an op name");
      }
      if (d.NumberOr("latency_ms", -1.0) < 0.0) {
        return util::Status::InvalidArgument(
            "dossier " + op->string + " lacks a latency");
      }
      const JsonValue* operators = d.Find("operators", Kind::kArray);
      if (operators == nullptr) {
        return util::Status::InvalidArgument(
            "dossier " + op->string + " lacks an operators array");
      }
    }
  }
  const JsonValue* trace = root.Find("trace");
  if (trace != nullptr) {
    double recorded = trace->NumberOr("recorded", -1.0);
    double dropped = trace->NumberOr("dropped", -1.0);
    if (recorded < 0.0 || dropped < 0.0 || dropped > recorded + 1e-9) {
      return util::Status::InvalidArgument(
          "trace section accounting is inconsistent");
    }
    const JsonValue* lanes = trace->Find("lanes");
    if (lanes != nullptr) {
      if (lanes->kind != Kind::kArray) {
        return util::Status::InvalidArgument("trace lanes is not an array");
      }
      double lane_recorded = 0.0;
      double lane_dropped = 0.0;
      for (const JsonValue& lane : lanes->array) {
        double rec = lane.NumberOr("recorded", -1.0);
        double ret = lane.NumberOr("retained", -1.0);
        double drop = lane.NumberOr("dropped", -1.0);
        if (rec < 0.0 || ret < 0.0 || drop < 0.0 ||
            std::abs(ret + drop - rec) > 1e-6) {
          return util::Status::InvalidArgument(
              "trace lane row does not satisfy recorded == retained + "
              "dropped");
        }
        lane_recorded += rec;
        lane_dropped += drop;
      }
      if (std::abs(lane_recorded - recorded) > 1e-6 ||
          std::abs(lane_dropped - dropped) > 1e-6) {
        return util::Status::InvalidArgument(
            "trace lane rows do not sum to the aggregate counts");
      }
    }
  }
  const JsonValue* profile = root.Find("profile");
  if (profile != nullptr) {
    if (profile->kind != Kind::kObject) {
      return util::Status::InvalidArgument("profile is not an object");
    }
    const JsonValue* backend = profile->Find("backend", Kind::kString);
    if (backend == nullptr ||
        (backend->string != "disabled" && backend->string != "noop" &&
         backend->string != "timer")) {
      return util::Status::InvalidArgument(
          "profile backend is not one of disabled/noop/timer");
    }
    double captured = profile->NumberOr("captured", -1.0);
    double attributed = profile->NumberOr("attributed", -1.0);
    double unattributed = profile->NumberOr("unattributed", -1.0);
    double dropped = profile->NumberOr("dropped", -1.0);
    double overhead = profile->NumberOr("self_overhead_ns", -1.0);
    double task_clock = profile->NumberOr("task_clock_ns", -1.0);
    if (captured < 0.0 || attributed < 0.0 || unattributed < 0.0 ||
        dropped < 0.0 || overhead < 0.0 || task_clock < 0.0) {
      return util::Status::InvalidArgument(
          "profile accounting fields are missing or negative");
    }
    // The conservation invariant the collator maintains by construction;
    // a report violating it was assembled by hand or corrupted.
    if (std::abs(captured - (attributed + unattributed + dropped)) > 1e-6) {
      return util::Status::InvalidArgument(
          "profile accounting does not satisfy captured == attributed + "
          "unattributed + dropped");
    }
    // Handler time is a subset of the sampled threads' CPU time, so it
    // can never exceed the task clock.
    if (overhead > task_clock + 1e-6) {
      return util::Status::InvalidArgument(
          "profile self-overhead exceeds the task clock");
    }
    if (backend->string != "timer" && captured > 0.0) {
      return util::Status::InvalidArgument(
          "profile captured samples under a non-timer backend");
    }
    const JsonValue* top_frames = profile->Find("top_frames");
    if (top_frames != nullptr) {
      if (top_frames->kind != Kind::kArray) {
        return util::Status::InvalidArgument(
            "profile top_frames is not an array");
      }
      for (const JsonValue& op_row : top_frames->array) {
        const JsonValue* op = op_row.Find("op", Kind::kString);
        if (op == nullptr ||
            op->string.empty()) {
          return util::Status::InvalidArgument(
              "profile top_frames row lacks an op name");
        }
        if (op_row.NumberOr("samples", -1.0) < 0.0) {
          return util::Status::InvalidArgument(
              "profile top_frames row " + op->string + " lacks samples");
        }
        const JsonValue* frames = op_row.Find("frames", Kind::kArray);
        if (frames == nullptr) {
          return util::Status::InvalidArgument(
              "profile top_frames row " + op->string +
              " lacks a frames array");
        }
        // Every sampled stack contributes a leaf (a placeholder at
        // worst), so an op that claims samples must show frames.
        if (frames->array.empty() &&
            op_row.NumberOr("samples", 0.0) > 0.0) {
          return util::Status::InvalidArgument(
              "profile top_frames row " + op->string +
              " has samples but no frames");
        }
        for (const JsonValue& frame : frames->array) {
          const JsonValue* name = frame.Find("frame", Kind::kString);
          if (name == nullptr ||
              frame.NumberOr("samples", -1.0) < 0.0) {
            return util::Status::InvalidArgument(
                "profile frame row under " + op->string +
                " lacks frame/samples");
          }
        }
      }
    }
  }
  return util::Status::Ok();
}

}  // namespace snb::obs
