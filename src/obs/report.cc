#include "obs/report.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

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

// ---- JSON writing helpers -------------------------------------------------

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendDouble(std::string* out, double v) {
  if (!std::isfinite(v)) v = 0.0;  // JSON has no Inf/NaN.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

void AppendKey(std::string* out, const char* key) {
  AppendEscaped(out, key);
  out->push_back(':');
}

/// Appends hardware-counter ratio fields derived from `hw` averaged over
/// `samples` operations, each preceded by a comma (callers are mid-object).
/// Emits nothing when the counts are invalid — counter-less rows keep the
/// exact pre-v4 shape.
void AppendHwFields(std::string* out, const perf::HwCounts& hw,
                    uint64_t samples) {
  if (!hw.valid() || samples == 0) return;
  double n = static_cast<double>(samples);
  *out += ",";
  AppendKey(out, "hw_samples");
  AppendU64(out, samples);
  if (hw.Has(perf::HwMetric::kCycles) &&
      hw.Has(perf::HwMetric::kInstructions)) {
    *out += ",";
    AppendKey(out, "ipc");
    AppendDouble(out, hw.Ipc());
  }
  if (hw.Has(perf::HwMetric::kCycles)) {
    *out += ",";
    AppendKey(out, "cycles_per_op");
    AppendDouble(out,
                 static_cast<double>(hw.Value(perf::HwMetric::kCycles)) / n);
  }
  if (hw.Has(perf::HwMetric::kInstructions)) {
    *out += ",";
    AppendKey(out, "instructions_per_op");
    AppendDouble(
        out, static_cast<double>(hw.Value(perf::HwMetric::kInstructions)) / n);
  }
  if (hw.Has(perf::HwMetric::kLlcLoadMisses)) {
    *out += ",";
    AppendKey(out, "llc_miss_per_op");
    AppendDouble(
        out,
        static_cast<double>(hw.Value(perf::HwMetric::kLlcLoadMisses)) / n);
    if (hw.Has(perf::HwMetric::kInstructions)) {
      *out += ",";
      AppendKey(out, "llc_miss_per_kinstr");
      AppendDouble(out, hw.LlcMissesPerKiloInstr());
    }
  }
  if (hw.Has(perf::HwMetric::kBranchMisses)) {
    *out += ",";
    AppendKey(out, "branch_miss_per_op");
    AppendDouble(
        out,
        static_cast<double>(hw.Value(perf::HwMetric::kBranchMisses)) / n);
    if (hw.Has(perf::HwMetric::kInstructions)) {
      *out += ",";
      AppendKey(out, "branch_miss_per_kinstr");
      AppendDouble(out, hw.BranchMissesPerKiloInstr());
    }
  }
}

// ---- JSON parser ----------------------------------------------------------

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool ParseDocument(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  bool Fail(const char* why) {
    if (error_ != nullptr) {
      *error_ = std::string(why) + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
      case 'f':
        return ParseLiteral(c == 't' ? "true" : "false", out);
      case 'n':
        return ParseLiteral("null", out);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseLiteral(const char* lit, JsonValue* out) {
    size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) != 0) return Fail("bad literal");
    pos_ += n;
    if (lit[0] == 'n') {
      out->kind = JsonValue::Kind::kNull;
    } else {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = lit[0] == 't';
    }
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    double v = std::strtod(start, &end);
    if (end == start) return Fail("expected a value");
    pos_ += static_cast<size_t>(end - start);
    out->kind = JsonValue::Kind::kNumber;
    out->number = v;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          // The writer only emits \u00XX control escapes; decode the low
          // byte and ignore the rest of the plane.
          if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          out->push_back(static_cast<char>(code & 0xff));
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseObject(JsonValue* out) {
    if (!Consume('{')) return Fail("expected '{'");
    out->kind = JsonValue::Kind::kObject;
    SkipWs();
    if (Consume('}')) return true;
    for (;;) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return true;
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    if (!Consume('[')) return Fail("expected '['");
    out->kind = JsonValue::Kind::kArray;
    SkipWs();
    if (Consume(']')) return true;
    for (;;) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return true;
      return Fail("expected ',' or ']'");
    }
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

/// Numeric object member or fallback.
double NumberOr(const JsonValue& obj, const std::string& key,
                double fallback) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number
                                                             : fallback;
}

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  return Parser(text, error).ParseDocument(out);
}

std::string ToJson(const RunReport& report) {
  std::string out;
  out.reserve(16 * 1024);
  out += "{";
  AppendKey(&out, "schema");
  out += "\"snb-report-v5\",";
  AppendKey(&out, "title");
  AppendEscaped(&out, report.title);
  out += ",";

  // Per-op-type latency table (Tables 6/7/9 layout).
  AppendKey(&out, "ops");
  out += "[";
  bool first = true;
  for (size_t i = 0; i < kNumOpTypes; ++i) {
    const OpSnapshot& op = report.metrics.ops[i];
    if (op.count == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "{";
    AppendKey(&out, "op");
    AppendEscaped(&out, OpTypeName(static_cast<OpType>(i)));
    out += ",";
    AppendKey(&out, "count");
    AppendU64(&out, op.count);
    out += ",";
    AppendKey(&out, "mean_ms");
    AppendDouble(&out, op.MeanUs() / 1000.0);
    out += ",";
    AppendKey(&out, "min_ms");
    AppendDouble(&out, op.MinUs() / 1000.0);
    out += ",";
    AppendKey(&out, "p50_ms");
    AppendDouble(&out, op.PercentileUs(50) / 1000.0);
    out += ",";
    AppendKey(&out, "p90_ms");
    AppendDouble(&out, op.PercentileUs(90) / 1000.0);
    out += ",";
    AppendKey(&out, "p95_ms");
    AppendDouble(&out, op.PercentileUs(95) / 1000.0);
    out += ",";
    AppendKey(&out, "p99_ms");
    AppendDouble(&out, op.PercentileUs(99) / 1000.0);
    out += ",";
    AppendKey(&out, "max_ms");
    AppendDouble(&out, op.MaxUs() / 1000.0);
    AppendHwFields(&out, op.hw, op.hw_samples);
    out += "}";
  }
  out += "],";

  AppendKey(&out, "counters");
  out += "{";
  for (size_t c = 0; c < kNumCounters; ++c) {
    if (c != 0) out += ",";
    AppendKey(&out, CounterName(static_cast<Counter>(c)));
    AppendU64(&out, report.metrics.counters[c]);
  }
  out += "},";

  AppendKey(&out, "gauges");
  out += "{";
  for (size_t g = 0; g < kNumGauges; ++g) {
    if (g != 0) out += ",";
    AppendKey(&out, GaugeName(static_cast<Gauge>(g)));
    AppendU64(&out, report.metrics.gauges[g]);
  }
  out += "}";

  if (report.has_driver) {
    const DriverSection& d = report.driver;
    out += ",";
    AppendKey(&out, "driver");
    out += "{";
    AppendKey(&out, "operations_executed");
    AppendU64(&out, d.operations_executed);
    out += ",";
    AppendKey(&out, "operations_failed");
    AppendU64(&out, d.operations_failed);
    out += ",";
    AppendKey(&out, "elapsed_seconds");
    AppendDouble(&out, d.elapsed_seconds);
    out += ",";
    AppendKey(&out, "ops_per_second");
    AppendDouble(&out, d.ops_per_second);
    out += ",";
    AppendKey(&out, "max_schedule_lag_ms");
    AppendDouble(&out, d.max_schedule_lag_ms);
    out += ",";
    AppendKey(&out, "dependencies_tracked");
    AppendU64(&out, d.dependencies_tracked);
    out += ",";
    AppendKey(&out, "dependent_waits");
    AppendU64(&out, d.dependent_waits);
    out += ",";
    AppendKey(&out, "lag_timeline_ms");
    out += "[";
    for (size_t i = 0; i < d.lag_timeline_ms.size(); ++i) {
      if (i != 0) out += ",";
      out += "[";
      AppendDouble(&out, d.lag_timeline_ms[i].first);
      out += ",";
      AppendDouble(&out, d.lag_timeline_ms[i].second);
      out += "]";
    }
    out += "]}";
  }

  if (report.has_compliance) {
    const ComplianceSection& c = report.compliance;
    out += ",";
    AppendKey(&out, "compliance");
    out += "{";
    AppendKey(&out, "window_ms");
    AppendDouble(&out, c.window_ms);
    out += ",";
    AppendKey(&out, "required_on_time_fraction");
    AppendDouble(&out, c.required_on_time_fraction);
    out += ",";
    AppendKey(&out, "scheduled_ops");
    AppendU64(&out, c.scheduled_ops);
    out += ",";
    AppendKey(&out, "on_time_ops");
    AppendU64(&out, c.on_time_ops);
    out += ",";
    AppendKey(&out, "on_time_fraction");
    AppendDouble(&out, c.on_time_fraction);
    out += ",";
    AppendKey(&out, "passed");
    out += c.passed ? "true" : "false";
    out += ",";
    AppendKey(&out, "lateness_histogram_ms");
    out += "[";
    for (size_t i = 0; i < c.lateness_histogram_ms.size(); ++i) {
      if (i != 0) out += ",";
      out += "[";
      AppendDouble(&out, c.lateness_histogram_ms[i].first);
      out += ",";
      AppendU64(&out, c.lateness_histogram_ms[i].second);
      out += "]";
    }
    out += "],";
    AppendKey(&out, "worst_offenders");
    out += "[";
    for (size_t i = 0; i < c.per_op.size(); ++i) {
      const ComplianceOpEntry& entry = c.per_op[i];
      if (i != 0) out += ",";
      out += "{";
      AppendKey(&out, "op");
      AppendEscaped(&out, entry.op);
      out += ",";
      AppendKey(&out, "scheduled");
      AppendU64(&out, entry.scheduled);
      out += ",";
      AppendKey(&out, "late");
      AppendU64(&out, entry.late);
      out += ",";
      AppendKey(&out, "max_late_ms");
      AppendDouble(&out, entry.max_late_ms);
      out += "}";
    }
    out += "]}";
  }

  if (report.has_q9_profile) {
    const Q9ProfileSection& q9 = report.q9_profile;
    out += ",";
    AppendKey(&out, "q9_profile");
    out += "{";
    AppendKey(&out, "plan");
    AppendEscaped(&out, q9.plan);
    out += ",";
    AppendKey(&out, "operators");
    out += "[";
    for (size_t i = 0; i < q9.operators.size(); ++i) {
      const OperatorEntry& entry = q9.operators[i];
      if (i != 0) out += ",";
      out += "{";
      AppendKey(&out, "name");
      AppendEscaped(&out, entry.name);
      out += ",";
      AppendKey(&out, "invocations");
      AppendU64(&out, entry.stats.invocations);
      out += ",";
      AppendKey(&out, "time_ms");
      AppendDouble(&out, entry.stats.TimeMs());
      out += ",";
      AppendKey(&out, "rows");
      AppendU64(&out, entry.stats.rows);
      AppendHwFields(&out, entry.stats.hw, entry.stats.hw_invocations);
      out += "}";
    }
    out += "]}";
  }

  if (report.has_validation) {
    const ValidationSection& v = report.validation;
    out += ",";
    AppendKey(&out, "validation");
    out += "{";
    AppendKey(&out, "passed");
    out += v.passed ? "true" : "false";
    out += ",";
    AppendKey(&out, "golden_path");
    AppendEscaped(&out, v.golden_path);
    out += ",";
    AppendKey(&out, "threads");
    AppendU64(&out, v.threads);
    out += ",";
    AppendKey(&out, "mode");
    AppendEscaped(&out, v.mode);
    out += ",";
    AppendKey(&out, "segments_compared");
    AppendU64(&out, v.segments_compared);
    out += ",";
    AppendKey(&out, "ops_compared");
    AppendU64(&out, v.ops_compared);
    out += ",";
    AppendKey(&out, "rows_compared");
    AppendU64(&out, v.rows_compared);
    out += ",";
    AppendKey(&out, "diffs");
    AppendU64(&out, v.diffs);
    out += ",";
    AppendKey(&out, "first_divergence");
    AppendEscaped(&out, v.first_divergence);
    out += "}";
  }

  if (report.has_provenance) {
    const ProvenanceSection& p = report.provenance;
    out += ",";
    AppendKey(&out, "provenance");
    out += "{";
    AppendKey(&out, "git_sha");
    AppendEscaped(&out, p.git_sha);
    out += ",";
    AppendKey(&out, "compiler");
    AppendEscaped(&out, p.compiler);
    out += ",";
    AppendKey(&out, "build_type");
    AppendEscaped(&out, p.build_type);
    out += ",";
    AppendKey(&out, "simd");
    out += p.simd ? "true" : "false";
    out += ",";
    AppendKey(&out, "sanitizer");
    AppendEscaped(&out, p.sanitizer);
    out += "}";
  }

  if (report.has_perf) {
    const PerfSection& p = report.perf;
    out += ",";
    AppendKey(&out, "perf");
    out += "{";
    AppendKey(&out, "backend");
    AppendEscaped(&out, p.backend);
    out += ",";
    AppendKey(&out, "counters_available");
    out += p.counters_available ? "true" : "false";
    out += ",";
    AppendKey(&out, "message");
    AppendEscaped(&out, p.message);
    out += "}";
  }

  if (!report.dossiers.empty()) {
    out += ",";
    AppendKey(&out, "dossiers");
    out += "[";
    for (size_t i = 0; i < report.dossiers.size(); ++i) {
      const SlowQueryDossier& d = report.dossiers[i];
      if (i != 0) out += ",";
      out += "{";
      AppendKey(&out, "op");
      AppendEscaped(&out, OpTypeName(d.op));
      out += ",";
      AppendKey(&out, "seq");
      AppendU64(&out, d.seq);
      out += ",";
      AppendKey(&out, "latency_ms");
      AppendDouble(&out, static_cast<double>(d.latency_ns) / 1e6);
      AppendHwFields(&out, d.hw, 1);
      out += ",";
      AppendKey(&out, "operators");
      out += "[";
      for (size_t j = 0; j < d.operators.size(); ++j) {
        const DossierOperatorRow& row = d.operators[j];
        if (j != 0) out += ",";
        out += "{";
        AppendKey(&out, "name");
        AppendEscaped(&out, row.name);
        out += ",";
        AppendKey(&out, "invocations");
        AppendU64(&out, row.invocations);
        out += ",";
        AppendKey(&out, "time_ms");
        AppendDouble(&out, static_cast<double>(row.time_ns) / 1e6);
        out += ",";
        AppendKey(&out, "rows");
        AppendU64(&out, row.rows);
        AppendHwFields(&out, row.hw, row.hw_invocations);
        out += "}";
      }
      out += "]}";
    }
    out += "]";
  }

  if (report.has_trace_stats) {
    const TraceStatsSection& t = report.trace_stats;
    out += ",";
    AppendKey(&out, "trace");
    out += "{";
    AppendKey(&out, "recorded");
    AppendU64(&out, t.recorded);
    out += ",";
    AppendKey(&out, "dropped");
    AppendU64(&out, t.dropped);
    out += ",";
    AppendKey(&out, "lanes");
    out += "[";
    for (size_t i = 0; i < t.lanes.size(); ++i) {
      const TraceStatsSection::LaneRow& lane = t.lanes[i];
      if (i != 0) out += ",";
      out += "{";
      AppendKey(&out, "lane");
      AppendU64(&out, lane.lane);
      out += ",";
      AppendKey(&out, "recorded");
      AppendU64(&out, lane.recorded);
      out += ",";
      AppendKey(&out, "retained");
      AppendU64(&out, lane.retained);
      out += ",";
      AppendKey(&out, "dropped");
      AppendU64(&out, lane.dropped);
      out += "}";
    }
    out += "]}";
  }

  if (report.has_profile) {
    const ProfileSection& p = report.profile;
    out += ",";
    AppendKey(&out, "profile");
    out += "{";
    AppendKey(&out, "backend");
    AppendEscaped(&out, p.backend);
    out += ",";
    AppendKey(&out, "message");
    AppendEscaped(&out, p.message);
    out += ",";
    AppendKey(&out, "interval_us");
    AppendU64(&out, p.interval_us);
    out += ",";
    AppendKey(&out, "captured");
    AppendU64(&out, p.captured);
    out += ",";
    AppendKey(&out, "attributed");
    AppendU64(&out, p.attributed);
    out += ",";
    AppendKey(&out, "unattributed");
    AppendU64(&out, p.unattributed);
    out += ",";
    AppendKey(&out, "dropped");
    AppendU64(&out, p.dropped);
    out += ",";
    AppendKey(&out, "self_overhead_ns");
    AppendU64(&out, p.self_overhead_ns);
    out += ",";
    AppendKey(&out, "task_clock_ns");
    AppendU64(&out, p.task_clock_ns);
    out += ",";
    AppendKey(&out, "threads");
    AppendU64(&out, p.threads);
    out += ",";
    AppendKey(&out, "top_frames");
    out += "[";
    for (size_t i = 0; i < p.top_frames.size(); ++i) {
      const ProfileSection::OpFrames& op = p.top_frames[i];
      if (i != 0) out += ",";
      out += "{";
      AppendKey(&out, "op");
      AppendEscaped(&out, op.op);
      out += ",";
      AppendKey(&out, "samples");
      AppendU64(&out, op.samples);
      out += ",";
      AppendKey(&out, "frames");
      out += "[";
      for (size_t j = 0; j < op.frames.size(); ++j) {
        if (j != 0) out += ",";
        out += "{";
        AppendKey(&out, "frame");
        AppendEscaped(&out, op.frames[j].frame);
        out += ",";
        AppendKey(&out, "samples");
        AppendU64(&out, op.frames[j].samples);
        out += "}";
      }
      out += "]}";
    }
    out += "]}";
  }

  out += "}";
  return out;
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
  if (!ParseJson(json, &root, &error)) {
    return util::Status::InvalidArgument("report is not valid JSON: " +
                                         error);
  }
  if (root.kind != JsonValue::Kind::kObject) {
    return util::Status::InvalidArgument("report root is not an object");
  }
  const JsonValue* schema = root.Find("schema");
  // Each version is a superset of its predecessors; archived v1-v4
  // reports must keep validating.
  if (schema == nullptr || schema->kind != JsonValue::Kind::kString ||
      (schema->string != "snb-report-v1" &&
       schema->string != "snb-report-v2" &&
       schema->string != "snb-report-v3" &&
       schema->string != "snb-report-v4" &&
       schema->string != "snb-report-v5")) {
    return util::Status::InvalidArgument("missing/unknown schema tag");
  }
  const JsonValue* ops = root.Find("ops");
  if (ops == nullptr || ops->kind != JsonValue::Kind::kArray) {
    return util::Status::InvalidArgument("missing \"ops\" array");
  }
  if (ops->array.empty()) {
    return util::Status::InvalidArgument("\"ops\" array is empty");
  }
  for (const JsonValue& op : ops->array) {
    if (op.kind != JsonValue::Kind::kObject) {
      return util::Status::InvalidArgument("op entry is not an object");
    }
    const JsonValue* name = op.Find("op");
    if (name == nullptr || name->kind != JsonValue::Kind::kString) {
      return util::Status::InvalidArgument("op entry lacks a name");
    }
    double count = NumberOr(op, "count", -1.0);
    if (count <= 0.0) {
      return util::Status::InvalidArgument("op " + name->string +
                                           " has no samples");
    }
    double p50 = NumberOr(op, "p50_ms", -1.0);
    double p90 = NumberOr(op, "p90_ms", -1.0);
    double p95 = NumberOr(op, "p95_ms", -1.0);
    double p99 = NumberOr(op, "p99_ms", -1.0);
    double max = NumberOr(op, "max_ms", -1.0);
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
    double scheduled = NumberOr(*compliance, "scheduled_ops", -1.0);
    double on_time = NumberOr(*compliance, "on_time_ops", -1.0);
    double fraction = NumberOr(*compliance, "on_time_fraction", -1.0);
    if (scheduled < 0.0 || on_time < 0.0 || fraction < 0.0 ||
        fraction > 1.0 + 1e-9 || on_time > scheduled + 1e-9) {
      return util::Status::InvalidArgument(
          "compliance section is inconsistent");
    }
    const JsonValue* hist = compliance->Find("lateness_histogram_ms");
    if (hist == nullptr || hist->kind != JsonValue::Kind::kArray) {
      return util::Status::InvalidArgument(
          "compliance lacks a lateness histogram");
    }
    double hist_total = 0.0;
    for (const JsonValue& row : hist->array) {
      if (row.kind != JsonValue::Kind::kArray || row.array.size() != 2) {
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
    const JsonValue* operators = q9->Find("operators");
    if (operators == nullptr ||
        operators->kind != JsonValue::Kind::kArray ||
        operators->array.empty()) {
      return util::Status::InvalidArgument(
          "q9_profile lacks a non-empty operators array");
    }
    for (const JsonValue& entry : operators->array) {
      if (NumberOr(entry, "time_ms", -1.0) < 0.0 ||
          NumberOr(entry, "invocations", -1.0) < 0.0) {
        return util::Status::InvalidArgument(
            "q9_profile operator entry lacks time/invocations");
      }
    }
  }
  const JsonValue* validation = root.Find("validation");
  if (validation != nullptr) {
    const JsonValue* passed = validation->Find("passed");
    if (passed == nullptr || passed->kind != JsonValue::Kind::kBool) {
      return util::Status::InvalidArgument(
          "validation section lacks a boolean \"passed\"");
    }
    double diffs = NumberOr(*validation, "diffs", -1.0);
    double rows = NumberOr(*validation, "rows_compared", -1.0);
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
    const JsonValue* sha = provenance->Find("git_sha");
    const JsonValue* compiler = provenance->Find("compiler");
    if (sha == nullptr || sha->kind != JsonValue::Kind::kString ||
        sha->string.empty() || compiler == nullptr ||
        compiler->kind != JsonValue::Kind::kString) {
      return util::Status::InvalidArgument(
          "provenance section lacks git_sha/compiler strings");
    }
  }
  const JsonValue* perf = root.Find("perf");
  if (perf != nullptr) {
    const JsonValue* backend = perf->Find("backend");
    if (backend == nullptr || backend->kind != JsonValue::Kind::kString ||
        (backend->string != "disabled" && backend->string != "noop" &&
         backend->string != "linux")) {
      return util::Status::InvalidArgument(
          "perf section has a missing/unknown backend");
    }
    const JsonValue* available = perf->Find("counters_available");
    if (available == nullptr ||
        available->kind != JsonValue::Kind::kBool) {
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
    if (dossiers->kind != JsonValue::Kind::kArray) {
      return util::Status::InvalidArgument("dossiers is not an array");
    }
    for (const JsonValue& d : dossiers->array) {
      const JsonValue* op = d.Find("op");
      if (op == nullptr || op->kind != JsonValue::Kind::kString) {
        return util::Status::InvalidArgument("dossier lacks an op name");
      }
      if (NumberOr(d, "latency_ms", -1.0) < 0.0) {
        return util::Status::InvalidArgument(
            "dossier " + op->string + " lacks a latency");
      }
      const JsonValue* operators = d.Find("operators");
      if (operators == nullptr ||
          operators->kind != JsonValue::Kind::kArray) {
        return util::Status::InvalidArgument(
            "dossier " + op->string + " lacks an operators array");
      }
    }
  }
  const JsonValue* trace = root.Find("trace");
  if (trace != nullptr) {
    double recorded = NumberOr(*trace, "recorded", -1.0);
    double dropped = NumberOr(*trace, "dropped", -1.0);
    if (recorded < 0.0 || dropped < 0.0 || dropped > recorded + 1e-9) {
      return util::Status::InvalidArgument(
          "trace section accounting is inconsistent");
    }
    const JsonValue* lanes = trace->Find("lanes");
    if (lanes != nullptr) {
      if (lanes->kind != JsonValue::Kind::kArray) {
        return util::Status::InvalidArgument("trace lanes is not an array");
      }
      double lane_recorded = 0.0;
      double lane_dropped = 0.0;
      for (const JsonValue& lane : lanes->array) {
        double rec = NumberOr(lane, "recorded", -1.0);
        double ret = NumberOr(lane, "retained", -1.0);
        double drop = NumberOr(lane, "dropped", -1.0);
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
    if (profile->kind != JsonValue::Kind::kObject) {
      return util::Status::InvalidArgument("profile is not an object");
    }
    const JsonValue* backend = profile->Find("backend");
    if (backend == nullptr || backend->kind != JsonValue::Kind::kString ||
        (backend->string != "disabled" && backend->string != "noop" &&
         backend->string != "timer")) {
      return util::Status::InvalidArgument(
          "profile backend is not one of disabled/noop/timer");
    }
    double captured = NumberOr(*profile, "captured", -1.0);
    double attributed = NumberOr(*profile, "attributed", -1.0);
    double unattributed = NumberOr(*profile, "unattributed", -1.0);
    double dropped = NumberOr(*profile, "dropped", -1.0);
    double overhead = NumberOr(*profile, "self_overhead_ns", -1.0);
    double task_clock = NumberOr(*profile, "task_clock_ns", -1.0);
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
      if (top_frames->kind != JsonValue::Kind::kArray) {
        return util::Status::InvalidArgument(
            "profile top_frames is not an array");
      }
      for (const JsonValue& op_row : top_frames->array) {
        const JsonValue* op = op_row.Find("op");
        if (op == nullptr || op->kind != JsonValue::Kind::kString ||
            op->string.empty()) {
          return util::Status::InvalidArgument(
              "profile top_frames row lacks an op name");
        }
        if (NumberOr(op_row, "samples", -1.0) < 0.0) {
          return util::Status::InvalidArgument(
              "profile top_frames row " + op->string + " lacks samples");
        }
        const JsonValue* frames = op_row.Find("frames");
        if (frames == nullptr || frames->kind != JsonValue::Kind::kArray) {
          return util::Status::InvalidArgument(
              "profile top_frames row " + op->string +
              " lacks a frames array");
        }
        // Every sampled stack contributes a leaf (a placeholder at
        // worst), so an op that claims samples must show frames.
        if (frames->array.empty() &&
            NumberOr(op_row, "samples", 0.0) > 0.0) {
          return util::Status::InvalidArgument(
              "profile top_frames row " + op->string +
              " has samples but no frames");
        }
        for (const JsonValue& frame : frames->array) {
          const JsonValue* name = frame.Find("frame");
          if (name == nullptr || name->kind != JsonValue::Kind::kString ||
              NumberOr(frame, "samples", -1.0) < 0.0) {
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

util::Status WriteFileReport(const std::string& path,
                             const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return util::Status::Internal("cannot open " + path + " for writing");
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  int rc = std::fclose(f);
  if (written != content.size() || rc != 0) {
    return util::Status::Internal("short write to " + path);
  }
  return util::Status::Ok();
}

}  // namespace snb::obs
