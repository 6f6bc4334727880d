#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

using snb::datagen::UpdateKind;
using snb::driver::Operation;
using snb::driver::OperationType;

// ---- Percentiles ------------------------------------------------------------

Percentile NearestRank(std::vector<uint64_t>& samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  index = std::min(index, samples.size() - 1);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  out.value = static_cast<double>(samples[index]);
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// ---- Max-acceleration search -----------------------------------------------

namespace {
/// First probes: start * kLowGuess (expected to pass) and start * kHighGuess
/// (expected to fail); the bracket widens by 2x steps when a guess is wrong.
constexpr double kLowGuess = 0.6;
constexpr double kHighGuess = 1.25;
}  // namespace

SearchResult FindMaxAccel(double start,
                          const std::function<double(double)>& probe,
                          int max_probes) {
  SearchResult result;
  auto run = [&](double accel) {
    double on_time = probe(accel);
    result.probes.push_back({accel, on_time});
    bool pass = on_time >= kOnTimeThreshold;
    if (pass && accel > result.max_accel) result.max_accel = accel;
    if (!pass && (result.lowest_failing == 0.0 ||
                  accel < result.lowest_failing)) {
      result.lowest_failing = accel;
    }
    return pass;
  };
  auto budget_left = [&] {
    return static_cast<int>(result.probes.size()) < max_probes;
  };

  // Bracket: the high guess should fail, the low one pass; widen by 2x
  // while a guess is wrong.
  double hi = start * kHighGuess;
  while (budget_left() && run(hi)) hi *= 2.0;
  double lo = start * kLowGuess;
  if (lo >= hi) lo = hi / 2.0;
  while (budget_left() && !run(lo)) lo /= 2.0;

  // Geometric bisection between the highest pass and the lowest fail.
  while (budget_left() && result.max_accel > 0.0 &&
         result.lowest_failing > 0.0 &&
         result.lowest_failing / result.max_accel > 1.0 + kSearchResolution) {
    run(std::sqrt(result.max_accel * result.lowest_failing));
  }
  result.converged =
      result.max_accel > 0.0 && result.lowest_failing > 0.0 &&
      result.lowest_failing / result.max_accel <= 1.0 + kSearchResolution;
  return result;
}

// ---- Spans ------------------------------------------------------------------

uint32_t SpanLog::Open(const char* name, uint32_t parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_ns = NowNs();
  span.end_ns = span.start_ns;
  return Add(span);
}

void SpanLog::Close(uint32_t id) { spans_[id - 1].end_ns = NowNs(); }

uint32_t SpanLog::Add(Span span) {
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(span);
  return span.id;
}

std::string SpanLog::ToChromeTraceJson() const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                  "\"parent\":%u}}",
                  i == 0 ? "" : ",", s.name, s.lane,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.duration_ns()) / 1e3, s.id,
                  s.parent);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

// ---- Timed connector --------------------------------------------------------

namespace {

std::atomic<uint64_t> g_next_generation{1};

/// The lane this thread files into, valid for one connector generation
/// (driver threads are created per replay, but a generation check keeps a
/// recycled connector address from matching a stale lane).
struct ThreadLane {
  uint64_t generation = 0;
  TimedConnector::Lane* lane = nullptr;
};
thread_local ThreadLane t_lane;

}  // namespace

TimedConnector::TimedConnector(snb::driver::Connector& inner,
                               const SpanLog& clock, bool record_spans)
    : inner_(inner),
      clock_(clock),
      record_spans_(record_spans),
      generation_(g_next_generation.fetch_add(1)) {}

TimedConnector::Lane& TimedConnector::ThisThreadLane() {
  if (t_lane.generation != generation_) {
    size_t index = next_lane_.fetch_add(1);
    if (index >= kMaxLanes) {
      std::fprintf(stderr, "perfbench: more than %zu driver lanes\n",
                   kMaxLanes);
      std::abort();
    }
    t_lane = {generation_, &lanes_[index]};
  }
  return *t_lane.lane;
}

snb::util::Status TimedConnector::Execute(const Operation& op) {
  Lane& lane = ThisThreadLane();
  Clock::time_point begin = Clock::now();
  snb::util::Status status = inner_.Execute(op);
  Clock::time_point end = Clock::now();
  auto ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
          .count());
  ++lane.ops;
  if (!status.ok()) ++lane.failed;
  lane.execute_ns += ns;
  lane.last_end_ns = clock_.ToNs(end);
  if (op.type == OperationType::kComplexRead) {
    lane.complex_ns.push_back(ns);
  } else if (op.type == OperationType::kUpdate) {
    lane.update_ns.push_back(ns);
  }
  if (record_spans_) {
    Span span;
    span.name = op.type == OperationType::kComplexRead
                    ? "connector.Execute.complex"
                : op.type == OperationType::kUpdate
                    ? "connector.Execute.update"
                    : "connector.Execute.short";
    span.lane = static_cast<uint32_t>(&lane - lanes_.data()) + 1;
    span.start_ns = clock_.ToNs(begin);
    span.end_ns = lane.last_end_ns;
    lane.spans.push_back(span);
  }
  return status;
}

size_t TimedConnector::num_lanes() const {
  return std::min(next_lane_.load(), kMaxLanes);
}

// ---- Store-count check ------------------------------------------------------

EntityCounts CountsOf(const snb::store::GraphStore& store) {
  return {store.NumPersons(),     store.NumKnowsEdges(),
          store.NumForums(),      store.NumMemberships(),
          store.NumMessages(),    store.NumLikes()};
}

EntityCounts CountsOf(const snb::schema::SocialNetwork& network) {
  return {network.persons.size(),     network.knows.size(),
          network.forums.size(),      network.memberships.size(),
          network.messages.size(),    network.likes.size()};
}

EntityCounts CountsOf(const snb::datagen::GenerationStats& stats) {
  return {stats.num_persons, stats.num_knows,       stats.num_forums,
          stats.num_memberships, stats.NumMessages(), stats.num_likes};
}

EntityCounts CountsAfter(
    const EntityCounts& bulk,
    const std::vector<snb::datagen::UpdateOperation>& updates,
    const std::vector<Operation>& replayed) {
  EntityCounts c = bulk;
  for (const Operation& op : replayed) {
    if (op.type != OperationType::kUpdate) continue;
    switch (updates.at(op.update_index).kind) {
      case UpdateKind::kAddPerson: ++c.persons; break;
      case UpdateKind::kAddFriendship: ++c.knows; break;
      case UpdateKind::kAddForum: ++c.forums; break;
      case UpdateKind::kAddForumMembership: ++c.memberships; break;
      case UpdateKind::kAddPost:
      case UpdateKind::kAddComment: ++c.messages; break;
      case UpdateKind::kAddLikePost:
      case UpdateKind::kAddLikeComment: ++c.likes; break;
    }
  }
  return c;
}

std::string CompareCounts(const EntityCounts& expected,
                          const EntityCounts& actual) {
  std::string out;
  auto check = [&](const char* what, uint64_t want, uint64_t got) {
    if (want == got) return;
    if (!out.empty()) out += ", ";
    out += std::string(what) + " " + std::to_string(got) + " != expected " +
           std::to_string(want);
  };
  check("persons", expected.persons, actual.persons);
  check("knows", expected.knows, actual.knows);
  check("forums", expected.forums, actual.forums);
  check("memberships", expected.memberships, actual.memberships);
  check("messages", expected.messages, actual.messages);
  check("likes", expected.likes, actual.likes);
  return out;
}

std::string CheckReplay(const snb::datagen::Dataset& dataset,
                        const std::vector<Operation>& intended,
                        const snb::driver::DriverReport& report,
                        const snb::obs::MetricsSnapshot& metrics,
                        const snb::store::GraphStore& store) {
  std::vector<std::string> errors;
  if (report.operations_failed > 0) {
    errors.push_back(std::to_string(report.operations_failed) +
                     " failed ops, first: " + report.first_error);
  }
  uint64_t complex = 0;
  uint64_t updates = 0;
  for (const Operation& op : intended) {
    if (op.type == OperationType::kComplexRead) ++complex;
    if (op.type == OperationType::kUpdate) ++updates;
  }
  auto count_check = [&](const char* what, uint64_t got, uint64_t want) {
    if (got != want) {
      errors.push_back(std::string(what) + " " + std::to_string(got) +
                       " != attempted " + std::to_string(want));
    }
  };
  count_check("executed ops", report.operations_executed, intended.size());
  count_check("recorded complex reads",
              metrics.CountInRange(snb::obs::kComplexBegin,
                                   snb::obs::kShortBegin),
              complex);
  count_check("recorded updates",
              metrics.CountInRange(snb::obs::kUpdateBegin,
                                   snb::obs::kUpdateBegin + 8),
              updates);
  EntityCounts actual = CountsOf(store);
  std::string diff = CompareCounts(
      CountsAfter(CountsOf(dataset.bulk), dataset.updates, intended), actual);
  if (!diff.empty()) errors.push_back("store after replay: " + diff);
  if (updates == dataset.updates.size() && updates > 0) {
    diff = CompareCounts(CountsOf(dataset.stats), actual);
    if (!diff.empty()) errors.push_back("store vs dataset stats: " + diff);
  }
  std::string out;
  for (const std::string& e : errors) out += (out.empty() ? "" : "; ") + e;
  return out;
}

}  // namespace perfbench
