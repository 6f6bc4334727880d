// Measurement logic of the repository benchmark, kept apart from its
// main() so the self-tests (selftest.cc) can exercise it:
//
//  * nearest-rank percentiles that carry their sample count;
//  * the max-acceleration search against the LDBC on-time rule;
//  * benchmark-side spans (name, lane, start, end, parent), kept in memory
//    and written out once as Chrome-trace JSON;
//  * TimedConnector, which times every Connector::Execute from outside the
//    library and files the durations per driver lane;
//  * the store-count part of the output check.
//
// Nothing here reaches into the library's internals: it only calls public
// entry points and reads public accessors.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "driver/connectors.h"
#include "driver/driver.h"
#include "driver/operation.h"
#include "obs/metrics.h"
#include "store/graph_store.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// ---- Percentiles ------------------------------------------------------------

/// A percentile together with the number of samples it was taken over.
struct Percentile {
  double value = 0.0;
  uint64_t samples = 0;
};

/// Nearest-rank percentile (p in (0, 100]) of `samples`, which is
/// reordered. An empty input gives {0, 0}.
Percentile NearestRank(std::vector<uint64_t>& samples, double p);

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double Median(std::vector<double> values);

// ---- Max-acceleration search -----------------------------------------------

/// LDBC rule: a run is valid when this share of operations is on time.
constexpr double kOnTimeThreshold = 0.95;
/// The search stops once highest-pass / lowest-fail is within this step.
constexpr double kSearchResolution = 0.03;
/// Probes one search may spend.
constexpr int kMaxProbes = 12;

struct SearchProbe {
  double acceleration = 0.0;
  double on_time_fraction = 0.0;
};

struct SearchResult {
  /// Highest probed factor that met the threshold; 0 when none did.
  double max_accel = 0.0;
  /// Lowest probed factor that missed it; 0 when none did.
  double lowest_failing = 0.0;
  /// True when both ends were found and are within kSearchResolution.
  bool converged = false;
  std::vector<SearchProbe> probes;
};

/// Geometric bracket-and-bisect search for the highest factor whose probe
/// reports an on-time fraction >= kOnTimeThreshold. The bracket is centred
/// on `start` (derived from measured throughput). `probe` runs one
/// throttled replay at the given factor and returns its on-time fraction;
/// it is called at most `max_probes` times.
SearchResult FindMaxAccel(double start,
                          const std::function<double(double)>& probe,
                          int max_probes = kMaxProbes);

// ---- Spans ------------------------------------------------------------------

/// One timed interval. Times are nanoseconds since the SpanLog origin;
/// lane 0 is the benchmark's main thread, lanes 1.. are driver threads in
/// the order they first called Execute. `parent` is the id of the span
/// that caused this one (0 for the root).
struct Span {
  const char* name = "";
  uint32_t id = 0;
  uint32_t parent = 0;
  uint32_t lane = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span store. Not thread-safe: driver lanes buffer their spans
/// in TimedConnector and hand them over after the replay joined.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  int64_t NowNs() const { return ToNs(Clock::now()); }
  int64_t ToNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  /// Opens a span on the main lane; returns its id for Close().
  uint32_t Open(const char* name, uint32_t parent);
  void Close(uint32_t id);
  /// Appends a finished span, assigning its id.
  uint32_t Add(Span span);

  const std::vector<Span>& spans() const { return spans_; }
  /// Chrome-trace ("traceEvents") rendering with the parent id in args.
  std::string ToChromeTraceJson() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a main-lane span for the enclosing scope; a null log disables it.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint32_t parent)
      : log_(log), id_(log == nullptr ? 0 : log->Open(name, parent)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint32_t id_;
};

// ---- Timed connector --------------------------------------------------------

/// Decorates a Connector: times every Execute (for a complex read that
/// includes the short-read walk the inner connector runs) and files the
/// duration under the calling driver thread's lane.
class TimedConnector final : public snb::driver::Connector {
 public:
  static constexpr size_t kMaxLanes = 64;

  struct alignas(64) Lane {
    uint64_t ops = 0;
    uint64_t failed = 0;
    uint64_t execute_ns = 0;
    /// Span-clock time the lane's last Execute returned.
    int64_t last_end_ns = 0;
    std::vector<uint64_t> complex_ns;
    std::vector<uint64_t> update_ns;
    /// Filled only when span recording is on (parent left 0).
    std::vector<Span> spans;
  };

  /// `inner` and `clock` must outlive this object. With `record_spans`
  /// every Execute also leaves a Span.
  TimedConnector(snb::driver::Connector& inner, const SpanLog& clock,
                 bool record_spans);
  TimedConnector(const TimedConnector&) = delete;
  TimedConnector& operator=(const TimedConnector&) = delete;

  snb::util::Status Execute(const snb::driver::Operation& op) override;

  /// Lanes that executed at least one operation. Read after the driver
  /// joined its threads.
  size_t num_lanes() const;
  const Lane& lane(size_t i) const { return lanes_[i]; }

 private:
  Lane& ThisThreadLane();

  snb::driver::Connector& inner_;
  const SpanLog& clock_;
  const bool record_spans_;
  const uint64_t generation_;
  std::atomic<size_t> next_lane_{0};
  std::array<Lane, kMaxLanes> lanes_;
};

// ---- Store-count check ------------------------------------------------------

/// Entity counts the output check compares.
struct EntityCounts {
  uint64_t persons = 0;
  uint64_t knows = 0;
  uint64_t forums = 0;
  uint64_t memberships = 0;
  uint64_t messages = 0;
  uint64_t likes = 0;
};

EntityCounts CountsOf(const snb::store::GraphStore& store);
EntityCounts CountsOf(const snb::schema::SocialNetwork& network);
/// Counts of the full generated network (bulk + every update).
EntityCounts CountsOf(const snb::datagen::GenerationStats& stats);
/// `bulk` plus what each update in `replayed` creates.
EntityCounts CountsAfter(
    const EntityCounts& bulk,
    const std::vector<snb::datagen::UpdateOperation>& updates,
    const std::vector<snb::driver::Operation>& replayed);
/// Empty when equal; otherwise names every differing count.
std::string CompareCounts(const EntityCounts& expected,
                          const EntityCounts& actual);

/// The output check after one replay of `intended` (a prefix of the
/// workload schedule) into a store freshly bulk-loaded from
/// `dataset.bulk`. Empty when it passes; otherwise says what failed:
///  * a failed op, or executed / recorded counts that differ from the
///    number of ops attempted;
///  * store entity counts that differ from the bulk load plus the updates
///    in `intended`, or — when `intended` holds every update of the
///    stream — from `dataset.stats`.
std::string CheckReplay(const snb::datagen::Dataset& dataset,
                        const std::vector<snb::driver::Operation>& intended,
                        const snb::driver::DriverReport& report,
                        const snb::obs::MetricsSnapshot& metrics,
                        const snb::store::GraphStore& store);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
