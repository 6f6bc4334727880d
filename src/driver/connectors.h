// Database connectors: how the driver talks to a System Under Test.
#ifndef SNB_DRIVER_CONNECTORS_H_
#define SNB_DRIVER_CONNECTORS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "datagen/datagen.h"
#include "driver/operation.h"
#include "obs/dossier.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace_buffer.h"
#include "schema/dictionaries.h"
#include "store/graph_store.h"
#include "util/status.h"

namespace snb::driver {

class ShardWriterPool;

/// Abstract SUT connection. Execute() must be thread-safe.
class Connector {
 public:
  virtual ~Connector() = default;
  /// Runs one operation; a non-OK status on an update indicates a
  /// dependency violation (driver bug) or SUT failure.
  virtual util::Status Execute(const Operation& op) = 0;
};

/// Configuration of the short-read random walk (paper section 4):
/// after every complex read, with probability P a short read runs on an
/// entity from the previous result; P decreases by `decay` at each step.
struct ShortReadWalkConfig {
  double initial_probability = 0.5;
  double decay = 0.08;
};

/// Connector executing the workload against the in-process GraphStore.
/// Complex-read results seed the short-read random walk; every executed
/// query records its latency under the matching obs::OpType
/// (complex.Q<i>, short.S<i>, update.U<i>).
class StoreConnector : public Connector {
 public:
  /// `store` must outlive the connector. `updates` is the pre-generated
  /// update stream referenced by Operation::update_index. `dictionaries`
  /// resolves names/countries/tag classes for read parameters. `metrics`
  /// may be null — execution then records nothing.
  /// `dispatch_overhead_us` emulates the per-operation client-server
  /// round-trip of the paper's setups (0 = in-process, no overhead). It is
  /// added to every executed query/update before latency recording.
  /// `trace` may be null; when set, every short read executed here (in
  /// particular the walk-spawned ones the driver never sees) records a
  /// trace span, nesting inside the seeding complex read's span.
  /// `dossiers` may be null; when set, every executed operation is offered
  /// to the collector with its whole-op hardware-counter delta, and Q9
  /// runs with an operator profile attached so tail dossiers carry a
  /// per-operator breakdown of the same serving plan.
  StoreConnector(store::GraphStore* store,
                 const std::vector<datagen::UpdateOperation>* updates,
                 const schema::Dictionaries* dictionaries,
                 obs::MetricsRegistry* metrics,
                 ShortReadWalkConfig walk = ShortReadWalkConfig(),
                 int64_t dispatch_overhead_us = 0,
                 obs::TraceBuffer* trace = nullptr,
                 obs::DossierCollector* dossiers = nullptr);

  util::Status Execute(const Operation& op) override;

  /// Optional asynchronous update path. When set, ExecuteUpdate routes
  /// the operation to the pool — which splits it into per-shard halves on
  /// the owning shards' SPSC queues — instead of applying it inline.
  /// Before routing a dependent update, the connector honors the pool's
  /// cross-shard creation watermark (WaitCompletedThrough on the
  /// operation's dependency time): the driver's dependency services track
  /// submission, the pool's watermark confirms application on every shard
  /// the dependency touched. Application errors surface on the pool's
  /// Drain(), which the run owner must call after the driver finishes.
  /// The pool must outlive the connector and wrap the same store.
  void set_shard_writer_pool(ShardWriterPool* pool) { pool_ = pool; }

  /// Number of short reads spawned by the random walk so far.
  uint64_t short_reads_executed() const {
    return short_reads_.load(std::memory_order_relaxed);
  }

 private:
  util::Status ExecuteComplex(const Operation& op);
  util::Status ExecuteShort(uint8_t query_id, schema::PersonId person,
                            schema::MessageId message);
  util::Status ExecuteUpdate(const Operation& op);

  /// Runs the decaying random walk of short reads seeded by a complex
  /// query's result entities.
  void RunShortReadWalk(const Operation& op,
                        const std::vector<schema::PersonId>& persons,
                        const std::vector<schema::MessageId>& messages);

  /// Offers one executed operation to the dossier collector (no-op when
  /// collection is off or the instance is not a tail candidate).
  void OfferDossier(obs::OpType op, uint64_t latency_ns,
                    const obs::perf::HwCounts& hw,
                    std::vector<obs::DossierOperatorRow> operators);

  store::GraphStore* store_;
  ShardWriterPool* pool_ = nullptr;
  const std::vector<datagen::UpdateOperation>* updates_;
  const schema::Dictionaries* dict_;
  obs::MetricsRegistry* metrics_;
  ShortReadWalkConfig walk_;
  int64_t dispatch_overhead_us_ = 0;
  obs::TraceBuffer* trace_ = nullptr;
  obs::DossierCollector* dossiers_ = nullptr;
  /// Operation sequence numbers for dossier identification.
  std::atomic<uint64_t> op_seq_{0};
  std::vector<schema::PlaceId> city_country_;
  std::vector<schema::PlaceId> company_country_;
  /// tag_in_class_[c][t]: tag t belongs to tag class c.
  std::vector<std::vector<bool>> tag_in_class_;
  std::atomic<uint64_t> short_reads_{0};
};

/// Dummy connector that sleeps for a configured duration instead of talking
/// to a database — the paper's driver-scalability instrument (Table 5).
class SleepingConnector : public Connector {
 public:
  explicit SleepingConnector(int64_t sleep_micros)
      : sleep_micros_(sleep_micros) {}

  util::Status Execute(const Operation& op) override;

  uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  int64_t sleep_micros_;
  std::atomic<uint64_t> executed_{0};
};

/// Publishes the store's structural gauges — epoch-reclamation stats and
/// per-entity DenseTable occupancy — into the registry. Call at snapshot
/// points (end of run, bench report time); no-op when `metrics` is null.
void PublishStoreMetrics(const store::GraphStore& store,
                         obs::MetricsRegistry* metrics);

}  // namespace snb::driver

#endif  // SNB_DRIVER_CONNECTORS_H_
