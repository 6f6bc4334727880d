#include "driver/connectors.h"

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "driver/shard_writers.h"
#include "queries/complex_queries.h"
#include "queries/query9_plans.h"
#include "queries/short_queries.h"
#include "queries/update_queries.h"
#include "util/stopwatch.h"
#include "util/rng.h"

namespace snb::driver {

using queries::GraphStore;
using util::RandomPurpose;
using util::Rng;
using util::Status;
using util::Stopwatch;

namespace {

// Busy-waits for the configured dispatch overhead (sleep granularity is too
// coarse for tens of microseconds).
void SpinFor(int64_t micros) {
  if (micros <= 0) return;
  auto until = std::chrono::steady_clock::now() +
               std::chrono::microseconds(micros);
  while (std::chrono::steady_clock::now() < until) {
  }
}

}  // namespace

StoreConnector::StoreConnector(
    store::GraphStore* store,
    const std::vector<datagen::UpdateOperation>* updates,
    const schema::Dictionaries* dictionaries,
    obs::MetricsRegistry* metrics, ShortReadWalkConfig walk,
    int64_t dispatch_overhead_us, obs::TraceBuffer* trace,
    obs::DossierCollector* dossiers)
    : store_(store),
      updates_(updates),
      dict_(dictionaries),
      metrics_(metrics),
      walk_(walk),
      dispatch_overhead_us_(dispatch_overhead_us),
      trace_(trace),
      dossiers_(dossiers) {
  for (const schema::City& c : dict_->cities()) {
    city_country_.push_back(c.country_id);
  }
  for (const schema::Company& c : dict_->companies()) {
    company_country_.push_back(c.country_id);
  }
  tag_in_class_.assign(dict_->tag_classes().size(),
                       std::vector<bool>(dict_->tags().size(), false));
  for (size_t t = 0; t < dict_->tags().size(); ++t) {
    tag_in_class_[dict_->tags()[t].tag_class_id][t] = true;
  }
}

Status StoreConnector::Execute(const Operation& op) {
  // In epoch mode, pin once for the whole operation: the guards taken
  // inside each query then nest for free (a thread-local counter bump
  // instead of an epoch publish), and the short-read walk spawned by a
  // complex read runs under a single pin. Never wrap reads in a shared
  // lock here — a nested shared_lock would deadlock against a waiting
  // writer in kGlobalLock mode.
  std::optional<store::ShardSnapshot> outer_pin;
  if (op.type != OperationType::kUpdate &&
      store_->read_concurrency() == store::ReadConcurrency::kEpoch) {
    outer_pin = store_->PinShards();
  }
  switch (op.type) {
    case OperationType::kComplexRead:
      return ExecuteComplex(op);
    case OperationType::kShortRead:
      return ExecuteShort(op.query_id, op.person_param,
                          static_cast<schema::MessageId>(op.aux0));
    case OperationType::kUpdate:
      return ExecuteUpdate(op);
  }
  return Status::InvalidArgument("unknown operation type");
}

Status StoreConnector::ExecuteComplex(const Operation& op) {
  Stopwatch watch;
  obs::perf::ScopedHwCounts hw_scope;
  SpinFor(dispatch_overhead_us_);
  std::vector<schema::PersonId> result_persons;
  std::vector<schema::MessageId> result_messages;
  // Filled for Q9 when dossiers are armed: the tail-attribution pass needs
  // the per-operator breakdown of the serving plan.
  std::optional<queries::Q9OperatorProfile> q9_profile;
  switch (op.query_id) {
    case 1: {
      auto rows = queries::Query1(*store_, op.person_param,
                                  dict_->FirstName(op.aux0));
      for (const auto& r : rows) result_persons.push_back(r.person_id);
      break;
    }
    case 2: {
      auto rows = queries::Query2(*store_, op.person_param,
                                  static_cast<util::TimestampMs>(op.aux0));
      for (const auto& r : rows) {
        result_persons.push_back(r.creator_id);
        result_messages.push_back(r.message_id);
      }
      break;
    }
    case 3: {
      auto rows = queries::Query3(
          *store_, op.person_param, city_country_,
          static_cast<schema::PlaceId>(op.aux0 & 0xff),
          static_cast<schema::PlaceId>((op.aux0 >> 8) & 0xff),
          static_cast<util::TimestampMs>(op.aux1), 30);
      for (const auto& r : rows) result_persons.push_back(r.person_id);
      break;
    }
    case 4: {
      queries::Query4(*store_, op.person_param,
                      static_cast<util::TimestampMs>(op.aux0),
                      static_cast<int>(op.aux1));
      break;
    }
    case 5: {
      queries::Query5(*store_, op.person_param,
                      static_cast<util::TimestampMs>(op.aux0));
      break;
    }
    case 6: {
      queries::Query6(*store_, op.person_param,
                      static_cast<schema::TagId>(op.aux0));
      break;
    }
    case 7: {
      auto rows = queries::Query7(*store_, op.person_param);
      for (const auto& r : rows) {
        result_persons.push_back(r.liker_id);
        result_messages.push_back(r.message_id);
      }
      break;
    }
    case 8: {
      auto rows = queries::Query8(*store_, op.person_param);
      for (const auto& r : rows) {
        result_persons.push_back(r.replier_id);
        result_messages.push_back(r.comment_id);
      }
      break;
    }
    case 9: {
      auto max_date = static_cast<util::TimestampMs>(op.aux0);
      // Dossiers time the serving plan itself: the profile only adds
      // operator spans around the code an unprofiled run executes.
      if (dossiers_ != nullptr) q9_profile.emplace();
      std::vector<queries::Q9Result> rows = queries::Query9(
          *store_, op.person_param, max_date, 20, nullptr,
          q9_profile ? &*q9_profile : nullptr);
      for (const auto& r : rows) {
        result_persons.push_back(r.creator_id);
        result_messages.push_back(r.message_id);
      }
      break;
    }
    case 10: {
      auto rows = queries::Query10(*store_, op.person_param,
                                   static_cast<int>(op.aux0));
      for (const auto& r : rows) result_persons.push_back(r.person_id);
      break;
    }
    case 11: {
      auto rows = queries::Query11(
          *store_, op.person_param, company_country_,
          static_cast<schema::PlaceId>(op.aux0),
          static_cast<uint16_t>(op.aux1));
      for (const auto& r : rows) result_persons.push_back(r.person_id);
      break;
    }
    case 12: {
      auto rows = queries::Query12(
          *store_, op.person_param,
          tag_in_class_[op.aux0 % tag_in_class_.size()]);
      for (const auto& r : rows) result_persons.push_back(r.person_id);
      break;
    }
    case 13: {
      queries::Query13(*store_, op.person_param, op.person_param2);
      break;
    }
    case 14: {
      queries::Query14(*store_, op.person_param, op.person_param2);
      break;
    }
    default:
      return Status::InvalidArgument("complex query id out of range");
  }
  uint64_t latency_ns = watch.ElapsedNanos();
  obs::perf::HwCounts hw = hw_scope.Delta();
  if (metrics_ != nullptr) {
    metrics_->RecordLatencyNs(obs::ComplexOp(op.query_id), latency_ns);
    metrics_->RecordHwCounts(obs::ComplexOp(op.query_id), hw);
  }
  std::vector<obs::DossierOperatorRow> operators;
  if (q9_profile.has_value()) {
    for (auto& [name, stats] : queries::ProfileRows(*q9_profile)) {
      obs::DossierOperatorRow row;
      row.name = name;
      row.invocations = stats.invocations;
      row.time_ns = stats.time_ns;
      row.rows = stats.rows;
      row.hw = stats.hw;
      row.hw_invocations = stats.hw_invocations;
      operators.push_back(std::move(row));
    }
  }
  OfferDossier(obs::ComplexOp(op.query_id), latency_ns, hw,
               std::move(operators));
  RunShortReadWalk(op, result_persons, result_messages);
  return Status::Ok();
}

Status StoreConnector::ExecuteShort(uint8_t query_id,
                                    schema::PersonId person,
                                    schema::MessageId message) {
  // Trace the short read even when it was walk-spawned: the sub-span nests
  // inside the driver-recorded complex-read span on the same lane.
  obs::TraceEvent event;
  if (trace_ != nullptr) {
    event.op = obs::ShortOp(query_id);
    event.exec_begin_ns = trace_->NowNs();
  }
  Stopwatch watch;
  obs::perf::ScopedHwCounts hw_scope;
  SpinFor(dispatch_overhead_us_);
  switch (query_id) {
    case 1:
      queries::ShortQuery1PersonProfile(*store_, person);
      break;
    case 2:
      queries::ShortQuery2RecentMessages(*store_, person);
      break;
    case 3:
      queries::ShortQuery3Friends(*store_, person);
      break;
    case 4:
      queries::ShortQuery4MessageContent(*store_, message);
      break;
    case 5:
      queries::ShortQuery5MessageCreator(*store_, message);
      break;
    case 6:
      queries::ShortQuery6MessageForum(*store_, message);
      break;
    case 7:
      queries::ShortQuery7MessageReplies(*store_, message);
      break;
    default:
      return Status::InvalidArgument("short query id out of range");
  }
  uint64_t latency_ns = watch.ElapsedNanos();
  obs::perf::HwCounts hw = hw_scope.Delta();
  if (metrics_ != nullptr) {
    metrics_->RecordLatencyNs(obs::ShortOp(query_id), latency_ns);
    metrics_->RecordHwCounts(obs::ShortOp(query_id), hw);
  }
  if (trace_ != nullptr) {
    event.end_ns = trace_->NowNs();
    event.hw = hw;
    trace_->Record(event);
  }
  OfferDossier(obs::ShortOp(query_id), latency_ns, hw, {});
  short_reads_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status StoreConnector::ExecuteUpdate(const Operation& op) {
  if (op.update_index >= updates_->size()) {
    return Status::OutOfRange("update index");
  }
  const datagen::UpdateOperation& update = (*updates_)[op.update_index];
  Stopwatch watch;
  obs::perf::ScopedHwCounts hw_scope;
  SpinFor(dispatch_overhead_us_);
  Status status;
  if (pool_ != nullptr) {
    // The dependency services release on submission; the pool's
    // cross-shard creation watermark confirms the dependency actually
    // applied on every shard it touched before this update is routed.
    if (update.dependency_time > 0) {
      pool_->WaitCompletedThrough(update.dependency_time);
    }
    status = pool_->Submit(update);
  } else {
    status = queries::ApplyUpdate(*store_, update);
  }
  uint64_t latency_ns = watch.ElapsedNanos();
  obs::perf::HwCounts hw = hw_scope.Delta();
  obs::OpType op_type = obs::UpdateOp(static_cast<int>(update.kind));
  if (metrics_ != nullptr) {
    metrics_->RecordLatencyNs(op_type, latency_ns);
    metrics_->RecordHwCounts(op_type, hw);
  }
  OfferDossier(op_type, latency_ns, hw, {});
  return status;
}

void StoreConnector::OfferDossier(
    obs::OpType op, uint64_t latency_ns, const obs::perf::HwCounts& hw,
    std::vector<obs::DossierOperatorRow> operators) {
  if (dossiers_ == nullptr) return;
  uint64_t seq = op_seq_.fetch_add(1, std::memory_order_relaxed);
  if (!dossiers_->WouldKeep(op, latency_ns)) return;
  obs::SlowQueryDossier d;
  d.op = op;
  d.seq = seq;
  d.latency_ns = latency_ns;
  d.hw = hw;
  d.operators = std::move(operators);
  dossiers_->Offer(std::move(d));
}

void StoreConnector::RunShortReadWalk(
    const Operation& op, const std::vector<schema::PersonId>& persons,
    const std::vector<schema::MessageId>& messages) {
  Rng rng(0x5a1cedULL, op.due_time ^ (static_cast<uint64_t>(op.query_id) << 56),
          RandomPurpose::kShortReadWalk);
  double p = walk_.initial_probability;
  // Current walk position: alternate between profile-centric and
  // post-centric lookups, as described in section 4 ("Profile lookup
  // provides an input for Post lookup, and vice versa").
  std::vector<schema::PersonId> cur_persons = persons;
  std::vector<schema::MessageId> cur_messages = messages;
  uint64_t steps = 0;
  while (p > 0.0 && rng.NextBool(p)) {
    bool use_person = !cur_persons.empty() &&
                      (cur_messages.empty() || rng.NextBool(0.5));
    if (!use_person && cur_messages.empty()) break;
    if (use_person) {
      schema::PersonId person =
          cur_persons[rng.NextBounded(cur_persons.size())];
      uint8_t qid = static_cast<uint8_t>(1 + rng.NextBounded(3));  // S1-S3.
      ExecuteShort(qid, person, schema::kInvalidId);
      // Profile lookups surface the person's messages for the next step.
      auto recent = queries::ShortQuery2RecentMessages(*store_, person, 5);
      cur_messages.clear();
      for (const auto& r : recent) cur_messages.push_back(r.message_id);
    } else {
      schema::MessageId message =
          cur_messages[rng.NextBounded(cur_messages.size())];
      uint8_t qid = static_cast<uint8_t>(4 + rng.NextBounded(4));  // S4-S7.
      ExecuteShort(qid, schema::kInvalidId, message);
      // Post lookups surface the creator for the next step.
      auto creator = queries::ShortQuery5MessageCreator(*store_, message);
      cur_persons.clear();
      if (creator.found) cur_persons.push_back(creator.creator_id);
    }
    ++steps;
    p -= walk_.decay;
  }
  // One batched counter update per walk, not one RMW per step.
  if (metrics_ != nullptr && steps > 0) {
    metrics_->AddCounter(obs::Counter::kShortReadWalkSteps, steps);
  }
}

void PublishStoreMetrics(const store::GraphStore& store,
                         obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  util::EpochManager::EpochStats epoch = store.AggregateEpochStats();
  metrics->SetGauge(obs::Gauge::kEpochAdvances, epoch.advances);
  metrics->SetGauge(obs::Gauge::kEpochRetired, epoch.retired);
  metrics->SetGauge(obs::Gauge::kEpochFreed, epoch.freed);
  metrics->SetGauge(obs::Gauge::kEpochPending, epoch.pending);
  store::GraphStore::TableOccupancy persons = store.PersonTableStats();
  metrics->SetGauge(obs::Gauge::kPersonSlotsUsed, persons.used);
  metrics->SetGauge(obs::Gauge::kPersonSlotsAllocated,
                    persons.allocated_slots);
  store::GraphStore::TableOccupancy forums = store.ForumTableStats();
  metrics->SetGauge(obs::Gauge::kForumSlotsUsed, forums.used);
  metrics->SetGauge(obs::Gauge::kForumSlotsAllocated,
                    forums.allocated_slots);
  store::GraphStore::TableOccupancy messages = store.MessageTableStats();
  metrics->SetGauge(obs::Gauge::kMessageSlotsUsed, messages.used);
  metrics->SetGauge(obs::Gauge::kMessageSlotsAllocated,
                    messages.allocated_slots);
}

Status SleepingConnector::Execute(const Operation& /*op*/) {
  if (sleep_micros_ > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_micros_));
  }
  executed_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

}  // namespace snb::driver
