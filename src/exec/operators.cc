#include "exec/operators.h"

#include <algorithm>

#include "exec/intersect.h"
#include "store/adjacency_blocks.h"

namespace snb::exec {

using store::DatedEdge;
using store::PersonRecord;

TwoHopStats ExpandTwoHopSorted(const store::GraphStore& store,
                               const store::ReadGuard& pin, uint64_t start,
                               std::vector<uint64_t>* circle,
                               obs::OperatorStats* join1_sink,
                               obs::OperatorStats* join2_sink) {
  TwoHopStats stats;
  circle->clear();
  const PersonRecord* p = store.FindPerson(pin, start);
  if (p == nullptr) return stats;

  // join1: the direct friend list, already sorted by neighbour id.
  std::vector<uint64_t> direct;
  {
    obs::TraceSpan span(join1_sink, "join1");
    store::CopyFriendIds(p->friends.view(), &direct);
    stats.direct = direct.size();
    span.AddRows(stats.direct);
  }

  // join2: per-friend difference against the direct list keeps the fresh
  // candidates small before the single dedup sort; one merge restores
  // global order.
  std::vector<uint64_t> fof;
  {
    obs::TraceSpan span(join2_sink, "join2");
    std::vector<uint64_t> ids;
    std::vector<uint64_t> fresh;
    for (uint64_t f : direct) {
      const PersonRecord* fp = store.FindPerson(pin, f);
      if (fp == nullptr) continue;
      store::CopyFriendIds(fp->friends.view(), &ids);
      stats.fof_tuples += ids.size();
      fresh.resize(ids.size());
      size_t n = DifferenceSorted(ids.data(), ids.size(), direct.data(),
                                  direct.size(), fresh.data());
      fof.insert(fof.end(), fresh.begin(), fresh.begin() + n);
    }
    std::sort(fof.begin(), fof.end());
    fof.erase(std::unique(fof.begin(), fof.end()), fof.end());
    // Friendship is symmetric, so `start` shows up as a friend-of-friend;
    // the circle excludes it (it was never in `direct`: nobody friends
    // themselves).
    auto self = std::lower_bound(fof.begin(), fof.end(), start);
    if (self != fof.end() && *self == start) fof.erase(self);
    span.AddRows(stats.fof_tuples);
  }

  circle->resize(direct.size() + fof.size());
  std::merge(direct.begin(), direct.end(), fof.begin(), fof.end(),
             circle->begin());
  return stats;
}

MessageScanOperator::MessageScanOperator(const store::GraphStore& store,
                                         const store::ReadGuard& pin,
                                         const std::vector<uint64_t>& persons,
                                         util::TimestampMs max_date_exclusive,
                                         size_t per_person_limit,
                                         obs::OperatorStats* stats)
    : store_(store),
      pin_(pin),
      persons_(persons),
      max_date_exclusive_(max_date_exclusive),
      per_person_limit_(per_person_limit),
      stats_(stats) {}

bool MessageScanOperator::OpenNextPerson() {
  while (person_idx_ < persons_.size()) {
    uint64_t pid = persons_[person_idx_++];
    const PersonRecord* p = store_.FindPerson(pin_, pid);
    if (p == nullptr) continue;
    auto view = p->messages.view();
    // First index with date >= max_date_exclusive; the index is
    // date-ascending with dates inline, so the cut touches no records.
    auto it = std::partition_point(
        view.begin(), view.end(),
        [this](const DatedEdge& e) { return e.date < max_date_exclusive_; });
    size_t upper = static_cast<size_t>(it - view.begin());
    size_t take = std::min(upper, per_person_limit_);
    if (take == 0) continue;
    edges_ = view.data();
    pos_ = upper - take;
    end_ = upper;
    current_person_ = pid;
    return true;
  }
  return false;
}

bool MessageScanOperator::Next(Batch* out) {
  obs::TraceSpan span(stats_, "message_scan");
  out->clear();
  while (out->size < kBatchCapacity) {
    if (pos_ == end_ && !OpenNextPerson()) break;
    size_t n = std::min(kBatchCapacity - out->size, end_ - pos_);
    for (size_t i = 0; i < n; ++i) {
      const DatedEdge& e = edges_[pos_ + i];
      out->a[out->size + i] = e.id;
      out->b[out->size + i] = current_person_;
      out->date[out->size + i] = e.date;
    }
    pos_ += n;
    out->size += n;
  }
  rows_emitted_ += out->size;
  span.AddRows(out->size);
  return out->size > 0;
}

}  // namespace snb::exec
