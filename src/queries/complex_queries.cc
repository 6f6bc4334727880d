#include "queries/complex_queries.h"

#include <algorithm>
#include <ctime>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "exec/batch.h"
#include "exec/hash_join.h"
#include "exec/intersect.h"
#include "exec/operators.h"
#include "obs/trace.h"
#include "queries/query9_plans.h"
#include "store/adjacency_blocks.h"

namespace snb::queries {
namespace {

using schema::MessageId;
using schema::MessageKind;
using schema::PersonId;
using store::DatedEdge;
using store::FriendEdge;
using store::MessageRecord;
using store::PersonRecord;

using MessageEdges = util::RcuVector<DatedEdge>::View;

std::vector<PersonId> FriendIdsLocked(const GraphStore& store,
                                      const store::ShardSnapshot& pin,
                                      PersonId start) {
  std::vector<PersonId> out;
  const PersonRecord* p = store.FindPerson(pin, start);
  if (p == nullptr) return out;
  auto friends = p->friends.view();
  out.reserve(friends.size());
  for (const FriendEdge& e : friends) out.push_back(e.other);
  return out;  // friends are sorted by id already.
}

std::vector<PersonId> TwoHopCircleLocked(const GraphStore& store,
                                         const store::ShardSnapshot& pin,
                                         PersonId start) {
  std::vector<PersonId> out;
  const PersonRecord* p = store.FindPerson(pin, start);
  if (p == nullptr) return out;
  std::unordered_set<PersonId> seen;
  seen.insert(start);
  for (const FriendEdge& e : p->friends.view()) {
    if (seen.insert(e.other).second) out.push_back(e.other);
  }
  size_t direct = out.size();
  for (size_t i = 0; i < direct; ++i) {
    const PersonRecord* f = store.FindPerson(pin, out[i]);
    if (f == nullptr) continue;
    for (const FriendEdge& e : f->friends.view()) {
      if (seen.insert(e.other).second) out.push_back(e.other);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Index of the first created-message edge with creation date > max_date.
/// Dates ride inline in the adjacency entry (ascending), so the binary
/// search touches no message records.
size_t UpperBoundByDate(const MessageEdges& messages, TimestampMs max_date) {
  auto it = std::partition_point(
      messages.begin(), messages.end(),
      [&](const DatedEdge& e) { return e.date <= max_date; });
  return static_cast<size_t>(it - messages.begin());
}

/// Index of the first created-message edge with creation date >= min_date.
size_t LowerBoundByDate(const MessageEdges& messages, TimestampMs min_date) {
  auto it = std::partition_point(
      messages.begin(), messages.end(),
      [&](const DatedEdge& e) { return e.date < min_date; });
  return static_cast<size_t>(it - messages.begin());
}

/// Month (1-12) and day (1-31) of a timestamp, UTC.
void MonthDayOf(TimestampMs ts, int* month, int* day) {
  std::time_t secs = static_cast<std::time_t>(ts / util::kMillisPerSecond);
  std::tm tm_utc{};
  gmtime_r(&secs, &tm_utc);
  *month = tm_utc.tm_mon + 1;
  *day = tm_utc.tm_mday;
}

}  // namespace

std::vector<PersonId> FriendIds(const GraphStore& store, PersonId start) {
  auto pin = store.ReadLock();
  return FriendIdsLocked(store, pin, start);
}

std::vector<PersonId> TwoHopCircle(const GraphStore& store, PersonId start) {
  auto pin = store.ReadLock();
  return TwoHopCircleLocked(store, pin, start);
}

// ---- Q1 -----------------------------------------------------------------------

std::vector<Q1Result> Query1(const GraphStore& store, PersonId start,
                             const std::string& first_name, int limit) {
  auto pin = store.ReadLock();
  std::vector<Q1Result> results;
  const PersonRecord* root = store.FindPerson(pin, start);
  if (root == nullptr) return results;

  // 3-level BFS collecting name matches.
  std::unordered_set<PersonId> visited;
  visited.insert(start);
  std::vector<PersonId> frontier = {start};
  for (uint32_t distance = 1; distance <= 3 && !frontier.empty();
       ++distance) {
    std::vector<PersonId> next;
    for (PersonId pid : frontier) {
      const PersonRecord* p = store.FindPerson(pin, pid);
      if (p == nullptr) continue;
      for (const FriendEdge& e : p->friends.view()) {
        if (!visited.insert(e.other).second) continue;
        next.push_back(e.other);
        const PersonRecord* candidate = store.FindPerson(pin, e.other);
        if (candidate != nullptr &&
            candidate->data.first_name == first_name) {
          Q1Result r;
          r.person_id = e.other;
          r.distance = distance;
          r.last_name = candidate->data.last_name;
          r.city_id = candidate->data.city_id;
          r.university_id = candidate->data.university_id;
          r.company_id = candidate->data.company_id;
          results.push_back(std::move(r));
        }
      }
    }
    frontier = std::move(next);
  }
  std::sort(results.begin(), results.end(),
            [](const Q1Result& a, const Q1Result& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              if (a.last_name != b.last_name) return a.last_name < b.last_name;
              return a.person_id < b.person_id;
            });
  if (static_cast<int>(results.size()) > limit) results.resize(limit);
  return results;
}

// ---- Q2 -----------------------------------------------------------------------

std::vector<Q2Result> Query2(const GraphStore& store, PersonId start,
                             TimestampMs max_date, int limit) {
  auto pin = store.ReadLock();
  std::vector<Q2Result> candidates;
  for (PersonId fid : FriendIdsLocked(store, pin, start)) {
    const PersonRecord* f = store.FindPerson(pin, fid);
    if (f == nullptr) continue;
    auto messages = f->messages.view();
    size_t upper = UpperBoundByDate(messages, max_date);
    size_t take = std::min<size_t>(upper, static_cast<size_t>(limit));
    for (size_t i = upper - take; i < upper; ++i) {
      candidates.push_back({messages[i].id, fid, messages[i].date});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Q2Result& a, const Q2Result& b) {
              if (a.creation_date != b.creation_date) {
                return a.creation_date > b.creation_date;
              }
              return a.message_id < b.message_id;
            });
  if (static_cast<int>(candidates.size()) > limit) candidates.resize(limit);
  return candidates;
}

// ---- Q3 -----------------------------------------------------------------------

std::vector<Q3Result> Query3(const GraphStore& store, PersonId start,
                             const std::vector<schema::PlaceId>& city_country,
                             schema::PlaceId country_x,
                             schema::PlaceId country_y,
                             TimestampMs start_date, int duration_days,
                             int limit) {
  auto pin = store.ReadLock();
  TimestampMs end_date = start_date + duration_days * util::kMillisPerDay;
  std::vector<Q3Result> results;
  for (PersonId pid : TwoHopCircleLocked(store, pin, start)) {
    const PersonRecord* p = store.FindPerson(pin, pid);
    if (p == nullptr) continue;
    // Residents of X or Y are excluded: posting from home is not travel.
    if (p->data.city_id < city_country.size()) {
      schema::PlaceId home = city_country[p->data.city_id];
      if (home == country_x || home == country_y) continue;
    }
    uint32_t count_x = 0, count_y = 0;
    auto messages = p->messages.view();
    size_t lower = LowerBoundByDate(messages, start_date);
    size_t upper = UpperBoundByDate(messages, end_date - 1);
    for (size_t i = lower; i < upper; ++i) {
      const MessageRecord* m = store.FindMessage(pin, messages[i].id);
      if (m == nullptr) continue;
      if (m->data.country_id == country_x) {
        ++count_x;
      } else if (m->data.country_id == country_y) {
        ++count_y;
      }
    }
    if (count_x > 0 && count_y > 0) {
      results.push_back({pid, count_x, count_y});
    }
  }
  std::sort(results.begin(), results.end(),
            [](const Q3Result& a, const Q3Result& b) {
              uint64_t ta = a.count_x + a.count_y;
              uint64_t tb = b.count_x + b.count_y;
              if (ta != tb) return ta > tb;
              return a.person_id < b.person_id;
            });
  if (static_cast<int>(results.size()) > limit) results.resize(limit);
  return results;
}

// ---- Q4 -----------------------------------------------------------------------

std::vector<Q4Result> Query4(const GraphStore& store, PersonId start,
                             TimestampMs start_date, int duration_days,
                             int limit) {
  auto pin = store.ReadLock();
  TimestampMs end_date = start_date + duration_days * util::kMillisPerDay;
  std::unordered_map<schema::TagId, uint32_t> in_window;
  std::unordered_set<schema::TagId> before_window;
  for (PersonId fid : FriendIdsLocked(store, pin, start)) {
    const PersonRecord* f = store.FindPerson(pin, fid);
    if (f == nullptr) continue;
    for (const DatedEdge& e : f->messages.view()) {
      if (e.date >= end_date) break;  // Ascending dates.
      const MessageRecord* m = store.FindMessage(pin, e.id);
      if (m == nullptr || m->data.kind == MessageKind::kComment) continue;
      if (e.date < start_date) {
        for (schema::TagId t : m->data.tags) before_window.insert(t);
      } else {
        for (schema::TagId t : m->data.tags) ++in_window[t];
      }
    }
  }
  std::vector<Q4Result> results;
  for (auto [tag, count] : in_window) {
    if (before_window.count(tag) == 0) results.push_back({tag, count});
  }
  std::sort(results.begin(), results.end(),
            [](const Q4Result& a, const Q4Result& b) {
              if (a.post_count != b.post_count) {
                return a.post_count > b.post_count;
              }
              return a.tag < b.tag;
            });
  if (static_cast<int>(results.size()) > limit) results.resize(limit);
  return results;
}

// ---- Q5 -----------------------------------------------------------------------
//
// The comparator (count desc, forum asc) is a total order over distinct
// forum ids, so the bounded heap equals full-sort + truncate.

std::vector<Q5Result> Query5(const GraphStore& store, PersonId start,
                             TimestampMs min_date, int limit) {
  auto pin = store.ReadLock();
  std::vector<uint64_t> circle;
  exec::ExpandTwoHopSorted(store, pin, start, &circle);

  // Hash-join build side: circle membership.
  exec::HashSet64 circle_set(circle.size());
  for (uint64_t pid : circle) circle_set.Insert(pid);

  // Forums joined by circle members after min_date (dedup via sort: the
  // candidate list is small and already clusters by forum id).
  std::vector<uint64_t> forums;
  for (uint64_t pid : circle) {
    const PersonRecord* p = store.FindPerson(pin, pid);
    if (p == nullptr) continue;
    for (const DatedEdge& membership : p->forums.view()) {
      if (membership.date > min_date) forums.push_back(membership.id);
    }
  }
  std::sort(forums.begin(), forums.end());
  forums.erase(std::unique(forums.begin(), forums.end()), forums.end());

  auto less = [](const Q5Result& a, const Q5Result& b) {
    if (a.post_count != b.post_count) return a.post_count > b.post_count;
    return a.forum_id < b.forum_id;
  };
  exec::TopK<Q5Result, decltype(less)> top(static_cast<size_t>(limit), less);

  // Probe side: per forum, gather post creators block-at-a-time and count
  // circle hits.
  exec::Batch batch;
  uint32_t sel[exec::kBatchCapacity];
  for (uint64_t fid : forums) {
    const store::ForumRecord* forum = store.FindForum(pin, fid);
    if (forum == nullptr) continue;
    auto posts = forum->posts.view();
    uint32_t count = 0;
    size_t i = 0;
    while (i < posts.size()) {
      size_t n = std::min(exec::kBatchCapacity, posts.size() - i);
      batch.clear();
      for (size_t t = 0; t < n; ++t) {
        const MessageRecord* m = store.FindMessage(pin, posts[i + t]);
        if (m != nullptr) batch.b[batch.size++] = m->data.creator_id;
      }
      i += n;
      count += static_cast<uint32_t>(
          circle_set.ProbeBatch(batch.b, batch.size, sel));
    }
    top.Push({fid, count});
  }
  return top.Drain();
}

// ---- Q6 -----------------------------------------------------------------------

std::vector<Q6Result> Query6(const GraphStore& store, PersonId start,
                             schema::TagId tag, int limit) {
  auto pin = store.ReadLock();
  std::unordered_map<schema::TagId, uint32_t> co_counts;
  for (PersonId pid : TwoHopCircleLocked(store, pin, start)) {
    const PersonRecord* p = store.FindPerson(pin, pid);
    if (p == nullptr) continue;
    for (const DatedEdge& e : p->messages.view()) {
      const MessageRecord* m = store.FindMessage(pin, e.id);
      if (m == nullptr || m->data.kind == MessageKind::kComment) continue;
      bool has_tag = false;
      for (schema::TagId t : m->data.tags) {
        if (t == tag) {
          has_tag = true;
          break;
        }
      }
      if (!has_tag) continue;
      for (schema::TagId t : m->data.tags) {
        if (t != tag) ++co_counts[t];
      }
    }
  }
  std::vector<Q6Result> results;
  results.reserve(co_counts.size());
  for (auto [t, c] : co_counts) results.push_back({t, c});
  std::sort(results.begin(), results.end(),
            [](const Q6Result& a, const Q6Result& b) {
              if (a.post_count != b.post_count) {
                return a.post_count > b.post_count;
              }
              return a.tag < b.tag;
            });
  if (static_cast<int>(results.size()) > limit) results.resize(limit);
  return results;
}

// ---- Q7 -----------------------------------------------------------------------

std::vector<Q7Result> Query7(const GraphStore& store, PersonId start,
                             int limit) {
  auto pin = store.ReadLock();
  std::vector<Q7Result> likes;
  const PersonRecord* p = store.FindPerson(pin, start);
  if (p == nullptr) return likes;
  for (const DatedEdge& e : p->messages.view()) {
    const MessageRecord* m = store.FindMessage(pin, e.id);
    if (m == nullptr) continue;
    for (const DatedEdge& like : m->likes.view()) {
      Q7Result r;
      r.liker_id = like.id;
      r.message_id = e.id;
      r.like_date = like.date;
      r.latency_minutes =
          (like.date - m->data.creation_date) / util::kMillisPerMinute;
      r.is_outside_friendship = !store.AreFriends(pin, start, like.id);
      likes.push_back(r);
    }
  }
  std::sort(likes.begin(), likes.end(),
            [](const Q7Result& a, const Q7Result& b) {
              if (a.like_date != b.like_date) return a.like_date > b.like_date;
              return a.liker_id < b.liker_id;
            });
  if (static_cast<int>(likes.size()) > limit) likes.resize(limit);
  return likes;
}

// ---- Q8 -----------------------------------------------------------------------

std::vector<Q8Result> Query8(const GraphStore& store, PersonId start,
                             int limit) {
  auto pin = store.ReadLock();
  std::vector<Q8Result> replies;
  const PersonRecord* p = store.FindPerson(pin, start);
  if (p == nullptr) return replies;
  for (const DatedEdge& e : p->messages.view()) {
    const MessageRecord* m = store.FindMessage(pin, e.id);
    if (m == nullptr) continue;
    for (MessageId rid : m->replies.view()) {
      const MessageRecord* reply = store.FindMessage(pin, rid);
      if (reply == nullptr) continue;
      replies.push_back(
          {rid, reply->data.creator_id, reply->data.creation_date});
    }
  }
  std::sort(replies.begin(), replies.end(),
            [](const Q8Result& a, const Q8Result& b) {
              if (a.creation_date != b.creation_date) {
                return a.creation_date > b.creation_date;
              }
              return a.comment_id < b.comment_id;
            });
  if (static_cast<int>(replies.size()) > limit) replies.resize(limit);
  return replies;
}

// ---- Q9 -----------------------------------------------------------------------
//
// Message ids are unique, so (date desc, id asc) is a total order and the
// bounded heap equals full-sort + truncate.

std::vector<Q9Result> Query9(const GraphStore& store, PersonId start,
                             TimestampMs max_date, int limit,
                             Q9PlanStats* stats, Q9OperatorProfile* profile) {
  auto pin = store.ReadLock();
  Q9PlanStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = Q9PlanStats();
  auto sink = [profile](obs::OperatorStats Q9OperatorProfile::* member) {
    return profile == nullptr ? nullptr : &(profile->*member);
  };

  std::vector<uint64_t> circle;
  exec::TwoHopStats hop = exec::ExpandTwoHopSorted(
      store, pin, start, &circle, sink(&Q9OperatorProfile::join1),
      sink(&Q9OperatorProfile::join2));
  stats->join1_output = hop.direct;
  stats->join2_output = hop.fof_tuples;

  auto less = [](const Q9Result& a, const Q9Result& b) {
    if (a.creation_date != b.creation_date) {
      return a.creation_date > b.creation_date;
    }
    return a.message_id < b.message_id;
  };
  exec::TopK<Q9Result, decltype(less)> top(static_cast<size_t>(limit), less);

  exec::MessageScanOperator scan(store, pin, circle, max_date,
                                 static_cast<size_t>(limit),
                                 sink(&Q9OperatorProfile::join3));
  exec::Batch batch;
  while (scan.Next(&batch)) {
    obs::TraceSpan span(sink(&Q9OperatorProfile::sort_limit), "sort_limit");
    for (size_t r = 0; r < batch.size; ++r) {
      top.Push({batch.a[r], batch.b[r], batch.date[r]});
    }
    span.AddRows(batch.size);
  }
  stats->join3_output = scan.rows_emitted();

  obs::TraceSpan span(sink(&Q9OperatorProfile::sort_limit), "sort_limit");
  std::vector<Q9Result> out = top.Drain();
  span.AddRows(out.size());
  return out;
}

// ---- Q10 ----------------------------------------------------------------------

std::vector<Q10Result> Query10(const GraphStore& store, PersonId start,
                               int horoscope_month, int limit) {
  auto pin = store.ReadLock();
  std::vector<Q10Result> results;
  const PersonRecord* root = store.FindPerson(pin, start);
  if (root == nullptr) return results;
  std::unordered_set<schema::TagId> interests(root->data.interests.begin(),
                                              root->data.interests.end());
  auto root_friends = root->friends.view();
  std::unordered_set<PersonId> direct;
  direct.insert(start);
  for (const FriendEdge& e : root_friends) direct.insert(e.other);

  std::unordered_set<PersonId> fof;
  for (const FriendEdge& e : root_friends) {
    const PersonRecord* f = store.FindPerson(pin, e.other);
    if (f == nullptr) continue;
    for (const FriendEdge& e2 : f->friends.view()) {
      if (direct.count(e2.other) == 0) fof.insert(e2.other);
    }
  }

  for (PersonId pid : fof) {
    const PersonRecord* p = store.FindPerson(pin, pid);
    if (p == nullptr) continue;
    int month = 0, day = 0;
    MonthDayOf(p->data.birthday, &month, &day);
    int next_month = horoscope_month % 12 + 1;
    bool sign_match = (month == horoscope_month && day >= 21) ||
                      (month == next_month && day < 22);
    if (!sign_match) continue;
    int32_t common = 0, other = 0;
    for (const DatedEdge& e : p->messages.view()) {
      const MessageRecord* m = store.FindMessage(pin, e.id);
      if (m == nullptr || m->data.kind == MessageKind::kComment) continue;
      bool about_interest = false;
      for (schema::TagId t : m->data.tags) {
        if (interests.count(t) > 0) {
          about_interest = true;
          break;
        }
      }
      if (about_interest) {
        ++common;
      } else {
        ++other;
      }
    }
    results.push_back({pid, common - other});
  }
  std::sort(results.begin(), results.end(),
            [](const Q10Result& a, const Q10Result& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.person_id < b.person_id;
            });
  if (static_cast<int>(results.size()) > limit) results.resize(limit);
  return results;
}

// ---- Q11 ----------------------------------------------------------------------

std::vector<Q11Result> Query11(const GraphStore& store, PersonId start,
                               const std::vector<schema::PlaceId>&
                                   company_country,
                               schema::PlaceId country,
                               uint16_t max_work_year, int limit) {
  auto pin = store.ReadLock();
  std::vector<Q11Result> results;
  for (PersonId pid : TwoHopCircleLocked(store, pin, start)) {
    const PersonRecord* p = store.FindPerson(pin, pid);
    if (p == nullptr) continue;
    schema::OrganizationId company = p->data.company_id;
    if (company == schema::kInvalidId32) continue;
    if (company >= company_country.size()) continue;
    if (company_country[company] != country) continue;
    if (p->data.work_year >= max_work_year) continue;
    results.push_back({pid, company, p->data.work_year});
  }
  std::sort(results.begin(), results.end(),
            [](const Q11Result& a, const Q11Result& b) {
              if (a.work_year != b.work_year) return a.work_year < b.work_year;
              return a.person_id < b.person_id;
            });
  if (static_cast<int>(results.size()) > limit) results.resize(limit);
  return results;
}

// ---- Q12 ----------------------------------------------------------------------

std::vector<Q12Result> Query12(const GraphStore& store, PersonId start,
                               const std::vector<bool>& tag_in_class,
                               int limit) {
  auto pin = store.ReadLock();
  std::vector<Q12Result> results;
  for (PersonId fid : FriendIdsLocked(store, pin, start)) {
    const PersonRecord* f = store.FindPerson(pin, fid);
    if (f == nullptr) continue;
    uint32_t count = 0;
    for (const DatedEdge& e : f->messages.view()) {
      const MessageRecord* m = store.FindMessage(pin, e.id);
      if (m == nullptr || m->data.kind != MessageKind::kComment) continue;
      const MessageRecord* parent = store.FindMessage(pin, m->data.reply_to_id);
      if (parent == nullptr ||
          parent->data.kind == MessageKind::kComment) {
        continue;  // Only replies to posts count.
      }
      for (schema::TagId t : parent->data.tags) {
        if (t < tag_in_class.size() && tag_in_class[t]) {
          ++count;
          break;
        }
      }
    }
    if (count > 0) results.push_back({fid, count});
  }
  std::sort(results.begin(), results.end(),
            [](const Q12Result& a, const Q12Result& b) {
              if (a.reply_count != b.reply_count) {
                return a.reply_count > b.reply_count;
              }
              return a.person_id < b.person_id;
            });
  if (static_cast<int>(results.size()) > limit) results.resize(limit);
  return results;
}

// ---- Q13 ----------------------------------------------------------------------

int Query13(const GraphStore& store, PersonId person1, PersonId person2) {
  auto pin = store.ReadLock();
  if (person1 == person2) return 0;
  if (store.FindPerson(pin, person1) == nullptr ||
      store.FindPerson(pin, person2) == nullptr) {
    return -1;
  }
  // Bidirectional BFS.
  std::unordered_map<PersonId, int> dist_fwd{{person1, 0}};
  std::unordered_map<PersonId, int> dist_bwd{{person2, 0}};
  std::deque<PersonId> frontier_fwd{person1};
  std::deque<PersonId> frontier_bwd{person2};
  int depth_fwd = 0, depth_bwd = 0;

  auto expand = [&](std::deque<PersonId>& frontier,
                    std::unordered_map<PersonId, int>& mine,
                    const std::unordered_map<PersonId, int>& theirs,
                    int& depth) -> int {
    ++depth;
    std::deque<PersonId> next;
    int best = -1;
    while (!frontier.empty()) {
      PersonId pid = frontier.front();
      frontier.pop_front();
      const PersonRecord* p = store.FindPerson(pin, pid);
      if (p == nullptr) continue;
      for (const FriendEdge& e : p->friends.view()) {
        if (mine.count(e.other) > 0) continue;
        mine[e.other] = depth;
        auto hit = theirs.find(e.other);
        if (hit != theirs.end()) {
          int total = depth + hit->second;
          if (best < 0 || total < best) best = total;
        }
        next.push_back(e.other);
      }
    }
    frontier = std::move(next);
    return best;
  };

  while (!frontier_fwd.empty() || !frontier_bwd.empty()) {
    bool forward = frontier_fwd.size() <= frontier_bwd.size()
                       ? !frontier_fwd.empty()
                       : frontier_bwd.empty();
    int found = forward
                    ? expand(frontier_fwd, dist_fwd, dist_bwd, depth_fwd)
                    : expand(frontier_bwd, dist_bwd, dist_fwd, depth_bwd);
    if (found >= 0) return found;
  }
  return -1;
}

// ---- Q14 ----------------------------------------------------------------------

namespace {

/// Cap on enumerated shortest paths per query.
constexpr size_t kMaxPaths = 1000;

/// All shortest Knows-paths person1 -> person2, capped at kMaxPaths, in
/// parent-DAG DFS order (parents ascending by id). Distance 1 and 2 take
/// kernel fast paths; the general case runs a BFS building the parent DAG,
/// then an iterative DFS over it.
///
/// The distance-2 fast path is exact: the BFS would fully process every
/// depth-1 node before its `d >= target_dist` cut, so parents(person2) is
/// ALL mutual friends; the DFS sorts parents ascending and each middle has
/// the single parent person1, so paths enumerate in ascending middle-id
/// order — which is exactly Intersect(friends(p1), friends(p2)) read left
/// to right, including where a kMaxPaths cut lands.
std::vector<std::vector<PersonId>> ShortestPaths(const GraphStore& store,
                                                 const store::ShardSnapshot& pin,
                                                 PersonId person1,
                                                 PersonId person2) {
  std::vector<std::vector<PersonId>> paths;
  const PersonRecord* p1 = store.FindPerson(pin, person1);
  const PersonRecord* p2 = store.FindPerson(pin, person2);
  std::vector<uint64_t> f1;
  store::CopyFriendIds(p1->friends.view(), &f1);
  if (std::binary_search(f1.begin(), f1.end(), person2)) {
    paths.push_back({person1, person2});
    return paths;
  }
  std::vector<uint64_t> f2;
  store::CopyFriendIds(p2->friends.view(), &f2);
  std::vector<uint64_t> mid(std::min(f1.size(), f2.size()));
  size_t n =
      exec::Intersect(f1.data(), f1.size(), f2.data(), f2.size(), mid.data());
  if (n > 0) {
    size_t take = std::min(n, kMaxPaths);
    paths.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      paths.push_back({person1, mid[i], person2});
    }
    return paths;
  }

  // Distance >= 3: BFS building the shortest-path parent DAG, then an
  // iterative DFS enumerating paths backwards from person2.
  std::unordered_map<PersonId, int> dist{{person1, 0}};
  std::unordered_map<PersonId, std::vector<PersonId>> parents;
  std::deque<PersonId> queue{person1};
  int target_dist = -1;
  while (!queue.empty()) {
    PersonId pid = queue.front();
    queue.pop_front();
    int d = dist[pid];
    if (target_dist >= 0 && d >= target_dist) break;
    const PersonRecord* p = store.FindPerson(pin, pid);
    if (p == nullptr) continue;
    for (const FriendEdge& e : p->friends.view()) {
      auto it = dist.find(e.other);
      if (it == dist.end()) {
        dist[e.other] = d + 1;
        parents[e.other].push_back(pid);
        queue.push_back(e.other);
        if (e.other == person2) target_dist = d + 1;
      } else if (it->second == d + 1) {
        parents[e.other].push_back(pid);
      }
    }
  }
  if (target_dist < 0) return paths;

  struct Frame {
    PersonId node;
    size_t next_parent;
  };
  std::vector<Frame> stack{{person2, 0}};
  while (!stack.empty() && paths.size() < kMaxPaths) {
    Frame& frame = stack.back();
    if (frame.node == person1) {
      std::vector<PersonId> path;
      path.reserve(stack.size());
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        path.push_back(it->node);
      }
      paths.push_back(std::move(path));
      stack.pop_back();
      continue;
    }
    std::vector<PersonId>& ps = parents[frame.node];
    std::sort(ps.begin(), ps.end());
    if (frame.next_parent >= ps.size()) {
      stack.pop_back();
      continue;
    }
    PersonId parent = ps[frame.next_parent++];
    stack.push_back({parent, 0});
  }
  return paths;
}

}  // namespace

// Weights: each distinct path person's comment list is scanned ONCE and
// accumulated into a flat hash map of the needed {u, v} pairs, instead of
// re-scanning both comment lists per path edge. Every contribution is a
// dyadic rational (0.5 or 1.0) and every partial sum stays far below 2^52,
// so IEEE addition is exact and grouping cannot change the result: the
// weights are bit-equal to a per-edge sum (validate::Oracle's formulation).

std::vector<Q14Result> Query14(const GraphStore& store, PersonId person1,
                               PersonId person2) {
  auto pin = store.ReadLock();
  std::vector<Q14Result> results;
  if (store.FindPerson(pin, person1) == nullptr ||
      store.FindPerson(pin, person2) == nullptr) {
    return results;
  }
  if (person1 == person2) {
    results.push_back({{person1}, 0.0});
    return results;
  }
  std::vector<std::vector<PersonId>> paths =
      ShortestPaths(store, pin, person1, person2);
  if (paths.empty()) return results;

  // Distinct persons on any path, id-sorted, as the pair-index domain.
  std::vector<uint64_t> persons;
  for (const auto& path : paths) {
    persons.insert(persons.end(), path.begin(), path.end());
  }
  std::sort(persons.begin(), persons.end());
  persons.erase(std::unique(persons.begin(), persons.end()), persons.end());
  auto index_of = [&persons](uint64_t id) -> size_t {
    auto it = std::lower_bound(persons.begin(), persons.end(), id);
    if (it == persons.end() || *it != id) return persons.size();
    return static_cast<size_t>(it - persons.begin());
  };
  auto pair_key = [&persons](size_t u, size_t v) -> uint64_t {
    return static_cast<uint64_t>(std::min(u, v)) * persons.size() +
           std::max(u, v);
  };

  // Build side: every consecutive pair that occurs on any path, mapped to
  // an accumulator slot.
  exec::HashMap64 pair_index;
  std::vector<double> pair_weight;
  for (const auto& path : paths) {
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      uint64_t key = pair_key(index_of(path[i]), index_of(path[i + 1]));
      if (pair_index.Find(key) == nullptr) {
        pair_index.Put(key, pair_weight.size());
        pair_weight.push_back(0.0);
      }
    }
  }

  // Probe side: one pass over each distinct person's comments. A comment
  // by u replying to a message of v lands in pair {u, v} iff that pair is
  // a path edge — together the passes over u and v see exactly the
  // replies exchanged between u and v.
  for (size_t uidx = 0; uidx < persons.size(); ++uidx) {
    const PersonRecord* p = store.FindPerson(pin, persons[uidx]);
    if (p == nullptr) continue;
    for (const DatedEdge& e : p->messages.view()) {
      const MessageRecord* m = store.FindMessage(pin, e.id);
      if (m == nullptr || m->data.kind != MessageKind::kComment) continue;
      const MessageRecord* parent =
          store.FindMessage(pin, m->data.reply_to_id);
      if (parent == nullptr) continue;
      size_t vidx = index_of(parent->data.creator_id);
      if (vidx == persons.size()) continue;
      const uint64_t* acc = pair_index.Find(pair_key(uidx, vidx));
      if (acc == nullptr) continue;
      pair_weight[*acc] +=
          parent->data.kind == MessageKind::kComment ? 0.5 : 1.0;
    }
  }

  results.reserve(paths.size());
  for (std::vector<PersonId>& path : paths) {
    Q14Result r;
    r.weight = 0.0;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      uint64_t key = pair_key(index_of(path[i]), index_of(path[i + 1]));
      r.weight += pair_weight[*pair_index.Find(key)];
    }
    r.path = std::move(path);
    results.push_back(std::move(r));
  }
  std::sort(results.begin(), results.end(),
            [](const Q14Result& a, const Q14Result& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.path < b.path;
            });
  return results;
}

}  // namespace snb::queries
