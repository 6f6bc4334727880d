// The 14 complex read-only queries of SNB-Interactive (paper appendix).
//
// Each function implements one query template against the GraphStore via
// handwritten intended plans (the same style as the LDBC API reference
// implementations for Neo4j/Sparksee). Every query takes its own read
// snapshot and is safe to run concurrently with updates.
//
// Each query has exactly one plan on the serving path. Q5, Q9 and Q14 —
// the heaviest templates — run block-at-a-time on the src/exec operators
// and sorted-set kernels. The reference semantics live in validate::Oracle
// and the relational backend (snb::rel), which tests and the differential
// fuzzer hold every plan here to. queries/query9_plans.h keeps the Fig. 4
// join-strategy variants of Q9 for the plan-ablation bench only.
#ifndef SNB_QUERIES_COMPLEX_QUERIES_H_
#define SNB_QUERIES_COMPLEX_QUERIES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "schema/ids.h"
#include "store/graph_store.h"
#include "util/datetime.h"

namespace snb::queries {

struct Q9PlanStats;        // queries/query9_plans.h
struct Q9OperatorProfile;  // queries/query9_plans.h

using store::GraphStore;
using util::TimestampMs;

// ---- Q1: friends with a given name ------------------------------------------

struct Q1Result {
  schema::PersonId person_id = schema::kInvalidId;
  uint32_t distance = 0;  // 1..3 hops from the start person.
  std::string last_name;
  schema::PlaceId city_id = schema::kInvalidId32;
  schema::OrganizationId university_id = schema::kInvalidId32;
  schema::OrganizationId company_id = schema::kInvalidId32;
};

/// Up to 20 persons named `first_name` within 3 Knows-hops of `start`,
/// sorted by (distance, last_name, id).
std::vector<Q1Result> Query1(const GraphStore& store, schema::PersonId start,
                             const std::string& first_name, int limit = 20);

// ---- Q2: recent messages of friends -------------------------------------------

struct Q2Result {
  schema::MessageId message_id = schema::kInvalidId;
  schema::PersonId creator_id = schema::kInvalidId;
  TimestampMs creation_date = 0;
};

/// Top-`limit` most recent messages by direct friends created at or before
/// `max_date`; sorted by (date desc, message id asc).
std::vector<Q2Result> Query2(const GraphStore& store, schema::PersonId start,
                             TimestampMs max_date, int limit = 20);

// ---- Q3: friends who travelled to countries X and Y ----------------------------

struct Q3Result {
  schema::PersonId person_id = schema::kInvalidId;
  uint32_t count_x = 0;
  uint32_t count_y = 0;
};

/// Friends and friends-of-friends who posted from both foreign countries
/// `country_x` and `country_y` within [start_date, start_date + days);
/// sorted by total count desc. "Foreign" excludes persons living in X or Y;
/// `city_country` maps PlaceId(city) -> PlaceId(country) (from
/// schema::Dictionaries, which the store intentionally does not know).
std::vector<Q3Result> Query3(const GraphStore& store, schema::PersonId start,
                             const std::vector<schema::PlaceId>& city_country,
                             schema::PlaceId country_x,
                             schema::PlaceId country_y,
                             TimestampMs start_date, int duration_days,
                             int limit = 20);

// ---- Q4: new topics -------------------------------------------------------------

struct Q4Result {
  schema::TagId tag = 0;
  uint32_t post_count = 0;
};

/// Tags attached to posts created by friends within the interval, excluding
/// tags those friends already used strictly before it; top 10 by count.
std::vector<Q4Result> Query4(const GraphStore& store, schema::PersonId start,
                             TimestampMs start_date, int duration_days,
                             int limit = 10);

// ---- Q5: new groups --------------------------------------------------------------

struct Q5Result {
  schema::ForumId forum_id = schema::kInvalidId;
  uint32_t post_count = 0;
};

/// Forums that friends or friends-of-friends joined after `min_date`, ranked
/// by the number of posts any of them created in the forum; top 20. Plan:
/// sorted-set two-hop circle, flat hash-set build of the circle, per-forum
/// creator gather + block probe, bounded top-`limit` heap.
std::vector<Q5Result> Query5(const GraphStore& store, schema::PersonId start,
                             TimestampMs min_date, int limit = 20);

// ---- Q6: tag co-occurrence ----------------------------------------------------------

struct Q6Result {
  schema::TagId tag = 0;
  uint32_t post_count = 0;
};

/// Tags co-occurring with `tag` on posts created by friends or
/// friends-of-friends; top 10 by count.
std::vector<Q6Result> Query6(const GraphStore& store, schema::PersonId start,
                             schema::TagId tag, int limit = 10);

// ---- Q7: recent likes -----------------------------------------------------------------

struct Q7Result {
  schema::PersonId liker_id = schema::kInvalidId;
  schema::MessageId message_id = schema::kInvalidId;
  TimestampMs like_date = 0;
  /// Minutes between message creation and the like.
  int64_t latency_minutes = 0;
  /// True when the liker is not a direct friend of the start person.
  bool is_outside_friendship = false;
};

/// Most recent likes on any of the start person's messages; top 20 by
/// (like date desc, liker id asc).
std::vector<Q7Result> Query7(const GraphStore& store, schema::PersonId start,
                             int limit = 20);

// ---- Q8: most recent replies ------------------------------------------------------------

struct Q8Result {
  schema::MessageId comment_id = schema::kInvalidId;
  schema::PersonId replier_id = schema::kInvalidId;
  TimestampMs creation_date = 0;
};

/// The 20 most recent reply comments to any message of the start person;
/// (date desc, comment id asc).
std::vector<Q8Result> Query8(const GraphStore& store, schema::PersonId start,
                             int limit = 20);

// ---- Q9: latest messages of 2-hop circle ---------------------------------------------------

struct Q9Result {
  schema::MessageId message_id = schema::kInvalidId;
  schema::PersonId creator_id = schema::kInvalidId;
  TimestampMs creation_date = 0;
};

/// Most recent messages created before `max_date` by friends or
/// friends-of-friends; top 20 by (date desc, id asc). Plan: sorted-set
/// two-hop circle, blockwise date-bounded message scan with per-person
/// top-`limit` truncation, bounded top-`limit` heap. When `stats` /
/// `profile` are non-null they receive the same counters Query9WithPlan
/// reports (hash_build stays untouched — this plan builds no friends hash
/// table); the null path takes no timestamps.
std::vector<Q9Result> Query9(const GraphStore& store, schema::PersonId start,
                             TimestampMs max_date, int limit = 20,
                             Q9PlanStats* stats = nullptr,
                             Q9OperatorProfile* profile = nullptr);

// ---- Q10: friend recommendation ---------------------------------------------------------------

struct Q10Result {
  schema::PersonId person_id = schema::kInvalidId;
  int32_t similarity = 0;  // Common-interest posts minus others.
};

/// Friends-of-friends (not direct friends) born around the given horoscope
/// month (birthday in [month.21, month+1.22)), ranked by the difference
/// between their posts about the start person's interests and their other
/// posts; top 10.
std::vector<Q10Result> Query10(const GraphStore& store,
                               schema::PersonId start, int horoscope_month,
                               int limit = 10);

// ---- Q11: job referral ---------------------------------------------------------------------------

struct Q11Result {
  schema::PersonId person_id = schema::kInvalidId;
  schema::OrganizationId company_id = schema::kInvalidId32;
  uint16_t work_year = 0;
};

/// Friends or friends-of-friends (excluding start) who work at a company in
/// `country` since before `max_work_year`; sorted by (work year asc, person
/// id asc); top 10. `company_country` maps OrganizationId -> country.
std::vector<Q11Result> Query11(
    const GraphStore& store, schema::PersonId start,
    const std::vector<schema::PlaceId>& company_country,
    schema::PlaceId country, uint16_t max_work_year, int limit = 10);

// ---- Q12: expert search ----------------------------------------------------------------------------

struct Q12Result {
  schema::PersonId person_id = schema::kInvalidId;
  uint32_t reply_count = 0;
};

/// Friends ranked by the number of their comments that reply to posts
/// tagged with a tag of `tag_class` (tag-class membership is supplied via
/// `tag_in_class`, a predicate over TagId); top 20.
std::vector<Q12Result> Query12(
    const GraphStore& store, schema::PersonId start,
    const std::vector<bool>& tag_in_class, int limit = 20);

// ---- Q13: single shortest path -----------------------------------------------------------------------

/// Length of the shortest Knows-path between two persons; -1 when
/// unreachable, 0 when identical.
int Query13(const GraphStore& store, schema::PersonId person1,
            schema::PersonId person2);

// ---- Q14: weighted shortest paths ----------------------------------------------------------------------

struct Q14Result {
  std::vector<schema::PersonId> path;  // person1 .. person2.
  double weight = 0.0;
};

/// All shortest (by hop count) Knows-paths between two persons, each scored
/// by the message interaction weight of consecutive pairs: every comment
/// replying to the other's post adds 1.0, to the other's comment adds 0.5.
/// Sorted by weight descending. Distance-1/2 paths come from one sorted
/// intersection of the endpoint friend lists; pair weights come from one
/// scan of each distinct path person's comments.
std::vector<Q14Result> Query14(const GraphStore& store,
                               schema::PersonId person1,
                               schema::PersonId person2);

// ---- Shared helpers (exposed for tests and the plan-ablation bench) ------------

/// Direct friends of `start` (sorted by id).
std::vector<schema::PersonId> FriendIds(const GraphStore& store,
                                        schema::PersonId start);

/// Friends plus friends-of-friends, excluding `start` itself (sorted).
std::vector<schema::PersonId> TwoHopCircle(const GraphStore& store,
                                           schema::PersonId start);

}  // namespace snb::queries

#endif  // SNB_QUERIES_COMPLEX_QUERIES_H_
