#include "validate/fuzz.h"

#include <algorithm>
#include <utility>

#include "obs/report.h"
#include "queries/complex_queries.h"
#include "queries/short_queries.h"
#include "relational/rel_queries.h"
#include "store/graph_store.h"
#include "store/shard_router.h"
#include "util/rng.h"
#include "validate/canonical.h"
#include "validate/json_io.h"
#include "validate/oracle.h"

namespace snb::validate {
namespace {

constexpr char kArtifactTag[] = "snb-fuzz-regression-v2";
// v1 artifacts (predating the sharded store) are still accepted on read;
// they carry no shard_count and reproduce at 1 shard.
constexpr char kArtifactTagV1[] = "snb-fuzz-regression-v1";
constexpr char kWhat[] = "fuzz artifact";

/// Shard count for one fuzz graph: a power of two in [1, 8], a pure
/// function of the graph seed so a campaign replay (and a regression
/// artifact) lands on the same store topology.
uint32_t ShardCountForSeed(uint64_t graph_seed) {
  return 1u << (store::ShardMix64(graph_seed ^ 0x5AD5ULL) & 3);
}

// ---- Synthetic correlated domains ----------------------------------------
//
// Small fixed dictionaries shared by generation and query execution: three
// countries, six cities (city c lies in country c % 3), five companies,
// eight tags in two alternating tag classes. Small domains force collisions
// — several persons per city, several messages per tag — which is what the
// aggregate queries need to produce non-trivial results on tiny graphs.

constexpr size_t kNumCountries = 3;
constexpr size_t kNumCities = 6;
constexpr size_t kNumCompanies = 5;
constexpr size_t kNumUniversities = 4;
constexpr size_t kNumTags = 8;
constexpr size_t kNumTagClasses = 2;

const std::vector<schema::PlaceId>& CityCountry() {
  static const std::vector<schema::PlaceId> v = {0, 1, 2, 0, 1, 2};
  return v;
}

const std::vector<schema::PlaceId>& CompanyCountry() {
  static const std::vector<schema::PlaceId> v = {0, 1, 2, 0, 1};
  return v;
}

std::vector<bool> TagClassVector(uint64_t tag_class) {
  std::vector<bool> v(kNumTags, false);
  for (size_t t = 0; t < kNumTags; ++t) {
    v[t] = t % kNumTagClasses == tag_class % kNumTagClasses;
  }
  return v;
}

const char* const kFirstNames[] = {"Ada", "Bela", "Chen", "Ada"};
const char* const kLastNames[] = {"Ng", "Okafor", "Ng", "Petrov"};

// ---- Backend dispatch -----------------------------------------------------

/// Runs one binding against the graph store's serving plans.
std::vector<std::string> RunOnStore(const store::GraphStore& s,
                                    const FuzzBinding& b) {
  const std::string& op = b.op;
  if (op == "complex.Q1") return CanonicalRows(queries::Query1(s, b.person, b.name));
  if (op == "complex.Q2") return CanonicalRows(queries::Query2(s, b.person, b.date));
  if (op == "complex.Q3") {
    return CanonicalRows(queries::Query3(s, b.person, CityCountry(),
                                         static_cast<schema::PlaceId>(b.a),
                                         static_cast<schema::PlaceId>(b.b),
                                         b.date, b.days));
  }
  if (op == "complex.Q4") return CanonicalRows(queries::Query4(s, b.person, b.date, b.days));
  if (op == "complex.Q5") return CanonicalRows(queries::Query5(s, b.person, b.date));
  if (op == "complex.Q6") {
    return CanonicalRows(
        queries::Query6(s, b.person, static_cast<schema::TagId>(b.a)));
  }
  if (op == "complex.Q7") return CanonicalRows(queries::Query7(s, b.person));
  if (op == "complex.Q8") return CanonicalRows(queries::Query8(s, b.person));
  if (op == "complex.Q9") return CanonicalRows(queries::Query9(s, b.person, b.date));
  if (op == "complex.Q10") {
    return CanonicalRows(
        queries::Query10(s, b.person, static_cast<int>(b.a)));
  }
  if (op == "complex.Q11") {
    return CanonicalRows(queries::Query11(s, b.person, CompanyCountry(),
                                          static_cast<schema::PlaceId>(b.b),
                                          static_cast<uint16_t>(b.a)));
  }
  if (op == "complex.Q12") {
    return CanonicalRows(queries::Query12(s, b.person, TagClassVector(b.a)));
  }
  if (op == "complex.Q13") {
    return CanonicalScalar(queries::Query13(s, b.person, b.person2));
  }
  if (op == "complex.Q14") {
    return CanonicalRows(queries::Query14(s, b.person, b.person2));
  }
  if (op == "short.S1") {
    return {CanonicalRow(queries::ShortQuery1PersonProfile(s, b.person))};
  }
  if (op == "short.S2") {
    return CanonicalRows(queries::ShortQuery2RecentMessages(s, b.person));
  }
  if (op == "short.S3") {
    return CanonicalRows(queries::ShortQuery3Friends(s, b.person));
  }
  if (op == "short.S4") {
    return {CanonicalRow(queries::ShortQuery4MessageContent(s, b.message))};
  }
  if (op == "short.S5") {
    return {CanonicalRow(queries::ShortQuery5MessageCreator(s, b.message))};
  }
  if (op == "short.S6") {
    return {CanonicalRow(queries::ShortQuery6MessageForum(s, b.message))};
  }
  if (op == "short.S7") {
    return CanonicalRows(queries::ShortQuery7MessageReplies(s, b.message));
  }
  return {"<unknown op " + op + ">"};
}

/// Runs one binding against the relational baseline.
std::vector<std::string> RunOnRelational(const rel::RelationalDb& db,
                                         const FuzzBinding& b) {
  const std::string& op = b.op;
  if (op == "complex.Q1") return CanonicalRows(rel::Query1(db, b.person, b.name));
  if (op == "complex.Q2") return CanonicalRows(rel::Query2(db, b.person, b.date));
  if (op == "complex.Q3") {
    return CanonicalRows(rel::Query3(db, b.person, CityCountry(),
                                     static_cast<schema::PlaceId>(b.a),
                                     static_cast<schema::PlaceId>(b.b),
                                     b.date, b.days));
  }
  if (op == "complex.Q4") return CanonicalRows(rel::Query4(db, b.person, b.date, b.days));
  if (op == "complex.Q5") return CanonicalRows(rel::Query5(db, b.person, b.date));
  if (op == "complex.Q6") {
    return CanonicalRows(
        rel::Query6(db, b.person, static_cast<schema::TagId>(b.a)));
  }
  if (op == "complex.Q7") return CanonicalRows(rel::Query7(db, b.person));
  if (op == "complex.Q8") return CanonicalRows(rel::Query8(db, b.person));
  if (op == "complex.Q9") return CanonicalRows(rel::Query9(db, b.person, b.date));
  if (op == "complex.Q10") {
    return CanonicalRows(rel::Query10(db, b.person, static_cast<int>(b.a)));
  }
  if (op == "complex.Q11") {
    return CanonicalRows(rel::Query11(db, b.person, CompanyCountry(),
                                      static_cast<schema::PlaceId>(b.b),
                                      static_cast<uint16_t>(b.a)));
  }
  if (op == "complex.Q12") {
    return CanonicalRows(rel::Query12(db, b.person, TagClassVector(b.a)));
  }
  if (op == "complex.Q13") {
    return CanonicalScalar(rel::Query13(db, b.person, b.person2));
  }
  if (op == "complex.Q14") {
    return CanonicalRows(rel::Query14(db, b.person, b.person2));
  }
  if (op == "short.S1") {
    return {CanonicalRow(rel::ShortQuery1PersonProfile(db, b.person))};
  }
  if (op == "short.S2") {
    return CanonicalRows(rel::ShortQuery2RecentMessages(db, b.person));
  }
  if (op == "short.S3") {
    return CanonicalRows(rel::ShortQuery3Friends(db, b.person));
  }
  if (op == "short.S4") {
    return {CanonicalRow(rel::ShortQuery4MessageContent(db, b.message))};
  }
  if (op == "short.S5") {
    return {CanonicalRow(rel::ShortQuery5MessageCreator(db, b.message))};
  }
  if (op == "short.S6") {
    return {CanonicalRow(rel::ShortQuery6MessageForum(db, b.message))};
  }
  if (op == "short.S7") {
    return CanonicalRows(rel::ShortQuery7MessageReplies(db, b.message));
  }
  return {"<unknown op " + op + ">"};
}

/// Runs one binding against the naive oracle.
std::vector<std::string> RunOnOracle(const Oracle& o, const FuzzBinding& b) {
  const std::string& op = b.op;
  if (op == "complex.Q1") return CanonicalRows(o.Query1(b.person, b.name));
  if (op == "complex.Q2") return CanonicalRows(o.Query2(b.person, b.date));
  if (op == "complex.Q3") {
    return CanonicalRows(o.Query3(b.person, CityCountry(),
                                  static_cast<schema::PlaceId>(b.a),
                                  static_cast<schema::PlaceId>(b.b), b.date,
                                  b.days));
  }
  if (op == "complex.Q4") return CanonicalRows(o.Query4(b.person, b.date, b.days));
  if (op == "complex.Q5") return CanonicalRows(o.Query5(b.person, b.date));
  if (op == "complex.Q6") {
    return CanonicalRows(o.Query6(b.person, static_cast<schema::TagId>(b.a)));
  }
  if (op == "complex.Q7") return CanonicalRows(o.Query7(b.person));
  if (op == "complex.Q8") return CanonicalRows(o.Query8(b.person));
  if (op == "complex.Q9") return CanonicalRows(o.Query9(b.person, b.date));
  if (op == "complex.Q10") {
    return CanonicalRows(o.Query10(b.person, static_cast<int>(b.a)));
  }
  if (op == "complex.Q11") {
    return CanonicalRows(o.Query11(b.person, CompanyCountry(),
                                   static_cast<schema::PlaceId>(b.b),
                                   static_cast<uint16_t>(b.a)));
  }
  if (op == "complex.Q12") {
    return CanonicalRows(o.Query12(b.person, TagClassVector(b.a)));
  }
  if (op == "complex.Q13") {
    return CanonicalScalar(o.Query13(b.person, b.person2));
  }
  if (op == "complex.Q14") {
    return CanonicalRows(o.Query14(b.person, b.person2));
  }
  if (op == "short.S1") {
    return {CanonicalRow(o.ShortQuery1PersonProfile(b.person))};
  }
  if (op == "short.S2") {
    return CanonicalRows(o.ShortQuery2RecentMessages(b.person));
  }
  if (op == "short.S3") return CanonicalRows(o.ShortQuery3Friends(b.person));
  if (op == "short.S4") {
    return {CanonicalRow(o.ShortQuery4MessageContent(b.message))};
  }
  if (op == "short.S5") {
    return {CanonicalRow(o.ShortQuery5MessageCreator(b.message))};
  }
  if (op == "short.S6") {
    return {CanonicalRow(o.ShortQuery6MessageForum(b.message))};
  }
  if (op == "short.S7") {
    return CanonicalRows(o.ShortQuery7MessageReplies(b.message));
  }
  return {"<unknown op " + op + ">"};
}

// ---- Trial ---------------------------------------------------------------

/// One execution of a binding on a network across both backends (store,
/// relational), each judged against the oracle.
struct Trial {
  bool loaded = false;  // Both SUTs bulk-loaded successfully.
  bool mismatch = false;
  std::string backend;
  std::vector<std::string> expected;
  std::vector<std::string> actual;
};

Trial RunTrial(const schema::SocialNetwork& net, const FuzzBinding& binding,
               const StorePerturbation& perturb, uint32_t shard_count) {
  Trial trial;
  store::GraphStore store(store::ReadConcurrency::kEpoch,
                          shard_count == 0 ? 1 : shard_count);
  rel::RelationalDb db;
  if (!store.BulkLoad(net).ok() || !db.BulkLoad(net).ok()) return trial;
  trial.loaded = true;
  Oracle oracle(net);

  std::vector<std::string> oracle_rows = RunOnOracle(oracle, binding);
  std::vector<std::string> store_rows = RunOnStore(store, binding);
  if (perturb) perturb(binding.op, &store_rows);
  if (store_rows != oracle_rows) {
    trial.mismatch = true;
    trial.backend = "store";
    trial.expected = std::move(oracle_rows);
    trial.actual = std::move(store_rows);
    return trial;
  }
  std::vector<std::string> rel_rows = RunOnRelational(db, binding);
  if (rel_rows != oracle_rows) {
    trial.mismatch = true;
    trial.backend = "relational";
    trial.expected = std::move(oracle_rows);
    trial.actual = std::move(rel_rows);
  }
  return trial;
}

// ---- Shrinking ------------------------------------------------------------

/// True when no comment replies to message index `idx` (safe to remove).
bool IsLeafMessage(const schema::SocialNetwork& net, size_t idx) {
  schema::MessageId id = net.messages[idx].id;
  for (const schema::Message& m : net.messages) {
    if (m.kind == schema::MessageKind::kComment && m.reply_to_id == id) {
      return false;
    }
  }
  return true;
}

bool PersonReferenced(const schema::SocialNetwork& net, schema::PersonId id) {
  for (const schema::Knows& k : net.knows) {
    if (k.person1_id == id || k.person2_id == id) return true;
  }
  for (const schema::Forum& f : net.forums) {
    if (f.moderator_id == id) return true;
  }
  for (const schema::ForumMembership& m : net.memberships) {
    if (m.person_id == id) return true;
  }
  for (const schema::Message& m : net.messages) {
    if (m.creator_id == id) return true;
  }
  for (const schema::Like& l : net.likes) {
    if (l.person_id == id) return true;
  }
  return false;
}

bool ForumReferenced(const schema::SocialNetwork& net, schema::ForumId id) {
  for (const schema::ForumMembership& m : net.memberships) {
    if (m.forum_id == id) return true;
  }
  for (const schema::Message& m : net.messages) {
    if (m.forum_id == id) return true;
  }
  return false;
}

/// Greedy delta-debugging: remove one entity at a time (likes first, then
/// memberships, leaf messages, knows edges, unreferenced forums, finally
/// unreferenced persons), keeping a removal only when the mismatch still
/// reproduces. Runs passes until a fixpoint.
schema::SocialNetwork ShrinkNetwork(schema::SocialNetwork net,
                                    const FuzzBinding& binding,
                                    const StorePerturbation& perturb,
                                    uint32_t shard_count,
                                    Trial* final_trial) {
  auto still_fails = [&](const schema::SocialNetwork& candidate) {
    Trial t = RunTrial(candidate, binding, perturb, shard_count);
    return t.loaded && t.mismatch;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < net.likes.size();) {
      schema::SocialNetwork candidate = net;
      candidate.likes.erase(candidate.likes.begin() + i);
      if (still_fails(candidate)) {
        net = std::move(candidate);
        changed = true;
      } else {
        ++i;
      }
    }
    for (size_t i = 0; i < net.memberships.size();) {
      schema::SocialNetwork candidate = net;
      candidate.memberships.erase(candidate.memberships.begin() + i);
      if (still_fails(candidate)) {
        net = std::move(candidate);
        changed = true;
      } else {
        ++i;
      }
    }
    // Messages: remove leaves only (reply trees stay well-formed); the
    // removed message's likes go with it.
    for (size_t i = net.messages.size(); i-- > 0;) {
      if (!IsLeafMessage(net, i)) continue;
      schema::SocialNetwork candidate = net;
      schema::MessageId id = candidate.messages[i].id;
      candidate.messages.erase(candidate.messages.begin() + i);
      candidate.likes.erase(
          std::remove_if(candidate.likes.begin(), candidate.likes.end(),
                         [id](const schema::Like& l) {
                           return l.message_id == id;
                         }),
          candidate.likes.end());
      if (still_fails(candidate)) {
        net = std::move(candidate);
        changed = true;
      }
    }
    for (size_t i = 0; i < net.knows.size();) {
      schema::SocialNetwork candidate = net;
      candidate.knows.erase(candidate.knows.begin() + i);
      if (still_fails(candidate)) {
        net = std::move(candidate);
        changed = true;
      } else {
        ++i;
      }
    }
    for (size_t i = net.forums.size(); i-- > 0;) {
      if (ForumReferenced(net, net.forums[i].id)) continue;
      schema::SocialNetwork candidate = net;
      candidate.forums.erase(candidate.forums.begin() + i);
      if (still_fails(candidate)) {
        net = std::move(candidate);
        changed = true;
      }
    }
    for (size_t i = net.persons.size(); i-- > 0;) {
      if (PersonReferenced(net, net.persons[i].id)) continue;
      schema::SocialNetwork candidate = net;
      candidate.persons.erase(candidate.persons.begin() + i);
      if (still_fails(candidate)) {
        net = std::move(candidate);
        changed = true;
      }
    }
  }
  *final_trial = RunTrial(net, binding, perturb, shard_count);
  return net;
}

// ---- Generation -----------------------------------------------------------

std::vector<FuzzBinding> BuildBindings(const schema::SocialNetwork& net,
                                       util::Rng& rng) {
  std::vector<FuzzBinding> bindings;
  size_t num_persons = net.persons.size();
  std::vector<schema::PersonId> probes = {
      net.persons[rng.NextBounded(num_persons)].id,
      net.persons[rng.NextBounded(num_persons)].id,
      static_cast<schema::PersonId>(num_persons + 77),  // Absent.
  };
  std::vector<schema::MessageId> msg_probes;
  if (!net.messages.empty()) {
    msg_probes.push_back(
        net.messages[rng.NextBounded(net.messages.size())].id);
    msg_probes.push_back(
        net.messages[rng.NextBounded(net.messages.size())].id);
  }
  msg_probes.push_back(
      static_cast<schema::MessageId>(net.messages.size() + 7777));  // Absent.

  // Dates spanning the generated message range (see GenerateFuzzNetwork).
  auto random_date = [&rng]() -> int64_t {
    return util::kNetworkStartMs +
           static_cast<int64_t>(rng.NextBounded(80)) * util::kMillisPerHour;
  };

  for (schema::PersonId person : probes) {
    FuzzBinding base;
    base.person = person;
    {
      FuzzBinding b = base;
      b.op = "complex.Q1";
      b.name = kFirstNames[rng.NextBounded(4)];
      bindings.push_back(b);
    }
    for (const char* op : {"complex.Q2", "complex.Q5", "complex.Q9"}) {
      FuzzBinding b = base;
      b.op = op;
      b.date = random_date();
      bindings.push_back(b);
    }
    {
      FuzzBinding b = base;
      b.op = "complex.Q3";
      b.a = rng.NextBounded(kNumCountries);
      b.b = (b.a + 1 + rng.NextBounded(kNumCountries - 1)) % kNumCountries;
      b.date = random_date();
      b.days = 1 + static_cast<int>(rng.NextBounded(4));
      bindings.push_back(b);
    }
    {
      FuzzBinding b = base;
      b.op = "complex.Q4";
      b.date = random_date();
      b.days = 1 + static_cast<int>(rng.NextBounded(4));
      bindings.push_back(b);
    }
    {
      FuzzBinding b = base;
      b.op = "complex.Q6";
      b.a = rng.NextBounded(kNumTags);
      bindings.push_back(b);
    }
    for (const char* op : {"complex.Q7", "complex.Q8", "short.S1",
                           "short.S2", "short.S3"}) {
      FuzzBinding b = base;
      b.op = op;
      bindings.push_back(b);
    }
    {
      FuzzBinding b = base;
      b.op = "complex.Q10";
      b.a = 1 + rng.NextBounded(12);
      bindings.push_back(b);
    }
    {
      FuzzBinding b = base;
      b.op = "complex.Q11";
      b.b = rng.NextBounded(kNumCountries);
      b.a = 2000 + rng.NextBounded(16);  // max_work_year.
      bindings.push_back(b);
    }
    {
      FuzzBinding b = base;
      b.op = "complex.Q12";
      b.a = rng.NextBounded(kNumTagClasses);
      bindings.push_back(b);
    }
  }
  for (auto [p1, p2] : {std::pair(probes[0], probes[1]),
                        std::pair(probes[1], probes[1]),
                        std::pair(probes[0], probes[2])}) {
    FuzzBinding q13;
    q13.op = "complex.Q13";
    q13.person = p1;
    q13.person2 = p2;
    bindings.push_back(q13);
    FuzzBinding q14 = q13;
    q14.op = "complex.Q14";
    bindings.push_back(q14);
  }
  for (schema::MessageId message : msg_probes) {
    for (const char* op : {"short.S4", "short.S5", "short.S6", "short.S7"}) {
      FuzzBinding b;
      b.op = op;
      b.message = message;
      bindings.push_back(b);
    }
  }
  return bindings;
}

}  // namespace

schema::SocialNetwork GenerateFuzzNetwork(uint64_t seed, int max_persons) {
  if (max_persons < 2) max_persons = 2;
  util::Rng rng(seed, 0xF022ULL, util::RandomPurpose::kParameterPick);
  schema::SocialNetwork net;

  size_t num_persons =
      2 + rng.NextBounded(static_cast<uint64_t>(max_persons) - 1);
  for (size_t i = 0; i < num_persons; ++i) {
    schema::Person p;
    p.id = i + 1;  // Dense ids 1..P.
    p.first_name = kFirstNames[rng.NextBounded(4)];
    p.last_name = kLastNames[rng.NextBounded(4)];
    p.gender = static_cast<uint8_t>(rng.NextBounded(2));
    // Birthdays spread over ~4 years so every horoscope month occurs.
    p.birthday = util::TimestampFromDate(1985, 1, 1) +
                 static_cast<int64_t>(rng.NextBounded(365 * 4)) *
                     util::kMillisPerDay;
    p.creation_date = util::kNetworkStartMs -
                      static_cast<int64_t>(rng.NextBounded(100)) *
                          util::kMillisPerDay;
    p.city_id = static_cast<schema::PlaceId>(rng.NextBounded(kNumCities));
    p.browser = rng.NextBool(0.5) ? "Firefox" : "Safari";
    p.location_ip = "10.0.0." + FormatU64(rng.NextBounded(256));
    for (size_t t = 0; t < kNumTags; ++t) {
      if (rng.NextBool(0.3)) p.interests.push_back(static_cast<schema::TagId>(t));
    }
    if (rng.NextBool(0.6)) {
      p.university_id =
          static_cast<schema::OrganizationId>(rng.NextBounded(kNumUniversities));
      p.study_year = static_cast<uint16_t>(2000 + rng.NextBounded(10));
    }
    if (rng.NextBool(0.6)) {
      p.company_id =
          static_cast<schema::OrganizationId>(rng.NextBounded(kNumCompanies));
      p.work_year = static_cast<uint16_t>(2000 + rng.NextBounded(15));
    }
    net.persons.push_back(std::move(p));
  }

  // Knows: each unordered pair with probability ~3/P (average degree ~3,
  // enough for multi-hop structure without saturating tiny graphs).
  double edge_probability =
      std::min(0.9, 3.0 / static_cast<double>(num_persons));
  for (size_t i = 0; i < num_persons; ++i) {
    for (size_t j = i + 1; j < num_persons; ++j) {
      if (!rng.NextBool(edge_probability)) continue;
      schema::Knows k;
      k.person1_id = net.persons[i].id;
      k.person2_id = net.persons[j].id;
      k.creation_date = util::kNetworkStartMs +
                        static_cast<int64_t>(rng.NextBounded(50)) *
                            util::kMillisPerHour;
      net.knows.push_back(k);
    }
  }

  size_t num_forums = 1 + rng.NextBounded(3);
  for (size_t f = 0; f < num_forums; ++f) {
    schema::Forum forum;
    forum.id = f + 1;
    forum.title = "Forum " + FormatU64(f + 1);
    forum.moderator_id = net.persons[rng.NextBounded(num_persons)].id;
    forum.creation_date = util::kNetworkStartMs;
    net.forums.push_back(std::move(forum));
  }
  for (const schema::Forum& forum : net.forums) {
    for (const schema::Person& person : net.persons) {
      if (!rng.NextBool(0.4)) continue;
      schema::ForumMembership m;
      m.forum_id = forum.id;
      m.person_id = person.id;
      m.join_date = util::kNetworkStartMs +
                    static_cast<int64_t>(rng.NextBounded(60)) *
                        util::kMillisPerHour;
      net.memberships.push_back(m);
    }
  }

  // Messages: ids in creation order with strictly increasing dates, so a
  // comment always replies to an earlier message; roots and forums
  // propagate down reply chains. Content occasionally contains JSON-hostile
  // characters to exercise artifact escaping.
  size_t num_messages = rng.NextBounded(4 * num_persons + 1);
  for (size_t m = 0; m < num_messages; ++m) {
    schema::Message msg;
    msg.id = m + 1;
    msg.creator_id = net.persons[rng.NextBounded(num_persons)].id;
    msg.creation_date = util::kNetworkStartMs +
                        static_cast<int64_t>(m) * 2 * util::kMillisPerHour +
                        static_cast<int64_t>(rng.NextBounded(60)) *
                            util::kMillisPerMinute;
    msg.content = "msg-" + FormatU64(msg.id);
    if (rng.NextBool(0.2)) msg.content += " \"quoted\\path\"";
    for (size_t t = 0; t < kNumTags; ++t) {
      if (rng.NextBool(0.25)) msg.tags.push_back(static_cast<schema::TagId>(t));
    }
    msg.country_id =
        static_cast<schema::PlaceId>(rng.NextBounded(kNumCountries));
    if (m == 0 || rng.NextBool(0.55)) {
      msg.kind = rng.NextBool(0.2) ? schema::MessageKind::kPhoto
                                   : schema::MessageKind::kPost;
      msg.forum_id = net.forums[rng.NextBounded(net.forums.size())].id;
      msg.root_post_id = msg.id;
    } else {
      const schema::Message& parent = net.messages[rng.NextBounded(m)];
      msg.kind = schema::MessageKind::kComment;
      msg.reply_to_id = parent.id;
      msg.root_post_id = parent.root_post_id;
      msg.forum_id = parent.forum_id;
    }
    net.messages.push_back(std::move(msg));
  }

  // Likes: globally distinct creation dates (Q7's comparator ties only on
  // equal dates; distinct dates keep every result totally ordered), each
  // like strictly after its message.
  int64_t like_serial = 0;
  for (const schema::Person& person : net.persons) {
    for (const schema::Message& msg : net.messages) {
      if (!rng.NextBool(0.12)) continue;
      schema::Like like;
      like.person_id = person.id;
      like.message_id = msg.id;
      like.creation_date =
          msg.creation_date + 1 + (like_serial++) * util::kMillisPerMinute;
      net.likes.push_back(like);
    }
  }
  return net;
}

util::Status RunDifferentialFuzz(const FuzzConfig& config, FuzzOutcome* out) {
  return RunDifferentialFuzz(config, nullptr, out);
}

util::Status RunDifferentialFuzz(const FuzzConfig& config,
                                 const StorePerturbation& perturb,
                                 FuzzOutcome* out) {
  *out = FuzzOutcome();
  for (int g = 0; g < config.num_graphs; ++g) {
    uint64_t graph_seed =
        util::Mix64(config.seed + static_cast<uint64_t>(g) * 0x9e3779b9ULL);
    schema::SocialNetwork net =
        GenerateFuzzNetwork(graph_seed, config.max_persons);
    uint32_t shard_count = ShardCountForSeed(graph_seed);

    store::GraphStore store(store::ReadConcurrency::kEpoch, shard_count);
    SNB_RETURN_IF_ERROR(store.BulkLoad(net));
    rel::RelationalDb db;
    SNB_RETURN_IF_ERROR(db.BulkLoad(net));
    Oracle oracle(net);

    util::Rng binding_rng(graph_seed, 0xB16DULL,
                          util::RandomPurpose::kParameterPick);
    std::vector<FuzzBinding> bindings = BuildBindings(net, binding_rng);
    for (const FuzzBinding& binding : bindings) {
      std::vector<std::string> oracle_rows = RunOnOracle(oracle, binding);
      std::vector<std::string> store_rows = RunOnStore(store, binding);
      if (perturb) perturb(binding.op, &store_rows);
      std::vector<std::string> rel_rows = RunOnRelational(db, binding);
      out->comparisons += 2;

      std::string backend;
      if (store_rows != oracle_rows) {
        backend = "store";
      } else if (rel_rows != oracle_rows) {
        backend = "relational";
      } else {
        continue;
      }
      ++out->mismatches;
      Trial final_trial;
      out->first.graph =
          ShrinkNetwork(net, binding, perturb, shard_count, &final_trial);
      out->first.graph_seed = graph_seed;
      out->first.shard_count = shard_count;
      out->first.binding = binding;
      if (final_trial.mismatch) {
        out->first.backend = final_trial.backend;
        out->first.expected = std::move(final_trial.expected);
        out->first.actual = std::move(final_trial.actual);
      } else {
        // Shrinking should preserve the mismatch; fall back to the
        // original-graph evidence if it somehow evaporated.
        out->first.backend = backend;
        out->first.expected = std::move(oracle_rows);
        if (backend == "store") {
          out->first.actual = std::move(store_rows);
        } else {
          out->first.actual = std::move(rel_rows);
        }
        out->first.graph = std::move(net);
      }
      return util::Status::Ok();  // Stop at the first counterexample.
    }
    ++out->graphs_run;
  }
  return util::Status::Ok();
}

bool MismatchReproduces(const FuzzMismatch& mismatch,
                        const StorePerturbation& perturb) {
  Trial trial =
      RunTrial(mismatch.graph, mismatch.binding, perturb, mismatch.shard_count);
  return trial.loaded && trial.mismatch && trial.backend == mismatch.backend;
}

// ---- Artifact serialization ----------------------------------------------

namespace {

using jsonio::AppendEscaped;
using jsonio::AppendI64Field;
using jsonio::AppendKey;
using jsonio::AppendU64Field;
using jsonio::AppendU64StrField;

void AppendStringField(std::string* out, const char* key,
                       const std::string& value) {
  AppendKey(out, key);
  AppendEscaped(out, value);
}

void AppendTagArray(std::string* out, const char* key,
                    const std::vector<schema::TagId>& tags) {
  AppendKey(out, key);
  *out += "[";
  for (size_t i = 0; i < tags.size(); ++i) {
    if (i != 0) *out += ",";
    *out += FormatU64(tags[i]);
  }
  *out += "]";
}

void AppendRows(std::string* out, const char* key,
                const std::vector<std::string>& rows) {
  AppendKey(out, key);
  *out += "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) *out += ",";
    AppendEscaped(out, rows[i]);
  }
  *out += "]";
}

util::Status GetTagArray(const obs::JsonValue& obj, const char* key,
                         std::vector<schema::TagId>* out) {
  const obs::JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != obs::JsonValue::Kind::kArray) {
    return util::Status::InvalidArgument(std::string(kWhat) + ": bad \"" +
                                         key + "\"");
  }
  for (const obs::JsonValue& e : v->array) {
    out->push_back(static_cast<schema::TagId>(e.number));
  }
  return util::Status::Ok();
}

util::Status GetRows(const obs::JsonValue& obj, const char* key,
                     std::vector<std::string>* out) {
  const obs::JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != obs::JsonValue::Kind::kArray) {
    return util::Status::InvalidArgument(std::string(kWhat) + ": bad \"" +
                                         key + "\"");
  }
  for (const obs::JsonValue& e : v->array) {
    out->push_back(e.string);
  }
  return util::Status::Ok();
}

const obs::JsonValue* RequireArray(const obs::JsonValue& obj,
                                   const char* key) {
  const obs::JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != obs::JsonValue::Kind::kArray) return nullptr;
  return v;
}

}  // namespace

std::string MismatchToJson(const FuzzMismatch& mismatch) {
  std::string out = "{";
  AppendStringField(&out, "schema", kArtifactTag);
  out += ",";
  AppendKey(&out, "graph_seed");
  AppendEscaped(&out, FormatU64(mismatch.graph_seed));
  out += ",";
  AppendU64Field(&out, "shard_count",
                 mismatch.shard_count == 0 ? 1 : mismatch.shard_count);
  out += ",";
  AppendStringField(&out, "backend", mismatch.backend);
  out += ",\n";

  const FuzzBinding& b = mismatch.binding;
  AppendKey(&out, "binding");
  out += "{";
  AppendStringField(&out, "op", b.op);
  out += ",";
  AppendU64StrField(&out, "person", b.person);
  out += ",";
  AppendU64StrField(&out, "person2", b.person2);
  out += ",";
  AppendU64StrField(&out, "message", b.message);
  out += ",";
  AppendI64Field(&out, "date", b.date);
  out += ",";
  AppendI64Field(&out, "days", b.days);
  out += ",";
  AppendU64Field(&out, "a", b.a);
  out += ",";
  AppendU64Field(&out, "b", b.b);
  out += ",";
  AppendStringField(&out, "name", b.name);
  out += "},\n";

  AppendRows(&out, "expected", mismatch.expected);
  out += ",\n";
  AppendRows(&out, "actual", mismatch.actual);
  out += ",\n";

  const schema::SocialNetwork& g = mismatch.graph;
  AppendKey(&out, "graph");
  out += "{";
  AppendKey(&out, "persons");
  out += "[";
  for (size_t i = 0; i < g.persons.size(); ++i) {
    const schema::Person& p = g.persons[i];
    if (i != 0) out += ",";
    out += "\n{";
    AppendU64StrField(&out, "id", p.id);
    out += ",";
    AppendStringField(&out, "first_name", p.first_name);
    out += ",";
    AppendStringField(&out, "last_name", p.last_name);
    out += ",";
    AppendU64Field(&out, "gender", p.gender);
    out += ",";
    AppendI64Field(&out, "birthday", p.birthday);
    out += ",";
    AppendI64Field(&out, "creation_date", p.creation_date);
    out += ",";
    AppendU64Field(&out, "city", p.city_id);
    out += ",";
    AppendStringField(&out, "browser", p.browser);
    out += ",";
    AppendStringField(&out, "ip", p.location_ip);
    out += ",";
    AppendTagArray(&out, "interests", p.interests);
    out += ",";
    AppendU64Field(&out, "university", p.university_id);
    out += ",";
    AppendU64Field(&out, "study_year", p.study_year);
    out += ",";
    AppendU64Field(&out, "company", p.company_id);
    out += ",";
    AppendU64Field(&out, "work_year", p.work_year);
    out += "}";
  }
  out += "],";
  AppendKey(&out, "knows");
  out += "[";
  for (size_t i = 0; i < g.knows.size(); ++i) {
    const schema::Knows& k = g.knows[i];
    if (i != 0) out += ",";
    out += "\n{";
    AppendU64StrField(&out, "p1", k.person1_id);
    out += ",";
    AppendU64StrField(&out, "p2", k.person2_id);
    out += ",";
    AppendI64Field(&out, "since", k.creation_date);
    out += "}";
  }
  out += "],";
  AppendKey(&out, "forums");
  out += "[";
  for (size_t i = 0; i < g.forums.size(); ++i) {
    const schema::Forum& f = g.forums[i];
    if (i != 0) out += ",";
    out += "\n{";
    AppendU64StrField(&out, "id", f.id);
    out += ",";
    AppendStringField(&out, "title", f.title);
    out += ",";
    AppendU64StrField(&out, "moderator", f.moderator_id);
    out += ",";
    AppendI64Field(&out, "creation_date", f.creation_date);
    out += "}";
  }
  out += "],";
  AppendKey(&out, "memberships");
  out += "[";
  for (size_t i = 0; i < g.memberships.size(); ++i) {
    const schema::ForumMembership& m = g.memberships[i];
    if (i != 0) out += ",";
    out += "\n{";
    AppendU64StrField(&out, "forum", m.forum_id);
    out += ",";
    AppendU64StrField(&out, "person", m.person_id);
    out += ",";
    AppendI64Field(&out, "join_date", m.join_date);
    out += "}";
  }
  out += "],";
  AppendKey(&out, "messages");
  out += "[";
  for (size_t i = 0; i < g.messages.size(); ++i) {
    const schema::Message& m = g.messages[i];
    if (i != 0) out += ",";
    out += "\n{";
    AppendU64StrField(&out, "id", m.id);
    out += ",";
    AppendU64Field(&out, "kind", static_cast<uint64_t>(m.kind));
    out += ",";
    AppendU64StrField(&out, "creator", m.creator_id);
    out += ",";
    AppendI64Field(&out, "creation_date", m.creation_date);
    out += ",";
    AppendU64StrField(&out, "forum", m.forum_id);
    out += ",";
    AppendU64StrField(&out, "reply_to", m.reply_to_id);
    out += ",";
    AppendU64StrField(&out, "root", m.root_post_id);
    out += ",";
    AppendStringField(&out, "content", m.content);
    out += ",";
    AppendTagArray(&out, "tags", m.tags);
    out += ",";
    AppendU64Field(&out, "country", m.country_id);
    out += "}";
  }
  out += "],";
  AppendKey(&out, "likes");
  out += "[";
  for (size_t i = 0; i < g.likes.size(); ++i) {
    const schema::Like& l = g.likes[i];
    if (i != 0) out += ",";
    out += "\n{";
    AppendU64StrField(&out, "person", l.person_id);
    out += ",";
    AppendU64StrField(&out, "message", l.message_id);
    out += ",";
    AppendI64Field(&out, "creation_date", l.creation_date);
    out += "}";
  }
  out += "]}}\n";
  return out;
}

util::Status MismatchFromJson(const std::string& json, FuzzMismatch* out) {
  obs::JsonValue root;
  std::string error;
  if (!obs::ParseJson(json, &root, &error)) {
    return util::Status::InvalidArgument(std::string(kWhat) +
                                         ": JSON parse error: " + error);
  }
  std::string schema_tag;
  SNB_RETURN_IF_ERROR(jsonio::GetString(root, "schema", &schema_tag, kWhat));
  if (schema_tag != kArtifactTag && schema_tag != kArtifactTagV1) {
    return util::Status::InvalidArgument(std::string(kWhat) +
                                         ": unsupported schema \"" +
                                         schema_tag + "\"");
  }
  SNB_RETURN_IF_ERROR(
      jsonio::GetU64(root, "graph_seed", &out->graph_seed, kWhat));
  out->shard_count = 1;  // v1 artifacts predate sharding.
  if (schema_tag == std::string(kArtifactTag)) {
    uint64_t shards = 0;
    SNB_RETURN_IF_ERROR(jsonio::GetU64(root, "shard_count", &shards, kWhat));
    if (shards < 1 || shards > store::kMaxShards) {
      return util::Status::InvalidArgument(
          std::string(kWhat) + ": shard_count out of range [1, " +
          FormatU64(store::kMaxShards) + "]");
    }
    out->shard_count = static_cast<uint32_t>(shards);
  }
  SNB_RETURN_IF_ERROR(jsonio::GetString(root, "backend", &out->backend, kWhat));

  const obs::JsonValue* binding = root.Find("binding");
  if (binding == nullptr) {
    return util::Status::InvalidArgument(std::string(kWhat) +
                                         ": missing \"binding\"");
  }
  FuzzBinding& b = out->binding;
  SNB_RETURN_IF_ERROR(jsonio::GetString(*binding, "op", &b.op, kWhat));
  SNB_RETURN_IF_ERROR(jsonio::GetU64(*binding, "person", &b.person, kWhat));
  SNB_RETURN_IF_ERROR(jsonio::GetU64(*binding, "person2", &b.person2, kWhat));
  SNB_RETURN_IF_ERROR(jsonio::GetU64(*binding, "message", &b.message, kWhat));
  SNB_RETURN_IF_ERROR(jsonio::GetI64(*binding, "date", &b.date, kWhat));
  int64_t days = 0;
  SNB_RETURN_IF_ERROR(jsonio::GetI64(*binding, "days", &days, kWhat));
  b.days = static_cast<int>(days);
  SNB_RETURN_IF_ERROR(jsonio::GetU64(*binding, "a", &b.a, kWhat));
  SNB_RETURN_IF_ERROR(jsonio::GetU64(*binding, "b", &b.b, kWhat));
  SNB_RETURN_IF_ERROR(jsonio::GetString(*binding, "name", &b.name, kWhat));

  SNB_RETURN_IF_ERROR(GetRows(root, "expected", &out->expected));
  SNB_RETURN_IF_ERROR(GetRows(root, "actual", &out->actual));

  const obs::JsonValue* graph = root.Find("graph");
  if (graph == nullptr) {
    return util::Status::InvalidArgument(std::string(kWhat) +
                                         ": missing \"graph\"");
  }
  schema::SocialNetwork& g = out->graph;
  const obs::JsonValue* persons = RequireArray(*graph, "persons");
  const obs::JsonValue* knows = RequireArray(*graph, "knows");
  const obs::JsonValue* forums = RequireArray(*graph, "forums");
  const obs::JsonValue* memberships = RequireArray(*graph, "memberships");
  const obs::JsonValue* messages = RequireArray(*graph, "messages");
  const obs::JsonValue* likes = RequireArray(*graph, "likes");
  if (persons == nullptr || knows == nullptr || forums == nullptr ||
      memberships == nullptr || messages == nullptr || likes == nullptr) {
    return util::Status::InvalidArgument(std::string(kWhat) +
                                         ": graph section incomplete");
  }
  for (const obs::JsonValue& v : persons->array) {
    schema::Person p;
    uint64_t u = 0;
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "id", &p.id, kWhat));
    SNB_RETURN_IF_ERROR(jsonio::GetString(v, "first_name", &p.first_name, kWhat));
    SNB_RETURN_IF_ERROR(jsonio::GetString(v, "last_name", &p.last_name, kWhat));
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "gender", &u, kWhat));
    p.gender = static_cast<uint8_t>(u);
    SNB_RETURN_IF_ERROR(jsonio::GetI64(v, "birthday", &p.birthday, kWhat));
    SNB_RETURN_IF_ERROR(
        jsonio::GetI64(v, "creation_date", &p.creation_date, kWhat));
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "city", &u, kWhat));
    p.city_id = static_cast<schema::PlaceId>(u);
    SNB_RETURN_IF_ERROR(jsonio::GetString(v, "browser", &p.browser, kWhat));
    SNB_RETURN_IF_ERROR(jsonio::GetString(v, "ip", &p.location_ip, kWhat));
    SNB_RETURN_IF_ERROR(GetTagArray(v, "interests", &p.interests));
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "university", &u, kWhat));
    p.university_id = static_cast<schema::OrganizationId>(u);
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "study_year", &u, kWhat));
    p.study_year = static_cast<uint16_t>(u);
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "company", &u, kWhat));
    p.company_id = static_cast<schema::OrganizationId>(u);
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "work_year", &u, kWhat));
    p.work_year = static_cast<uint16_t>(u);
    g.persons.push_back(std::move(p));
  }
  for (const obs::JsonValue& v : knows->array) {
    schema::Knows k;
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "p1", &k.person1_id, kWhat));
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "p2", &k.person2_id, kWhat));
    SNB_RETURN_IF_ERROR(jsonio::GetI64(v, "since", &k.creation_date, kWhat));
    g.knows.push_back(k);
  }
  for (const obs::JsonValue& v : forums->array) {
    schema::Forum f;
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "id", &f.id, kWhat));
    SNB_RETURN_IF_ERROR(jsonio::GetString(v, "title", &f.title, kWhat));
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "moderator", &f.moderator_id, kWhat));
    SNB_RETURN_IF_ERROR(
        jsonio::GetI64(v, "creation_date", &f.creation_date, kWhat));
    g.forums.push_back(std::move(f));
  }
  for (const obs::JsonValue& v : memberships->array) {
    schema::ForumMembership m;
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "forum", &m.forum_id, kWhat));
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "person", &m.person_id, kWhat));
    SNB_RETURN_IF_ERROR(jsonio::GetI64(v, "join_date", &m.join_date, kWhat));
    g.memberships.push_back(m);
  }
  for (const obs::JsonValue& v : messages->array) {
    schema::Message m;
    uint64_t u = 0;
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "id", &m.id, kWhat));
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "kind", &u, kWhat));
    if (u > static_cast<uint64_t>(schema::MessageKind::kPhoto)) {
      return util::Status::InvalidArgument(std::string(kWhat) +
                                           ": bad message kind");
    }
    m.kind = static_cast<schema::MessageKind>(u);
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "creator", &m.creator_id, kWhat));
    SNB_RETURN_IF_ERROR(
        jsonio::GetI64(v, "creation_date", &m.creation_date, kWhat));
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "forum", &m.forum_id, kWhat));
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "reply_to", &m.reply_to_id, kWhat));
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "root", &m.root_post_id, kWhat));
    SNB_RETURN_IF_ERROR(jsonio::GetString(v, "content", &m.content, kWhat));
    SNB_RETURN_IF_ERROR(GetTagArray(v, "tags", &m.tags));
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "country", &u, kWhat));
    m.country_id = static_cast<schema::PlaceId>(u);
    g.messages.push_back(std::move(m));
  }
  for (const obs::JsonValue& v : likes->array) {
    schema::Like l;
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "person", &l.person_id, kWhat));
    SNB_RETURN_IF_ERROR(jsonio::GetU64(v, "message", &l.message_id, kWhat));
    SNB_RETURN_IF_ERROR(
        jsonio::GetI64(v, "creation_date", &l.creation_date, kWhat));
    g.likes.push_back(l);
  }
  return util::Status::Ok();
}

util::Status WriteMismatch(const FuzzMismatch& mismatch,
                           const std::string& path) {
  return obs::WriteFileReport(path, MismatchToJson(mismatch));
}

util::Status ReadMismatch(const std::string& path, FuzzMismatch* out) {
  std::string text;
  SNB_RETURN_IF_ERROR(jsonio::ReadWholeFile(path, &text));
  return MismatchFromJson(text, out);
}

}  // namespace snb::validate
