// Concurrency stress: reader threads run CQ2/CQ9, CQ12 and the traversal
// queries CQ1/CQ13/CQ14 in a tight loop while the main thread replays the
// generated update stream against the same store (epoch read mode, the
// default). Traversal pairs include persons the stream adds, so the
// per-thread traversal scratch grows while writers publish; CQ12 starts
// at persons whose friends' reply-target lists the stream appends to, and
// CQ14 weighs paths over the same lists. Readers verify
// per-query invariants that must hold under any snapshot; afterwards the
// stressed store must answer identically to a replica loaded sequentially.
//
// Built under -DSNB_SANITIZE=thread this doubles as the TSan workload for
// the lock-free read path (ctest -L concurrency).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "queries/complex_queries.h"
#include "queries/update_queries.h"
#include "store/graph_store.h"

namespace snb::store {
namespace {

// Far past every generated creation date (year 2100).
constexpr util::TimestampMs kFarFuture = 4102444800000;

struct ReaderStats {
  uint64_t queries = 0;
  uint64_t results = 0;
};

// Returns a description of the first invariant violation, or "" if clean.
// Runs under its own ReadLock so record lookups are snapshot-safe.
std::string CheckQ2(const GraphStore& store, schema::PersonId start,
                    const std::vector<queries::Q2Result>& results) {
  auto pin = store.ReadLock();
  for (size_t i = 0; i < results.size(); ++i) {
    const queries::Q2Result& r = results[i];
    if (i > 0) {
      const queries::Q2Result& prev = results[i - 1];
      bool ordered = prev.creation_date > r.creation_date ||
                     (prev.creation_date == r.creation_date &&
                      prev.message_id < r.message_id);
      if (!ordered) return "Q2 results not (date desc, id asc) ordered";
    }
    const MessageRecord* m = store.FindMessage(pin, r.message_id);
    if (m == nullptr) return "Q2 returned an unresolvable message id";
    if (m->data.creator_id != r.creator_id) return "Q2 creator mismatch";
    if (m->data.creation_date != r.creation_date) return "Q2 date mismatch";
    // Friendships are insert-only, so a creator that was a friend inside
    // the query's snapshot is still a friend now.
    if (!store.AreFriends(pin, start, r.creator_id)) {
      return "Q2 creator is not a friend of the start person";
    }
  }
  return "";
}

std::string CheckQ9(const GraphStore& store,
                    const std::vector<queries::Q9Result>& results) {
  auto pin = store.ReadLock();
  for (size_t i = 0; i < results.size(); ++i) {
    const queries::Q9Result& r = results[i];
    if (i > 0) {
      const queries::Q9Result& prev = results[i - 1];
      bool ordered = prev.creation_date > r.creation_date ||
                     (prev.creation_date == r.creation_date &&
                      prev.message_id < r.message_id);
      if (!ordered) return "Q9 results not (date desc, id asc) ordered";
    }
    const MessageRecord* m = store.FindMessage(pin, r.message_id);
    if (m == nullptr) return "Q9 returned an unresolvable message id";
    if (m->data.creator_id != r.creator_id) return "Q9 creator mismatch";
    if (m->data.creation_date != r.creation_date) return "Q9 date mismatch";
  }
  return "";
}

std::string CheckQ1(const GraphStore& store, const std::string& first_name,
                    const std::vector<queries::Q1Result>& results) {
  auto pin = store.ReadLock();
  for (size_t i = 0; i < results.size(); ++i) {
    const queries::Q1Result& r = results[i];
    if (r.distance < 1 || r.distance > 3) return "Q1 distance out of 1..3";
    if (i > 0) {
      const queries::Q1Result& prev = results[i - 1];
      bool ordered =
          prev.distance < r.distance ||
          (prev.distance == r.distance &&
           (prev.last_name < r.last_name ||
            (prev.last_name == r.last_name && prev.person_id < r.person_id)));
      if (!ordered) return "Q1 results not (distance, last name, id) ordered";
    }
    const PersonRecord* p = store.FindPerson(pin, r.person_id);
    if (p == nullptr) return "Q1 returned an unresolvable person id";
    if (p->data.first_name != first_name) return "Q1 first name mismatch";
  }
  return "";
}

std::string CheckQ12(const GraphStore& store, schema::PersonId start,
                     const std::vector<queries::Q12Result>& results,
                     size_t limit) {
  auto pin = store.ReadLock();
  if (results.size() > limit) return "Q12 returned more rows than the limit";
  std::set<schema::PersonId> seen;
  for (size_t i = 0; i < results.size(); ++i) {
    const queries::Q12Result& r = results[i];
    if (r.reply_count == 0) return "Q12 returned a zero count";
    if (i > 0) {
      const queries::Q12Result& prev = results[i - 1];
      bool ordered = prev.reply_count > r.reply_count ||
                     (prev.reply_count == r.reply_count &&
                      prev.person_id < r.person_id);
      if (!ordered) return "Q12 results not (count desc, id asc) ordered";
    }
    if (!seen.insert(r.person_id).second) return "Q12 repeats a person";
    if (!store.AreFriends(pin, start, r.person_id)) {
      return "Q12 person is not a friend of the start person";
    }
  }
  return "";
}

std::string CheckQ13(schema::PersonId person1, schema::PersonId person2,
                     int distance) {
  if (person1 == person2) return distance == 0 ? "" : "Q13 self is not 0";
  if (distance == 0 || distance < -1) return "Q13 distance out of range";
  return "";
}

std::string CheckQ14(const GraphStore& store, schema::PersonId person1,
                     schema::PersonId person2,
                     const std::vector<queries::Q14Result>& results) {
  auto pin = store.ReadLock();
  std::set<std::vector<schema::PersonId>> seen;
  for (const queries::Q14Result& r : results) {
    if (r.path.empty() || r.path.front() != person1 ||
        r.path.back() != person2) {
      return "Q14 path endpoints are not person1 .. person2";
    }
    if (r.path.size() != results.front().path.size()) {
      return "Q14 paths of different lengths in one result";
    }
    // Friendships are insert-only, so a hop that was a friendship inside
    // the query's snapshot is still one now.
    for (size_t i = 0; i + 1 < r.path.size(); ++i) {
      if (!store.AreFriends(pin, r.path[i], r.path[i + 1])) {
        return "Q14 path hop is not a friendship";
      }
    }
    if (!seen.insert(r.path).second) return "Q14 repeats a path";
  }
  return "";
}

TEST(ConcurrencyStressTest, ReadersRaceUpdateReplay) {
  datagen::DatagenConfig config = datagen::DatagenConfig::ForScaleFactor(0.02);
  datagen::Dataset ds = datagen::Generate(config);
  ASSERT_FALSE(ds.updates.empty());

  GraphStore store;  // Default mode: epoch snapshot reads.
  ASSERT_EQ(store.read_concurrency(), ReadConcurrency::kEpoch);
  ASSERT_TRUE(store.BulkLoad(ds.bulk).ok());

  std::vector<schema::PersonId> persons;
  {
    auto pin = store.ReadLock();
    persons = store.PersonIds(pin);
  }
  ASSERT_FALSE(persons.empty());
  // Persons the update stream adds: traversals toward them reach ids past
  // every reader's scratch while the writer publishes them.
  std::vector<schema::PersonId> added;
  for (const datagen::UpdateOperation& op : ds.updates) {
    if (const auto* p = std::get_if<schema::Person>(&op.payload)) {
      added.push_back(p->id);
    }
  }
  ASSERT_FALSE(added.empty());
  // Q12 starts: bulk friends of persons who comment in the update stream.
  std::set<schema::PersonId> commenters;
  for (const datagen::UpdateOperation& op : ds.updates) {
    const auto* m = std::get_if<schema::Message>(&op.payload);
    if (m != nullptr && m->kind == schema::MessageKind::kComment) {
      commenters.insert(m->creator_id);
    }
  }
  std::set<schema::PersonId> q12_set;
  for (const schema::Knows& k : ds.bulk.knows) {
    if (commenters.count(k.person2_id) != 0) q12_set.insert(k.person1_id);
    if (commenters.count(k.person1_id) != 0) q12_set.insert(k.person2_id);
  }
  std::vector<schema::PersonId> q12_starts(q12_set.begin(), q12_set.end());
  ASSERT_FALSE(q12_starts.empty());
  // Every other tag id is in the class, so the tag test both passes and
  // fails.
  schema::TagId max_tag = 0;
  for (const schema::Message& m : ds.bulk.messages) {
    for (schema::TagId t : m.tags) max_tag = std::max(max_tag, t);
  }
  std::vector<bool> tag_class(max_tag + 1);
  for (schema::TagId t = 0; t <= max_tag; t += 2) tag_class[t] = true;
  constexpr int kQ12Limit = 20;

  constexpr int kReaders = 4;
  constexpr uint64_t kMinQueriesPerReader = 40;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> errors{0};
  std::string first_error;  // Written once under the flag below.
  std::atomic<bool> error_logged{false};

  auto report = [&](const std::string& what) {
    if (what.empty()) return;
    errors.fetch_add(1, std::memory_order_relaxed);
    bool expected = false;
    if (error_logged.compare_exchange_strong(expected, true)) {
      first_error = what;
    }
  };

  std::vector<ReaderStats> stats(kReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      ReaderStats& my = stats[t];
      size_t cursor = static_cast<size_t>(t);
      while (!done.load(std::memory_order_acquire) ||
             my.queries < kMinQueriesPerReader) {
        schema::PersonId pid = persons[cursor % persons.size()];
        cursor += kReaders;
        auto q2 = queries::Query2(store, pid, kFarFuture);
        report(CheckQ2(store, pid, q2));
        auto q9 = queries::Query9(store, pid, kFarFuture);
        report(CheckQ9(store, q9));
        // Traversals from, toward and between persons the stream adds.
        schema::PersonId fresh = added[cursor % added.size()];
        schema::PersonId fresh2 = added[(cursor * 7 + 3) % added.size()];
        const std::string& name =
            ds.bulk.persons[cursor % ds.bulk.persons.size()].first_name;
        auto q1 = queries::Query1(store, fresh, name);
        report(CheckQ1(store, name, q1));
        int q13 = queries::Query13(store, pid, fresh);
        report(CheckQ13(pid, fresh, q13));
        auto q14 = queries::Query14(store, fresh2, pid);
        report(CheckQ14(store, fresh2, pid, q14));
        auto q14_new = queries::Query14(store, fresh, fresh2);
        report(CheckQ14(store, fresh, fresh2, q14_new));
        schema::PersonId q12_start = q12_starts[cursor % q12_starts.size()];
        auto q12 = queries::Query12(store, q12_start, tag_class, kQ12Limit);
        report(CheckQ12(store, q12_start, q12, kQ12Limit));
        my.queries += 7;
        my.results += q2.size() + q9.size() + q1.size() + q14.size() +
                      q14_new.size() + q12.size();
      }
    });
  }

  // Writer: replay the full update stream on the main thread.
  uint64_t applied = 0;
  for (const datagen::UpdateOperation& op : ds.updates) {
    ASSERT_TRUE(queries::ApplyUpdate(store, op).ok());
    ++applied;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(errors.load(), 0u) << first_error;
  EXPECT_EQ(applied, ds.updates.size());
  uint64_t total_queries = 0;
  for (const ReaderStats& s : stats) total_queries += s.queries;
  EXPECT_GE(total_queries, kReaders * kMinQueriesPerReader);

  // Counters converge to the dataset's ground truth once the stream is in.
  EXPECT_EQ(store.NumPersons(), ds.stats.num_persons);
  EXPECT_EQ(store.NumKnowsEdges(), ds.stats.num_knows);
  EXPECT_EQ(store.NumMessages(), ds.stats.NumMessages());
  EXPECT_EQ(store.NumLikes(), ds.stats.num_likes);

  // The stressed store must be indistinguishable from a sequential load.
  GraphStore replica;
  ASSERT_TRUE(replica.BulkLoad(ds.bulk).ok());
  for (const datagen::UpdateOperation& op : ds.updates) {
    ASSERT_TRUE(queries::ApplyUpdate(replica, op).ok());
  }
  size_t checked = 0;
  for (size_t i = 0; i < persons.size() && checked < 16; i += 7, ++checked) {
    schema::PersonId pid = persons[i];
    auto got = queries::Query9(store, pid, kFarFuture);
    auto want = queries::Query9(replica, pid, kFarFuture);
    ASSERT_EQ(got.size(), want.size()) << "person " << pid;
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].message_id, want[k].message_id);
      EXPECT_EQ(got[k].creator_id, want[k].creator_id);
      EXPECT_EQ(got[k].creation_date, want[k].creation_date);
    }
    // Traversals toward an added person.
    schema::PersonId fresh = added[(i * 13) % added.size()];
    EXPECT_EQ(queries::Query13(store, pid, fresh),
              queries::Query13(replica, pid, fresh))
        << pid << " -> " << fresh;
    auto got14 = queries::Query14(store, pid, fresh);
    auto want14 = queries::Query14(replica, pid, fresh);
    ASSERT_EQ(got14.size(), want14.size()) << pid << " -> " << fresh;
    for (size_t k = 0; k < got14.size(); ++k) {
      EXPECT_EQ(got14[k].path, want14[k].path);
      EXPECT_EQ(got14[k].weight, want14[k].weight);
    }
  }
  // Q12 over the reply-target lists the stream appended to.
  size_t q12_rows = 0;
  for (size_t i = 0; i < q12_starts.size(); i += 3) {
    schema::PersonId start = q12_starts[i];
    auto got = queries::Query12(store, start, tag_class, kQ12Limit);
    auto want = queries::Query12(replica, start, tag_class, kQ12Limit);
    ASSERT_EQ(got.size(), want.size()) << "person " << start;
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].person_id, want[k].person_id);
      EXPECT_EQ(got[k].reply_count, want[k].reply_count);
    }
    q12_rows += got.size();
  }
  EXPECT_GT(q12_rows, 0u);
}

}  // namespace
}  // namespace snb::store
