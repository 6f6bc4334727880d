// Tests for the transactional graph store.
#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "queries/complex_queries.h"
#include "queries/short_queries.h"
#include "queries/update_queries.h"
#include "relational/rel_queries.h"
#include "store/graph_store.h"
#include "store/shard_router.h"
#include "validate/canonical.h"

namespace snb::store {
namespace {

using schema::Forum;
using schema::ForumMembership;
using schema::Knows;
using schema::Like;
using schema::Message;
using schema::MessageKind;
using schema::Person;
using util::StatusCode;

Person MakePerson(schema::PersonId id) {
  Person p;
  p.id = id;
  p.first_name = "First" + std::to_string(id);
  p.last_name = "Last" + std::to_string(id);
  p.creation_date = 1000 + static_cast<int64_t>(id);
  return p;
}

Forum MakeForum(schema::ForumId id, schema::PersonId moderator) {
  Forum f;
  f.id = id;
  f.title = "Forum" + std::to_string(id);
  f.moderator_id = moderator;
  f.creation_date = 2000;
  return f;
}

Message MakePost(schema::MessageId id, schema::PersonId creator,
                 schema::ForumId forum, util::TimestampMs date = 3000) {
  Message m;
  m.id = id;
  m.kind = MessageKind::kPost;
  m.creator_id = creator;
  m.forum_id = forum;
  m.root_post_id = id;
  m.creation_date = date;
  m.content = "hello world";
  return m;
}

TEST(GraphStoreTest, AddAndFindPerson) {
  GraphStore store;
  ASSERT_TRUE(store.AddPerson(MakePerson(1)).ok());
  auto pin = store.ReadLock();
  const PersonRecord* p = store.FindPerson(pin, 1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->data.first_name, "First1");
  EXPECT_EQ(store.FindPerson(pin, 2), nullptr);
}

TEST(GraphStoreTest, DuplicatePersonRejected) {
  GraphStore store;
  ASSERT_TRUE(store.AddPerson(MakePerson(1)).ok());
  EXPECT_EQ(store.AddPerson(MakePerson(1)).code(),
            StatusCode::kAlreadyExists);
}

TEST(GraphStoreTest, FriendshipRequiresBothEndpoints) {
  GraphStore store;
  ASSERT_TRUE(store.AddPerson(MakePerson(1)).ok());
  Knows k{1, 2, 5000};
  EXPECT_EQ(store.AddFriendship(k).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.AddPerson(MakePerson(2)).ok());
  EXPECT_TRUE(store.AddFriendship(k).ok());
  auto pin = store.ReadLock();
  EXPECT_TRUE(store.AreFriends(pin, 1, 2));
  EXPECT_TRUE(store.AreFriends(pin, 2, 1));
  EXPECT_FALSE(store.AreFriends(pin, 1, 3));
  EXPECT_EQ(store.NumKnowsEdges(), 1u);
}

TEST(GraphStoreTest, FriendListsStaySorted) {
  GraphStore store;
  for (schema::PersonId id = 0; id < 10; ++id) {
    ASSERT_TRUE(store.AddPerson(MakePerson(id)).ok());
  }
  // Insert in scrambled order.
  for (schema::PersonId other : {7, 2, 9, 1, 4}) {
    ASSERT_TRUE(store.AddFriendship({0, other, 100}).ok());
  }
  auto pin = store.ReadLock();
  const PersonRecord* p = store.FindPerson(pin, 0);
  ASSERT_NE(p, nullptr);
  for (size_t i = 1; i < p->friends.size(); ++i) {
    EXPECT_LT(p->friends[i - 1].other, p->friends[i].other);
  }
}

TEST(GraphStoreTest, ForumRequiresModerator) {
  GraphStore store;
  EXPECT_EQ(store.AddForum(MakeForum(10, 1)).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.AddPerson(MakePerson(1)).ok());
  EXPECT_TRUE(store.AddForum(MakeForum(10, 1)).ok());
  EXPECT_EQ(store.AddForum(MakeForum(10, 1)).code(),
            StatusCode::kAlreadyExists);
}

TEST(GraphStoreTest, MembershipLinksBothSides) {
  GraphStore store;
  ASSERT_TRUE(store.AddPerson(MakePerson(1)).ok());
  ASSERT_TRUE(store.AddForum(MakeForum(10, 1)).ok());
  EXPECT_EQ(store.AddForumMembership({11, 1, 2500}).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(store.AddForumMembership({10, 1, 2500}).ok());
  auto pin = store.ReadLock();
  EXPECT_EQ(store.FindPerson(pin, 1)->forums.size(), 1u);
  EXPECT_EQ(store.FindForum(pin, 10)->members.size(), 1u);
  EXPECT_EQ(store.FindForum(pin, 10)->members[0].date, 2500);
}

TEST(GraphStoreTest, PostRequiresForumCommentRequiresParent) {
  GraphStore store;
  ASSERT_TRUE(store.AddPerson(MakePerson(1)).ok());
  EXPECT_EQ(store.AddMessage(MakePost(0, 1, 10)).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(store.AddForum(MakeForum(10, 1)).ok());
  ASSERT_TRUE(store.AddMessage(MakePost(0, 1, 10)).ok());

  Message comment;
  comment.id = 1;
  comment.kind = MessageKind::kComment;
  comment.creator_id = 1;
  comment.forum_id = 10;
  comment.reply_to_id = 99;  // Missing parent.
  comment.root_post_id = 0;
  comment.creation_date = 3100;
  EXPECT_EQ(store.AddMessage(comment).code(), StatusCode::kNotFound);
  comment.reply_to_id = 0;
  EXPECT_TRUE(store.AddMessage(comment).ok());

  auto pin = store.ReadLock();
  const MessageRecord* post = store.FindMessage(pin, 0);
  ASSERT_NE(post, nullptr);
  ASSERT_EQ(post->replies.size(), 1u);
  EXPECT_EQ(post->replies[0], 1u);
  EXPECT_EQ(store.FindForum(pin, 10)->posts.size(), 1u);
  EXPECT_EQ(store.FindPerson(pin, 1)->messages.size(), 2u);
}

TEST(GraphStoreTest, LikeRequiresPersonAndMessage) {
  GraphStore store;
  ASSERT_TRUE(store.AddPerson(MakePerson(1)).ok());
  ASSERT_TRUE(store.AddForum(MakeForum(10, 1)).ok());
  ASSERT_TRUE(store.AddMessage(MakePost(0, 1, 10)).ok());
  EXPECT_EQ(store.AddLike({2, 0, 3200}).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.AddLike({1, 5, 3200}).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.AddLike({1, 0, 3200}).ok());
  auto pin = store.ReadLock();
  EXPECT_EQ(store.FindMessage(pin, 0)->likes.size(), 1u);
  EXPECT_EQ(store.FindPerson(pin, 1)->likes.size(), 1u);
  EXPECT_EQ(store.NumLikes(), 1u);
}

TEST(GraphStoreTest, BulkLoadRequiresEmptyStore) {
  GraphStore store;
  ASSERT_TRUE(store.AddPerson(MakePerson(1)).ok());
  schema::SocialNetwork network;
  EXPECT_EQ(store.BulkLoad(network).code(),
            StatusCode::kFailedPrecondition);
}

TEST(GraphStoreTest, BulkLoadFullDataset) {
  datagen::DatagenConfig config;
  config.num_persons = 120;
  datagen::Dataset ds = datagen::Generate(config);
  GraphStore store;
  ASSERT_TRUE(store.BulkLoad(ds.bulk).ok());
  EXPECT_EQ(store.NumPersons(), ds.bulk.persons.size());
  EXPECT_EQ(store.NumKnowsEdges(), ds.bulk.knows.size());
  EXPECT_EQ(store.NumMessages(), ds.bulk.messages.size());
  EXPECT_EQ(store.NumLikes(), ds.bulk.likes.size());
  EXPECT_EQ(store.NumMemberships(), ds.bulk.memberships.size());
  EXPECT_EQ(store.NumForums(), ds.bulk.forums.size());
}

TEST(GraphStoreTest, UpdateStreamAppliesInOrder) {
  datagen::DatagenConfig config;
  config.num_persons = 120;
  datagen::Dataset ds = datagen::Generate(config);
  GraphStore store;
  ASSERT_TRUE(store.BulkLoad(ds.bulk).ok());
  ASSERT_GT(ds.updates.size(), 0u);
  for (const datagen::UpdateOperation& op : ds.updates) {
    util::Status s = queries::ApplyUpdate(store, op);
    ASSERT_TRUE(s.ok()) << datagen::UpdateKindName(op.kind) << ": "
                        << s.ToString();
  }
  EXPECT_EQ(store.NumPersons(), ds.stats.num_persons);
  EXPECT_EQ(store.NumKnowsEdges(), ds.stats.num_knows);
  EXPECT_EQ(store.NumMessages(), ds.stats.NumMessages());
}

TEST(GraphStoreTest, MessageIdsAreDateOrdered) {
  datagen::DatagenConfig config;
  config.num_persons = 100;
  config.split_update_stream = false;
  datagen::Dataset ds = datagen::Generate(config);
  GraphStore store;
  ASSERT_TRUE(store.BulkLoad(ds.bulk).ok());
  auto pin = store.ReadLock();
  util::TimestampMs last = 0;
  for (schema::MessageId id = 0; id < store.MessageIdBound(); ++id) {
    const MessageRecord* m = store.FindMessage(pin, id);
    if (m == nullptr) continue;
    EXPECT_GE(m->data.creation_date, last);
    last = m->data.creation_date;
  }
}

TEST(GraphStoreTest, StorageBreakdownAccountsMajorStructures) {
  datagen::DatagenConfig config;
  config.num_persons = 100;
  config.split_update_stream = false;
  datagen::Dataset ds = datagen::Generate(config);
  GraphStore store;
  ASSERT_TRUE(store.BulkLoad(ds.bulk).ok());
  StorageBreakdown b = store.ComputeStorageBreakdown();
  EXPECT_GT(b.message_bytes, 0u);
  EXPECT_GT(b.message_content_bytes, 0u);
  EXPECT_GT(b.likes_bytes, 0u);
  EXPECT_GT(b.membership_bytes, 0u);
  EXPECT_GT(b.friends_bytes, 0u);
  EXPECT_GT(b.person_bytes, 0u);
  // The message table (with content) dominates, as in Table 8.
  EXPECT_GT(b.message_bytes, b.friends_bytes);
  EXPECT_EQ(b.Total(), b.message_bytes + b.likes_bytes + b.membership_bytes +
                           b.friends_bytes + b.person_bytes + b.forum_bytes);
}

TEST(GraphStoreTest, ConcurrentReadersDuringWritesGlobalLock) {
  // The whole-store invariant (adjacency totals == counters) needs a frozen
  // snapshot, which only the shared-lock mode provides; the epoch mode's
  // weaker per-object guarantees are covered by the test below and by
  // concurrency_stress_test.
  GraphStore store(ReadConcurrency::kGlobalLock);
  for (schema::PersonId id = 0; id < 50; ++id) {
    ASSERT_TRUE(store.AddPerson(MakePerson(id)).ok());
  }
  ASSERT_TRUE(store.AddForum(MakeForum(1000, 0)).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_errors{0};
  std::thread reader([&] {
    while (!stop.load()) {
      auto pin = store.ReadLock();
      // Under the shared lock, edge counters and adjacency must agree.
      uint64_t sum = 0;
      for (schema::PersonId id = 0; id < 50; ++id) {
        const PersonRecord* p = store.FindPerson(pin, id);
        if (p != nullptr) sum += p->friends.size();
      }
      if (sum != 2 * store.NumKnowsEdges()) read_errors.fetch_add(1);
    }
  });
  for (schema::PersonId id = 1; id < 50; ++id) {
    ASSERT_TRUE(store.AddFriendship({0, id, 100}).ok());
    Message m = MakePost(id, id, 1000, 3000 + static_cast<int64_t>(id));
    ASSERT_TRUE(store.AddMessage(m).ok());
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_EQ(store.NumKnowsEdges(), 49u);
}

TEST(GraphStoreTest, ConcurrentReadersDuringWritesEpoch) {
  // Epoch readers never block and see per-object snapshots: every friend
  // list stays sorted and every id reachable through an adjacency list
  // resolves to a fully built record, even mid-write.
  GraphStore store;
  ASSERT_EQ(store.read_concurrency(), ReadConcurrency::kEpoch);
  for (schema::PersonId id = 0; id < 50; ++id) {
    ASSERT_TRUE(store.AddPerson(MakePerson(id)).ok());
  }
  ASSERT_TRUE(store.AddForum(MakeForum(1000, 0)).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_errors{0};
  std::thread reader([&] {
    while (!stop.load()) {
      auto pin = store.ReadLock();
      for (schema::PersonId id = 0; id < 50; ++id) {
        const PersonRecord* p = store.FindPerson(pin, id);
        if (p == nullptr) continue;
        auto friends = p->friends.view();
        for (size_t i = 0; i < friends.size(); ++i) {
          if (i > 0 && friends[i - 1].other >= friends[i].other) {
            read_errors.fetch_add(1);
          }
          if (store.FindPerson(pin, friends[i].other) == nullptr) {
            read_errors.fetch_add(1);
          }
        }
        for (const DatedEdge& e : p->messages.view()) {
          const MessageRecord* m = store.FindMessage(pin, e.id);
          if (m == nullptr || m->data.creation_date != e.date) {
            read_errors.fetch_add(1);
          }
        }
      }
    }
  });
  for (schema::PersonId id = 1; id < 50; ++id) {
    ASSERT_TRUE(store.AddFriendship({0, id, 100}).ok());
    Message m = MakePost(id, id, 1000, 3000 + static_cast<int64_t>(id));
    ASSERT_TRUE(store.AddMessage(m).ok());
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_EQ(store.NumKnowsEdges(), 49u);
  EXPECT_EQ(store.NumMessages(), 49u);
}

// ---- Cross-shard edge battery ---------------------------------------------
//
// Every relationship kind the store models — friendships, likes, forum
// memberships, message containment and replies — is exercised with
// endpoints that hash to *different* shards, then verified by Q9 (both
// engines) and the full short-read battery against the relational baseline
// at every shard count {1, 2, 4, 8}. The fixture asserts its own premise:
// at each N > 1 it must actually contain cross-shard instances of every
// edge kind, so a router change cannot silently degrade this into a
// single-shard test. The hermit and lonely-poster cases from
// queries_edge_test.cc ride along: a person with no edges at all and a
// person with messages but zero friends must produce identical
// (empty-but-found) results on every shard count.
class CrossShardBatteryTest : public ::testing::Test {
 protected:
  static constexpr schema::PersonId kHermit = 555000;
  static constexpr schema::PersonId kLoner = 600;
  static constexpr int kPersons = 12;
  static constexpr util::TimestampMs kBatteryDate = 100000;

  void AddPersonBoth(GraphStore* s, rel::RelationalDb* db,
                     const Person& p) {
    ASSERT_TRUE(s->AddPerson(p).ok());
    ASSERT_TRUE(db->AddPerson(p).ok());
  }
  void AddForumBoth(GraphStore* s, rel::RelationalDb* db, const Forum& f) {
    ASSERT_TRUE(s->AddForum(f).ok());
    ASSERT_TRUE(db->AddForum(f).ok());
  }
  void AddFriendshipBoth(GraphStore* s, rel::RelationalDb* db,
                         const Knows& k) {
    ASSERT_TRUE(s->AddFriendship(k).ok());
    ASSERT_TRUE(db->AddFriendship(k).ok());
  }
  void AddMembershipBoth(GraphStore* s, rel::RelationalDb* db,
                         const ForumMembership& m) {
    ASSERT_TRUE(s->AddForumMembership(m).ok());
    ASSERT_TRUE(db->AddForumMembership(m).ok());
  }
  void AddMessageBoth(GraphStore* s, rel::RelationalDb* db,
                      const Message& m) {
    ASSERT_TRUE(s->AddMessage(m).ok());
    ASSERT_TRUE(db->AddMessage(m).ok());
    message_ids_.push_back(m.id);
  }
  void AddLikeBoth(GraphStore* s, rel::RelationalDb* db, const Like& l) {
    ASSERT_TRUE(s->AddLike(l).ok());
    ASSERT_TRUE(db->AddLike(l).ok());
  }

  /// The deterministic fixture network, inserted through the public Add*
  /// transactions on both SUTs (never BulkLoad, so the sharded write path
  /// is the one under test). Persons 1..12 in a friendship ring plus
  /// +3 chords; four forums; one post per person in a rotating forum;
  /// replies by a *different* person than the post creator; likes rotated
  /// so liker and message land far apart in id space.
  void BuildNetwork(GraphStore* s, rel::RelationalDb* db) {
    message_ids_.clear();
    for (schema::PersonId id = 1; id <= kPersons; ++id) {
      AddPersonBoth(s, db, MakePerson(id));
    }
    AddPersonBoth(s, db, MakePerson(kHermit));
    AddPersonBoth(s, db, MakePerson(kLoner));
    for (schema::ForumId f = 101; f <= 104; ++f) {
      AddForumBoth(s, db, MakeForum(f, static_cast<schema::PersonId>(
                                           (f - 101) % kPersons + 1)));
    }
    for (schema::PersonId id = 1; id <= kPersons; ++id) {
      schema::PersonId ring = id % kPersons + 1;
      AddFriendshipBoth(s, db, {id, ring, 5000 + static_cast<int64_t>(id)});
      if (id + 3 <= kPersons) {
        AddFriendshipBoth(s, db,
                          {id, id + 3, 5100 + static_cast<int64_t>(id)});
      }
    }
    for (schema::PersonId id = 1; id <= kPersons; ++id) {
      AddMembershipBoth(s, db, {101, id, 6000});
      AddMembershipBoth(s, db,
                        {101 + static_cast<schema::ForumId>(id % 4), id,
                         6100});
    }
    AddMembershipBoth(s, db, {102, kLoner, 6200});
    // Posts: message id k-1 by person k in forum 101 + (k-1) % 4.
    for (schema::PersonId id = 1; id <= kPersons; ++id) {
      AddMessageBoth(s, db,
                     MakePost(static_cast<schema::MessageId>(id - 1), id,
                              101 + static_cast<schema::ForumId>((id - 1) % 4),
                              3000 + static_cast<int64_t>(id)));
    }
    // The lonely poster: messages and a membership but zero friends.
    AddMessageBoth(s, db, MakePost(20, kLoner, 102, 3500));
    // Replies: comment 30+k on post k, by the post creator's ring
    // neighbor's neighbor (so creator != replier, usually cross-shard).
    for (schema::MessageId post = 0; post < 8; ++post) {
      Message c;
      c.id = 30 + post;
      c.kind = MessageKind::kComment;
      c.creator_id = static_cast<schema::PersonId>(
          (post + 5) % kPersons + 1);
      c.forum_id = 101 + static_cast<schema::ForumId>(post % 4);
      c.reply_to_id = post;
      c.root_post_id = post;
      c.creation_date = 4000 + static_cast<int64_t>(post);
      c.content = "reply " + std::to_string(post);
      AddMessageBoth(s, db, c);
    }
    // Likes: person i likes the post five creators ahead of it.
    for (schema::PersonId id = 1; id <= kPersons; ++id) {
      AddLikeBoth(s, db,
                  {id, static_cast<schema::MessageId>((id + 4) % kPersons),
                   7000 + static_cast<int64_t>(id)});
    }
  }

  /// Asserts the fixture's premise at shard count N: every edge kind has
  /// at least one instance whose two endpoints live on different shards.
  void ExpectCrossShardCoverage(uint32_t shards) {
    int cross_friend = 0, cross_like = 0, cross_member = 0;
    int cross_contain = 0, cross_reply = 0;
    for (schema::PersonId id = 1; id <= kPersons; ++id) {
      if (ShardOfPerson(id, shards) !=
          ShardOfPerson(id % kPersons + 1, shards)) {
        ++cross_friend;
      }
      if (ShardOfPerson(id, shards) !=
          ShardOfMessage((id + 4) % kPersons, shards)) {
        ++cross_like;
      }
      if (ShardOfPerson(id, shards) != ShardOfForum(101, shards)) {
        ++cross_member;
      }
      if (ShardOfMessage(id - 1, shards) !=
          ShardOfForum(101 + (id - 1) % 4, shards)) {
        ++cross_contain;
      }
    }
    for (schema::MessageId post = 0; post < 8; ++post) {
      if (ShardOfMessage(post, shards) !=
          ShardOfMessage(30 + post, shards)) {
        ++cross_reply;
      }
    }
    EXPECT_GT(cross_friend, 0) << "no cross-shard friendship at N=" << shards;
    EXPECT_GT(cross_like, 0) << "no cross-shard like at N=" << shards;
    EXPECT_GT(cross_member, 0) << "no cross-shard membership at N=" << shards;
    EXPECT_GT(cross_contain, 0) << "no cross-shard post at N=" << shards;
    EXPECT_GT(cross_reply, 0) << "no cross-shard reply at N=" << shards;
  }

  /// Q9 plus the full short-read battery for every
  /// person and message, diffed row-by-row against the relational result
  /// in canonical form.
  void ExpectBatteryMatches(const GraphStore& s, const rel::RelationalDb& db,
                            uint32_t shards) {
    std::vector<schema::PersonId> persons;
    for (schema::PersonId id = 1; id <= kPersons; ++id) persons.push_back(id);
    persons.push_back(kHermit);
    persons.push_back(kLoner);
    for (schema::PersonId p : persons) {
      EXPECT_EQ(validate::CanonicalRows(queries::Query9(s, p, kBatteryDate)),
                validate::CanonicalRows(rel::Query9(db, p, kBatteryDate)))
          << "Q9, shards=" << shards << " person=" << p;
      EXPECT_EQ(validate::CanonicalRow(queries::ShortQuery1PersonProfile(s, p)),
                validate::CanonicalRow(rel::ShortQuery1PersonProfile(db, p)))
          << "S1, shards=" << shards << " person=" << p;
      EXPECT_EQ(
          validate::CanonicalRows(queries::ShortQuery2RecentMessages(s, p)),
          validate::CanonicalRows(rel::ShortQuery2RecentMessages(db, p)))
          << "S2, shards=" << shards << " person=" << p;
      EXPECT_EQ(validate::CanonicalRows(queries::ShortQuery3Friends(s, p)),
                validate::CanonicalRows(rel::ShortQuery3Friends(db, p)))
          << "S3, shards=" << shards << " person=" << p;
    }
    for (schema::MessageId m : message_ids_) {
      EXPECT_EQ(
          validate::CanonicalRow(queries::ShortQuery4MessageContent(s, m)),
          validate::CanonicalRow(rel::ShortQuery4MessageContent(db, m)))
          << "S4, shards=" << shards << " message=" << m;
      EXPECT_EQ(
          validate::CanonicalRow(queries::ShortQuery5MessageCreator(s, m)),
          validate::CanonicalRow(rel::ShortQuery5MessageCreator(db, m)))
          << "S5, shards=" << shards << " message=" << m;
      EXPECT_EQ(validate::CanonicalRow(queries::ShortQuery6MessageForum(s, m)),
                validate::CanonicalRow(rel::ShortQuery6MessageForum(db, m)))
          << "S6, shards=" << shards << " message=" << m;
      EXPECT_EQ(
          validate::CanonicalRows(queries::ShortQuery7MessageReplies(s, m)),
          validate::CanonicalRows(rel::ShortQuery7MessageReplies(db, m)))
          << "S7, shards=" << shards << " message=" << m;
    }
  }

  std::vector<schema::MessageId> message_ids_;
};

TEST_F(CrossShardBatteryTest, EdgeBatteryMatchesRelationalAtEveryShardCount) {
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    if (shards > 1) ExpectCrossShardCoverage(shards);
    GraphStore store(ReadConcurrency::kEpoch, shards);
    rel::RelationalDb db;
    BuildNetwork(&store, &db);
    if (HasFatalFailure()) return;
    ExpectBatteryMatches(store, db, shards);
  }
}

// Hermit and zero-friend semantics, shard-count invariant: present but
// empty everywhere (mirrors queries_edge_test.cc on the sharded store).
TEST_F(CrossShardBatteryTest, HermitAndLonerAreEmptyButFoundAtEveryCount) {
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    GraphStore store(ReadConcurrency::kEpoch, shards);
    rel::RelationalDb db;
    BuildNetwork(&store, &db);
    if (HasFatalFailure()) return;
    EXPECT_TRUE(queries::Query9(store, kHermit, kBatteryDate).empty());
    EXPECT_TRUE(queries::ShortQuery1PersonProfile(store, kHermit).found);
    EXPECT_TRUE(queries::ShortQuery2RecentMessages(store, kHermit).empty());
    EXPECT_TRUE(queries::ShortQuery3Friends(store, kHermit).empty());
    // The loner has messages (S2 non-empty) but no friends, so the
    // friends-of-friends Q9 frontier is empty.
    EXPECT_TRUE(queries::Query9(store, kLoner, kBatteryDate).empty());
    EXPECT_FALSE(queries::ShortQuery2RecentMessages(store, kLoner).empty());
    EXPECT_TRUE(queries::ShortQuery3Friends(store, kLoner).empty());
  }
}

// Same fixture, updates routed through the multi-writer pool instead of
// the synchronous Add* transactions — exercised separately in
// driver-level tests; here we only pin the router's determinism: the
// shard of an id is a pure function of the id and the count.
TEST(ShardRouterTest, RoutingIsDeterministicAndInRange) {
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (uint64_t id = 0; id < 1000; ++id) {
      uint32_t p = ShardOfPerson(id, shards);
      EXPECT_LT(p, shards);
      EXPECT_EQ(p, ShardOfPerson(id, shards));
      EXPECT_LT(ShardOfForum(id, shards), shards);
      EXPECT_LT(ShardOfMessage(id, shards), shards);
    }
  }
}

TEST(ShardRouterTest, ShardsArePopulatedAtEveryCount) {
  // 1000 consecutive ids must hit every shard for each kind — uniformity
  // of the salted splitmix64 placement, and a regression guard against a
  // modulus typo collapsing the distribution.
  for (uint32_t shards : {2u, 4u, 8u}) {
    std::vector<int> p(shards), f(shards), m(shards);
    for (uint64_t id = 0; id < 1000; ++id) {
      ++p[ShardOfPerson(id, shards)];
      ++f[ShardOfForum(id, shards)];
      ++m[ShardOfMessage(id, shards)];
    }
    for (uint32_t i = 0; i < shards; ++i) {
      EXPECT_GT(p[i], 0) << "empty person shard " << i << "/" << shards;
      EXPECT_GT(f[i], 0) << "empty forum shard " << i << "/" << shards;
      EXPECT_GT(m[i], 0) << "empty message shard " << i << "/" << shards;
    }
  }
}

}  // namespace
}  // namespace snb::store
