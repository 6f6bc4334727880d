// Edge-case tests for the read queries: missing entities, empty graphs,
// boundary limits, and degenerate parameters.
#include <cstring>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "queries/bi_queries.h"
#include "queries/complex_queries.h"
#include "queries/query9_plans.h"
#include "queries/short_queries.h"
#include "queries/update_queries.h"
#include "relational/rel_queries.h"
#include "relational/relational_db.h"
#include "store/graph_store.h"
#include "validate/oracle.h"

namespace snb::queries {
namespace {

schema::Person MakePerson(schema::PersonId id) {
  schema::Person p;
  p.id = id;
  p.first_name = "Solo";
  p.creation_date = 1000;
  return p;
}

TEST(QueriesEdgeTest, EmptyStoreReturnsEmptyEverywhere) {
  store::GraphStore store;
  EXPECT_TRUE(Query1(store, 0, "Karl").empty());
  EXPECT_TRUE(Query2(store, 0, 1 << 30).empty());
  EXPECT_TRUE(Query5(store, 0, 0).empty());
  EXPECT_TRUE(Query7(store, 0).empty());
  EXPECT_TRUE(Query8(store, 0).empty());
  EXPECT_TRUE(Query9(store, 0, 1 << 30).empty());
  EXPECT_TRUE(Query10(store, 0, 5).empty());
  EXPECT_EQ(Query13(store, 0, 1), -1);
  EXPECT_TRUE(Query14(store, 0, 1).empty());
  EXPECT_TRUE(TwoHopCircle(store, 0).empty());
  EXPECT_FALSE(ShortQuery1PersonProfile(store, 0).found);
  EXPECT_TRUE(ShortQuery3Friends(store, 0).empty());
  EXPECT_TRUE(BiQuery1PostingSummary(store).empty());
}

TEST(QueriesEdgeTest, IsolatedPersonHasEmptyNeighbourhoodQueries) {
  store::GraphStore store;
  ASSERT_TRUE(store.AddPerson(MakePerson(1)).ok());
  EXPECT_TRUE(Query1(store, 1, "Solo").empty());  // Self is excluded.
  EXPECT_TRUE(Query2(store, 1, 1 << 30).empty());
  EXPECT_TRUE(Query9(store, 1, 1 << 30).empty());
  EXPECT_EQ(Query13(store, 1, 1), 0);
  auto self_paths = Query14(store, 1, 1);
  ASSERT_EQ(self_paths.size(), 1u);
  EXPECT_EQ(self_paths[0].weight, 0.0);
  // Short reads on the isolated person work.
  EXPECT_TRUE(ShortQuery1PersonProfile(store, 1).found);
  EXPECT_TRUE(ShortQuery2RecentMessages(store, 1).empty());
}

TEST(QueriesEdgeTest, LimitZeroAndLimitHuge) {
  datagen::DatagenConfig config;
  config.num_persons = 120;
  config.split_update_stream = false;
  datagen::Dataset ds = datagen::Generate(config);
  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(ds.bulk).ok());

  EXPECT_TRUE(Query2(store, 0, util::NetworkEndMs(), 0).empty());
  EXPECT_TRUE(Query9(store, 0, util::NetworkEndMs(), 0).empty());

  auto huge = Query2(store, 0, util::NetworkEndMs(), 1 << 20);
  // With a huge limit, Q2 returns every friend message (reference count).
  std::set<schema::PersonId> friends;
  for (const schema::Knows& k : ds.bulk.knows) {
    if (k.person1_id == 0) friends.insert(k.person2_id);
    if (k.person2_id == 0) friends.insert(k.person1_id);
  }
  size_t expected = 0;
  for (const schema::Message& m : ds.bulk.messages) {
    if (friends.count(m.creator_id) > 0) ++expected;
  }
  EXPECT_EQ(huge.size(), expected);
}

TEST(QueriesEdgeTest, Q9PlanVariantsOnTinyGraph) {
  store::GraphStore store;
  for (schema::PersonId id = 0; id < 3; ++id) {
    ASSERT_TRUE(store.AddPerson(MakePerson(id)).ok());
  }
  ASSERT_TRUE(store.AddFriendship({0, 1, 2000}).ok());
  schema::Forum f;
  f.id = 9;
  f.moderator_id = 1;
  f.creation_date = 2000;
  ASSERT_TRUE(store.AddForum(f).ok());
  schema::Message m;
  m.id = 0;
  m.kind = schema::MessageKind::kPost;
  m.creator_id = 1;
  m.forum_id = 9;
  m.root_post_id = 0;
  m.creation_date = 3000;
  ASSERT_TRUE(store.AddMessage(m).ok());

  for (JoinStrategy j : {JoinStrategy::kIndexNestedLoop, JoinStrategy::kHash}) {
    Q9PlanStats stats;
    auto rows = Query9WithPlan(store, 0, 10000, 20, j, j, j, &stats);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].message_id, 0u);
    EXPECT_EQ(stats.join1_output, 1u);
    EXPECT_EQ(stats.join3_output, 1u);
  }
  // Date cutoff excludes the message.
  EXPECT_TRUE(Query9(store, 0, 3000).empty());   // Strictly before.
  EXPECT_EQ(Query9(store, 0, 3001).size(), 1u);
}

TEST(QueriesEdgeTest, Query3ZeroDurationAndSameCountry) {
  datagen::DatagenConfig config;
  config.num_persons = 120;
  config.split_update_stream = false;
  datagen::Dataset ds = datagen::Generate(config);
  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(ds.bulk).ok());
  std::vector<schema::PlaceId> city_country(200, 0);
  // Zero duration window: no posts qualify.
  EXPECT_TRUE(Query3(store, 0, city_country, 1, 2,
                     util::kNetworkStartMs, 0)
                  .empty());
}

// A dataset-loaded store shared by the boundary batteries below.
class LoadedEdgeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::DatagenConfig config;
    config.num_persons = 120;
    config.split_update_stream = false;
    dataset_ = new datagen::Dataset(datagen::Generate(config));
    store_ = new store::GraphStore();
    ASSERT_TRUE(store_->BulkLoad(dataset_->bulk).ok());
  }
  static void TearDownTestSuite() {
    delete store_;
    delete dataset_;
    store_ = nullptr;
    dataset_ = nullptr;
  }

  /// Every complex query with the given start person must come back empty.
  static void ExpectAllComplexEmpty(schema::PersonId start) {
    const store::GraphStore& store = *store_;
    std::vector<schema::PlaceId> city_country(200, 0);
    std::vector<schema::PlaceId> company_country(200, 0);
    std::vector<bool> tag_class(200, true);
    EXPECT_TRUE(Query1(store, start, "Yang").empty());
    EXPECT_TRUE(Query2(store, start, util::NetworkEndMs()).empty());
    EXPECT_TRUE(Query3(store, start, city_country, 1, 2,
                       util::kNetworkStartMs, 900)
                    .empty());
    EXPECT_TRUE(Query4(store, start, util::kNetworkStartMs, 900).empty());
    EXPECT_TRUE(Query5(store, start, util::kNetworkStartMs).empty());
    EXPECT_TRUE(Query6(store, start, 0).empty());
    EXPECT_TRUE(Query7(store, start).empty());
    EXPECT_TRUE(Query8(store, start).empty());
    EXPECT_TRUE(Query9(store, start, util::NetworkEndMs()).empty());
    EXPECT_TRUE(Query10(store, start, 6).empty());
    EXPECT_TRUE(Query11(store, start, company_country, 0, 2030).empty());
    EXPECT_TRUE(Query12(store, start, tag_class).empty());
    EXPECT_EQ(Query13(store, start, 0), -1);
    EXPECT_EQ(Query13(store, 0, start), -1);
    EXPECT_TRUE(Query14(store, start, 0).empty());
  }

  static datagen::Dataset* dataset_;
  static store::GraphStore* store_;
};

datagen::Dataset* LoadedEdgeTest::dataset_ = nullptr;
store::GraphStore* LoadedEdgeTest::store_ = nullptr;

TEST_F(LoadedEdgeTest, NonexistentPersonIsEmptyForEveryComplexQuery) {
  const schema::PersonId ghost = 1u << 20;
  ExpectAllComplexEmpty(ghost);
  EXPECT_FALSE(ShortQuery1PersonProfile(*store_, ghost).found);
  EXPECT_TRUE(ShortQuery2RecentMessages(*store_, ghost).empty());
  EXPECT_TRUE(ShortQuery3Friends(*store_, ghost).empty());
}

TEST_F(LoadedEdgeTest, ZeroFriendPersonIsEmptyForEveryComplexQuery) {
  // A hermit added on top of the populated graph: present, but with no
  // Knows edges, messages, or likes, so every neighbourhood query is empty.
  const schema::PersonId hermit = 555000;
  ASSERT_TRUE(store_->AddPerson(MakePerson(hermit)).ok());
  ExpectAllComplexEmpty(hermit);
  // Except the degenerate self-path, which is well-defined.
  EXPECT_EQ(Query13(*store_, hermit, hermit), 0);
  EXPECT_TRUE(ShortQuery1PersonProfile(*store_, hermit).found);
  EXPECT_TRUE(ShortQuery2RecentMessages(*store_, hermit).empty());
  EXPECT_TRUE(ShortQuery3Friends(*store_, hermit).empty());
}

TEST_F(LoadedEdgeTest, DateWindowBeforeEpochIsEmpty) {
  // Every generated message date is >= kNetworkStartMs, so windows that
  // close strictly before the epoch must match nothing for any person.
  const store::GraphStore& store = *store_;
  util::TimestampMs before = util::kNetworkStartMs - util::kMillisPerDay;
  std::vector<schema::PlaceId> city_country(200, 0);
  for (schema::PersonId p : {0u, 17u, 63u, 119u}) {
    EXPECT_TRUE(Query2(store, p, before).empty());
    EXPECT_TRUE(Query3(store, p, city_country, 1, 2,
                       before - 30 * util::kMillisPerDay, 30)
                    .empty());
    EXPECT_TRUE(Query4(store, p, before - 30 * util::kMillisPerDay, 30)
                    .empty());
    EXPECT_TRUE(Query9(store, p, before).empty());
    // Q5's window is open-ended upward, so the before-epoch boundary sits
    // on the other side: a min_date after the network end matches nothing.
    EXPECT_TRUE(Query5(store, p, util::NetworkEndMs() + 1).empty());
  }
}

TEST_F(LoadedEdgeTest, LimitZeroIsEmptyForEveryLimitedQuery) {
  const store::GraphStore& store = *store_;
  std::vector<schema::PlaceId> city_country(200, 0);
  std::vector<schema::PlaceId> company_country(200, 0);
  std::vector<bool> tag_class(200, true);
  for (schema::PersonId p : {0u, 63u}) {
    EXPECT_TRUE(Query1(store, p, "Yang", 0).empty());
    EXPECT_TRUE(Query2(store, p, util::NetworkEndMs(), 0).empty());
    EXPECT_TRUE(Query3(store, p, city_country, 1, 2, util::kNetworkStartMs,
                       900, 0)
                    .empty());
    EXPECT_TRUE(Query4(store, p, util::kNetworkStartMs, 900, 0).empty());
    EXPECT_TRUE(Query5(store, p, util::kNetworkStartMs, 0).empty());
    EXPECT_TRUE(Query6(store, p, 0, 0).empty());
    EXPECT_TRUE(Query7(store, p, 0).empty());
    EXPECT_TRUE(Query8(store, p, 0).empty());
    EXPECT_TRUE(Query9(store, p, util::NetworkEndMs(), 0).empty());
    EXPECT_TRUE(Query10(store, p, 6, 0).empty());
    EXPECT_TRUE(Query11(store, p, company_country, 0, 2030, 0).empty());
    EXPECT_TRUE(Query12(store, p, tag_class, 0).empty());
  }
}

TEST(QueriesEdgeTest, ApplyUpdateRejectsCorruptKinds) {
  store::GraphStore store;
  datagen::UpdateOperation op;
  op.payload = schema::Like{};
  // Out-of-range kind bytes (0 is below the enum range, 99 above it).
  op.kind = static_cast<datagen::UpdateKind>(0);
  EXPECT_EQ(ApplyUpdate(store, op).code(),
            util::StatusCode::kInvalidArgument);
  op.kind = static_cast<datagen::UpdateKind>(99);
  EXPECT_EQ(ApplyUpdate(store, op).code(),
            util::StatusCode::kInvalidArgument);
  // Valid kind whose payload holds the wrong alternative.
  op.kind = datagen::UpdateKind::kAddPerson;
  util::Status st = ApplyUpdate(store, op);
  EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(st.message().empty());
  // Nothing leaked into the store.
  EXPECT_EQ(store.NumPersons(), 0u);
  EXPECT_EQ(store.NumLikes(), 0u);
}

TEST(QueriesEdgeTest, Q12EmptyTagClass) {
  datagen::DatagenConfig config;
  config.num_persons = 120;
  config.split_update_stream = false;
  datagen::Dataset ds = datagen::Generate(config);
  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(ds.bulk).ok());
  std::vector<bool> empty_class(1000, false);
  EXPECT_TRUE(Query12(store, 0, empty_class).empty());
  std::vector<bool> no_tags;  // Out-of-range tag ids must not crash.
  EXPECT_TRUE(Query12(store, 0, no_tags).empty());
}

// p1 - A(32) - B(32) - p2 with A x B complete: 1,024 shortest paths of
// length 3, so Q14's 1000-path cap lands inside the distance >= 3 path
// enumeration. The cut keeps the first 1000 paths of the DFS from p2
// (parents ascending): every b but the last with all 32 a's, then the
// last b with a's 0..7. Store, oracle and relational backend must keep the
// same paths and rank them identically, weights bit for bit.
TEST(QueriesEdgeTest, Q14CapsDistanceThreePathsLikeTheReferences) {
  constexpr schema::PersonId kP1 = 0;
  constexpr schema::PersonId kFirstA = 1;
  constexpr schema::PersonId kFirstB = 33;
  constexpr schema::PersonId kP2 = 65;
  constexpr int kSide = 32;
  schema::SocialNetwork net;
  for (schema::PersonId id = kP1; id <= kP2; ++id) {
    net.persons.push_back(MakePerson(id));
  }
  for (int i = 0; i < kSide; ++i) {
    net.knows.push_back({kP1, kFirstA + i, 2000});
    net.knows.push_back({kFirstB + i, kP2, 2000});
    for (int j = 0; j < kSide; ++j) {
      net.knows.push_back({kFirstA + i, kFirstB + j, 2000});
    }
  }
  // Weights: every A posts once; B persons reply to some A posts (1.0
  // each) and to each other's replies (0.5 each), so ranks mix weights
  // and the path tie-break.
  schema::Forum forum;
  forum.id = 0;
  forum.moderator_id = kP1;
  forum.creation_date = 2000;
  net.forums.push_back(forum);
  schema::MessageId next_id = 0;
  auto add_message = [&](schema::PersonId creator, schema::MessageId reply_to,
                         schema::MessageId root) {
    schema::Message m;
    m.id = next_id++;
    m.kind = reply_to == schema::kInvalidId ? schema::MessageKind::kPost
                                            : schema::MessageKind::kComment;
    m.creator_id = creator;
    m.forum_id = forum.id;
    m.reply_to_id = reply_to;
    m.root_post_id = reply_to == schema::kInvalidId ? m.id : root;
    m.creation_date = 3000 + static_cast<util::TimestampMs>(m.id);
    net.messages.push_back(m);
    return m.id;
  };
  for (int i = 0; i < kSide; ++i) {
    schema::MessageId post = add_message(kFirstA + i, schema::kInvalidId, 0);
    for (int j = 0; j < kSide; ++j) {
      if ((i * 7 + j * 3) % 5 != 0) continue;
      schema::MessageId reply = add_message(kFirstB + j, post, post);
      if ((i + j) % 3 == 0) add_message(kFirstA + i, reply, post);
    }
  }

  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(net).ok());
  rel::RelationalDb db;
  ASSERT_TRUE(db.BulkLoad(net).ok());
  validate::Oracle oracle(net);

  std::vector<Q14Result> got = Query14(store, kP1, kP2);
  std::vector<Q14Result> want = oracle.Query14(kP1, kP2);
  std::vector<Q14Result> rel_got = rel::Query14(db, kP1, kP2);
  ASSERT_EQ(got.size(), 1000u);
  ASSERT_EQ(want.size(), 1000u);
  ASSERT_EQ(rel_got.size(), 1000u);
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(got[i].path.size(), 4u);
    EXPECT_EQ(got[i].path, want[i].path);
    EXPECT_EQ(got[i].path, rel_got[i].path);
    EXPECT_EQ(std::memcmp(&got[i].weight, &want[i].weight, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&got[i].weight, &rel_got[i].weight, sizeof(double)),
              0);
    // The 24 paths past the cap all run through the last b with a >= 8.
    bool past_cap = got[i].path[2] == kFirstB + kSide - 1 &&
                    got[i].path[1] >= kFirstA + 8;
    EXPECT_FALSE(past_cap);
  }
  // Weights are not all equal, so the ranking is not just the path order.
  EXPECT_NE(got.front().weight, got.back().weight);
}

}  // namespace
}  // namespace snb::queries
