// Tests for the traversal kernel (exec/traversal.h): the epoch reset and
// its wrap-around, growth past the scratch size mid-traversal, no stale
// state across back-to-back Q14/Q13/Q1 on one thread, the Q1 level bound,
// the parent-ordered path enumeration, the BFS stop one level before
// person2's and half-published friendships. validate::Oracle (its own
// hash-map BFS) is the reference throughout.
#include "exec/traversal.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "queries/complex_queries.h"
#include "store/graph_store.h"
#include "validate/oracle.h"

namespace snb::exec {
namespace {

using Path = std::vector<uint64_t>;

schema::Person MakePerson(schema::PersonId id) {
  schema::Person p;
  p.id = id;
  p.first_name = "Ada";
  p.last_name = "L" + std::to_string(id);
  p.creation_date = 1000;
  return p;
}

// A store holding persons 0..n-1 and the given friendships.
void Build(store::GraphStore* store, uint64_t n,
           const std::vector<std::pair<uint64_t, uint64_t>>& edges) {
  for (uint64_t id = 0; id < n; ++id) {
    ASSERT_TRUE(store->AddPerson(MakePerson(id)).ok());
  }
  for (auto [a, b] : edges) {
    ASSERT_TRUE(store->AddFriendship({a, b, 2000}).ok());
  }
}

// Persons 0..n-1 and the given friendships as a network, for BulkLoad and
// validate::Oracle alike.
schema::SocialNetwork Network(
    uint64_t n, const std::vector<std::pair<uint64_t, uint64_t>>& edges) {
  schema::SocialNetwork net;
  for (uint64_t id = 0; id < n; ++id) net.persons.push_back(MakePerson(id));
  for (auto [a, b] : edges) net.knows.push_back({a, b, 2000});
  return net;
}

// Query14 on the store equals the oracle's, row for row.
void ExpectQ14MatchesOracle(const store::GraphStore& store,
                            const schema::SocialNetwork& net, uint64_t p1,
                            uint64_t p2) {
  std::vector<queries::Q14Result> got = queries::Query14(store, p1, p2);
  std::vector<queries::Q14Result> want =
      validate::Oracle(net).Query14(p1, p2);
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].path, want[k].path);
    EXPECT_EQ(got[k].weight, want[k].weight);
  }
}

std::vector<std::pair<uint64_t, uint64_t>> Chain(uint64_t n) {
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (uint64_t id = 0; id + 1 < n; ++id) edges.push_back({id, id + 1});
  return edges;
}

// Runs `fn` on a new thread, whose scratch starts empty at epoch 0.
template <typename Fn>
void OnFreshThread(Fn fn) {
  std::thread t(fn);
  t.join();
}

// Reached set of ExpandWithinHops: id -> distance.
std::map<uint64_t, uint32_t> Reached(const store::GraphStore& store,
                                     uint64_t start, uint32_t max_hops) {
  std::map<uint64_t, uint32_t> reached;
  auto pin = store.ReadLock();
  ExpandWithinHops(store, pin, start, max_hops,
                   [&](uint64_t id, uint32_t distance) {
                     EXPECT_TRUE(reached.emplace(id, distance).second)
                         << "person " << id << " reached twice";
                   });
  return reached;
}

TEST(TraversalScratchTest, BeginForgetsMarksInConstantTime) {
  TraversalScratch& s = TraversalScratch::Local();
  s.Begin();
  s.Reach(7);
  s.Mark(0, 7, 3);
  s.Mark(1, 2, 1);
  EXPECT_TRUE(s.Seen(0, 7));
  EXPECT_EQ(s.Dist(0, 7), 3u);
  EXPECT_FALSE(s.Seen(1, 7));
  uint32_t epoch = s.epoch();
  s.Begin();
  EXPECT_EQ(s.epoch(), epoch + 1);
  EXPECT_FALSE(s.Seen(0, 7));
  EXPECT_FALSE(s.Seen(1, 2));
}

TEST(TraversalScratchTest, EpochWrapClearsEveryStamp) {
  TraversalScratch& s = TraversalScratch::Local();
  // Stamp slots with epoch 1, the epoch a wrap restarts at.
  s.SetEpochForTesting(0);
  s.Begin();
  ASSERT_EQ(s.epoch(), 1u);
  s.Reach(40);
  s.Mark(0, 40, 2);
  s.Mark(1, 3, 1);
  // Four billion traversals later the counter wraps back to 1: without
  // the clear those slots would read as marked again.
  s.SetEpochForTesting(UINT32_MAX);
  s.Begin();
  EXPECT_EQ(s.epoch(), 1u);
  EXPECT_FALSE(s.Seen(0, 40));
  EXPECT_FALSE(s.Seen(1, 3));
}

TEST(TraversalTest, TraversalsStayExactAcrossTheEpochWrap) {
  store::GraphStore store;
  Build(&store, 8, Chain(8));
  OnFreshThread([&] {
    TraversalScratch& s = TraversalScratch::Local();
    auto pin = store.ReadLock();
    // Marks chain nodes on both sides at epoch 1, the epoch a wrap
    // restarts at.
    ASSERT_EQ(ShortestPathLength(store, pin, 0, 7), 7);
    ASSERT_EQ(s.epoch(), 1u);
    s.SetEpochForTesting(UINT32_MAX);
    for (int i = 0; i < 3; ++i) {
      SCOPED_TRACE(i);
      std::vector<Path> paths;
      AllShortestPaths(store, pin, 7, 0, 10, &paths);
      ASSERT_EQ(paths.size(), 1u);
      EXPECT_EQ(paths[0], (Path{7, 6, 5, 4, 3, 2, 1, 0}));
      EXPECT_EQ(ShortestPathLength(store, pin, 0, 7), 7);
    }
    EXPECT_EQ(s.epoch(), 6u);  // 1 after the wrap, then five more.
  });
}

TEST(TraversalTest, GrowsWhenANeighbourIdPassesTheScratchSize) {
  // Ids ascend along every path from 0, so each level reaches ids past
  // what the scratch has grown to; marks made before a growth must
  // survive it.
  std::vector<std::pair<uint64_t, uint64_t>> edges = Chain(40);
  edges.push_back({0, 20});
  edges.push_back({5, 300});
  edges.push_back({300, 39});
  store::GraphStore store;
  Build(&store, 301, edges);

  OnFreshThread([&] {
    TraversalScratch& s = TraversalScratch::Local();
    ASSERT_EQ(s.size(), 0u);
    auto pin = store.ReadLock();
    std::vector<Path> paths;
    AllShortestPaths(store, pin, 0, 39, 10, &paths);
    EXPECT_GT(s.size(), 300u);
    // 0-20-..-39 (20 hops) vs 0-..-5-300-39 (7 hops).
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0], (Path{0, 1, 2, 3, 4, 5, 300, 39}));
  });
  OnFreshThread([&] {
    auto pin = store.ReadLock();
    EXPECT_EQ(ShortestPathLength(store, pin, 0, 1), 1);
    EXPECT_EQ(ShortestPathLength(store, pin, 2, 3), 1);
    EXPECT_EQ(ShortestPathLength(store, pin, 1, 39), 6);
    EXPECT_GT(TraversalScratch::Local().size(), 300u);
  });
  OnFreshThread([&] {
    std::map<uint64_t, uint32_t> reached = Reached(store, 4, 2);
    std::map<uint64_t, uint32_t> want = {
        {3, 1}, {5, 1}, {2, 2}, {6, 2}, {300, 2}};
    EXPECT_EQ(reached, want);
  });
}

TEST(TraversalTest, ExpansionStopsAtTheLevelBound) {
  store::GraphStore store;
  Build(&store, 6, Chain(6));
  EXPECT_TRUE(Reached(store, 0, 0).empty());
  EXPECT_EQ(Reached(store, 0, 1), (std::map<uint64_t, uint32_t>{{1, 1}}));
  EXPECT_EQ(Reached(store, 0, 3),
            (std::map<uint64_t, uint32_t>{{1, 1}, {2, 2}, {3, 3}}));
  EXPECT_EQ(Reached(store, 2, 3),
            (std::map<uint64_t, uint32_t>{{1, 1}, {3, 1}, {0, 2}, {4, 2},
                                          {5, 3}}));
  // Q1 runs the same expansion with hop bound 3.
  std::vector<queries::Q1Result> q1 = queries::Query1(store, 0, "Ada");
  ASSERT_EQ(q1.size(), 3u);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(q1[i].person_id, i + 1);
    EXPECT_EQ(q1[i].distance, i + 1);
  }
}

TEST(TraversalTest, PathsEnumerateParentsAscendingAndCapInOrder) {
  // 0 -> {3, 1, 2} -> {6, 5} -> 9, every middle pair linked, plus a
  // longer detour 0-7-8-9 that is not shortest.
  std::vector<std::pair<uint64_t, uint64_t>> edges = {
      {0, 3}, {0, 1}, {0, 2}, {0, 7}, {7, 8}, {8, 4}, {4, 9}};
  for (uint64_t a : {1, 2, 3}) {
    for (uint64_t b : {5, 6}) edges.push_back({a, b});
  }
  edges.push_back({6, 9});
  edges.push_back({5, 9});
  store::GraphStore store;
  Build(&store, 11, edges);  // Person 10 has no friends.
  auto pin = store.ReadLock();
  std::vector<Path> paths;
  AllShortestPaths(store, pin, 0, 9, 1000, &paths);
  std::vector<Path> want = {{0, 1, 5, 9}, {0, 2, 5, 9}, {0, 3, 5, 9},
                            {0, 1, 6, 9}, {0, 2, 6, 9}, {0, 3, 6, 9}};
  EXPECT_EQ(paths, want);
  paths.clear();
  AllShortestPaths(store, pin, 0, 9, 4, &paths);
  want.resize(4);
  EXPECT_EQ(paths, want);
  paths.clear();
  // Unreachable endpoint: nothing appended.
  AllShortestPaths(store, pin, 0, 10, 1000, &paths);
  EXPECT_TRUE(paths.empty());
  EXPECT_EQ(ShortestPathLength(store, pin, 0, 10), -1);
}

TEST(TraversalTest, StopsBeforeExpandingTheLevelThatReachesPerson2) {
  // 0 -> 1..8 -> i*10 + {0..4} for each i; person2 = 200 hangs off 13
  // (via 1), 34 (via 3 and 5) and 72 (via 7). Every depth-2 node also has
  // five depth-3 children (300 + ...), so person2's level is large; 201
  // sits at person2's depth and 202 one deeper, both person2's friends.
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (uint64_t i = 1; i <= 8; ++i) {
    edges.push_back({0, i});
    for (uint64_t j = 0; j < 5; ++j) {
      uint64_t mid = i * 10 + j;
      edges.push_back({i, mid});
      for (uint64_t k = 0; k < 5; ++k) {
        edges.push_back({mid, 300 + mid * 5 + k});
      }
    }
  }
  edges.push_back({5, 34});
  for (uint64_t parent : {72, 13, 34}) edges.push_back({parent, 200});
  edges.push_back({54, 201});
  edges.push_back({201, 200});
  edges.push_back({201, 202});
  edges.push_back({202, 200});
  const uint64_t n = 300 + 85 * 5;
  schema::SocialNetwork net = Network(n, edges);
  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(net).ok());

  OnFreshThread([&] {
    TraversalScratch& s = TraversalScratch::Local();
    auto pin = store.ReadLock();
    std::vector<Path> paths;
    AllShortestPaths(store, pin, 0, 200, 1000, &paths);
    std::vector<Path> want = {{0, 1, 13, 200},
                              {0, 3, 34, 200},
                              {0, 5, 34, 200},
                              {0, 7, 72, 200}};
    EXPECT_EQ(paths, want);
    // Depths 0..2 are final and depth 2 was never expanded: no node of
    // person2's level, person2 included, carries a mark.
    EXPECT_EQ(s.Dist(0, 34), 2u);
    for (uint64_t id : {200, 201, 202, 300 + 13 * 5, 300 + 84 * 5 + 4}) {
      EXPECT_FALSE(s.Has(0, id)) << id;
    }
    paths.clear();
    AllShortestPaths(store, pin, 0, 200, 2, &paths);
    want.resize(2);
    EXPECT_EQ(paths, want);
  });
  ExpectQ14MatchesOracle(store, net, 0, 200);
  ExpectQ14MatchesOracle(store, net, 200, 0);
}

TEST(TraversalTest, ParentsSkipSameDepthAndDeeperFriends) {
  // person1 = 50, person2 = 40 at depth 3. Every DFS node's friend list
  // interleaves its parents with friends at its own depth and deeper:
  //   depth 1: 10, 30, 70 (10-30 and 30-70 are same-depth edges)
  //   depth 2: 20 (via 10, 30), 60 (via 30, 70), 20-60 same depth, and
  //            1 (via 10 only)
  //   depth 3: 40 (person2, via 20, 60), 5 and 25 (via 20), 35 (via 60;
  //            also person2's friend, at its depth)
  //   depth 4: 45 (via 40 and 35)
  std::vector<std::pair<uint64_t, uint64_t>> edges = {
      {50, 10}, {50, 30}, {50, 70}, {10, 30}, {30, 70}, {10, 20},
      {30, 20}, {30, 60}, {70, 60}, {20, 60}, {10, 1},  {20, 40},
      {60, 40}, {20, 5},  {20, 25}, {60, 35}, {35, 40}, {40, 45},
      {35, 45}};
  schema::SocialNetwork net = Network(71, edges);
  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(net).ok());
  auto pin = store.ReadLock();
  std::vector<Path> paths;
  AllShortestPaths(store, pin, 50, 40, 1000, &paths);
  std::vector<Path> want = {{50, 10, 20, 40},
                            {50, 30, 20, 40},
                            {50, 30, 60, 40},
                            {50, 70, 60, 40}};
  EXPECT_EQ(paths, want);
  ExpectQ14MatchesOracle(store, net, 50, 40);
  ExpectQ14MatchesOracle(store, net, 40, 50);
  ExpectQ14MatchesOracle(store, net, 1, 45);
}

// Publishes only `a`'s half of the friendship {a, b}: the state a
// concurrent reader sees between AddFriendship's two inserts.
void PublishHalf(store::GraphStore* store, uint64_t a, uint64_t b) {
  const store::PersonRecord* rec;
  {
    auto pin = store->ReadLock();
    rec = store->FindPerson(pin, a);
  }
  ASSERT_NE(rec, nullptr);
  const_cast<store::PersonRecord*>(rec)->friends.insert_sorted(
      {b, 2000},
      [](const store::FriendEdge& x, const store::FriendEdge& y) {
        return x.other < y.other;
      },
      store->epoch_manager());
}

std::vector<Path> Q14Paths(const store::GraphStore& store, uint64_t p1,
                           uint64_t p2) {
  std::vector<Path> paths;
  for (queries::Q14Result& r : queries::Query14(store, p1, p2)) {
    paths.push_back(std::move(r.path));
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(TraversalTest, HalfPublishedFriendshipsGiveNoHopAgainstTheBfs) {
  // Every returned hop path[i] -> path[i + 1] must be held by path[i]'s
  // list, the direction the BFS follows, even when a friendship is only
  // half published.
  {
    // Distance 3: 3's list holds 5, 5's does not hold 3. The DFS from 3
    // sees candidate parent 5 at depth 2 and must skip it.
    store::GraphStore store;
    Build(&store, 6, {{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 5}});
    PublishHalf(&store, 3, 5);
    EXPECT_EQ(Q14Paths(store, 0, 3), (std::vector<Path>{{0, 1, 2, 3}}));
  }
  {
    // Distance 2: 2's list holds 3, 3's does not hold 2, so the fast
    // path's intersection yields middle 3 and must drop it.
    store::GraphStore store;
    Build(&store, 4, {{0, 1}, {1, 2}, {0, 3}});
    PublishHalf(&store, 2, 3);
    EXPECT_EQ(Q14Paths(store, 0, 2), (std::vector<Path>{{0, 1, 2}}));
  }
  {
    // 2's list holds 1, 1's does not hold 2: no middle survives the fast
    // path, and the kernel's stop test must not stop at depth 1 on 1 —
    // person2 is at depth 3 through 3 and 4.
    store::GraphStore store;
    Build(&store, 5, {{0, 1}, {0, 3}, {3, 4}, {4, 2}});
    PublishHalf(&store, 2, 1);
    EXPECT_EQ(Q14Paths(store, 0, 2), (std::vector<Path>{{0, 3, 4, 2}}));
  }
}

TEST(TraversalTest, BackToBackQueriesLeaveNoStaleMarks) {
  datagen::DatagenConfig config;
  config.num_persons = 300;
  config.split_update_stream = false;
  datagen::Dataset ds = datagen::Generate(config);
  store::GraphStore store;
  ASSERT_TRUE(store.BulkLoad(ds.bulk).ok());
  validate::Oracle oracle(ds.bulk);

  // One thread, so every query reuses the scratch the previous one left.
  size_t far_pairs = 0;
  for (uint64_t i = 0; i < 60; ++i) {
    schema::PersonId p1 = (i * 37) % config.num_persons;
    schema::PersonId p2 = (i * 101 + 13) % config.num_persons;
    SCOPED_TRACE(testing::Message() << p1 << " -> " << p2);

    std::vector<queries::Q14Result> q14 = queries::Query14(store, p1, p2);
    std::vector<queries::Q14Result> q14_want = oracle.Query14(p1, p2);
    ASSERT_EQ(q14.size(), q14_want.size());
    for (size_t k = 0; k < q14.size(); ++k) {
      EXPECT_EQ(q14[k].path, q14_want[k].path);
      EXPECT_EQ(q14[k].weight, q14_want[k].weight);
    }
    int q13 = queries::Query13(store, p1, p2);
    EXPECT_EQ(q13, oracle.Query13(p1, p2));
    if (q13 >= 3) ++far_pairs;

    const std::string& name = ds.bulk.persons[i % 300].first_name;
    std::vector<queries::Q1Result> q1 = queries::Query1(store, p1, name);
    std::vector<queries::Q1Result> q1_want = oracle.Query1(p1, name);
    ASSERT_EQ(q1.size(), q1_want.size());
    for (size_t k = 0; k < q1.size(); ++k) {
      EXPECT_EQ(q1[k].person_id, q1_want[k].person_id);
      EXPECT_EQ(q1[k].distance, q1_want[k].distance);
    }
  }
  // The distance >= 3 kernel path ran, not only the Intersect fast paths.
  EXPECT_GT(far_pairs, 5u);
}

}  // namespace
}  // namespace snb::exec
