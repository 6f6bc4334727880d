// Tests for the traversal kernel (exec/traversal.h): the epoch reset and
// its wrap-around, growth past the scratch size mid-traversal, no stale
// state across back-to-back Q14/Q13/Q1 on one thread, the Q1 level bound
// and the parent-ordered path enumeration. validate::Oracle (its own
// hash-map BFS) is the reference throughout.
#include "exec/traversal.h"

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
