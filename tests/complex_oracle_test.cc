// Q5, Q9 and Q14 against the naive reference: the store's serving plans
// (block-at-a-time for these three templates) must return exactly
// validate::Oracle's rows — same order, bit-equal Q14 weights — on a
// generated dataset, across persons, dates and limits, including absent
// persons and degenerate parameters. Plus the Q9 stats/profile contract.
#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "queries/complex_queries.h"
#include "queries/query9_plans.h"
#include "store/graph_store.h"
#include "util/datetime.h"
#include "validate/oracle.h"

namespace snb::queries {
namespace {

constexpr schema::PersonId kAbsent = 99999999;

class ComplexOracleTest : public ::testing::Test {
 protected:
  struct World {
    datagen::Dataset dataset;
    store::GraphStore store;
    std::unique_ptr<validate::Oracle> oracle;
    std::vector<schema::PersonId> sample;  // Spread of person ids.
    schema::PersonId hub = 0;              // Highest-degree person.
  };

  static World& world() {
    static World* w = [] {
      auto* world = new World();
      datagen::DatagenConfig config;
      config.num_persons = 250;
      config.split_update_stream = false;
      world->dataset = datagen::Generate(config);
      EXPECT_TRUE(world->store.BulkLoad(world->dataset.bulk).ok());
      world->oracle = std::make_unique<validate::Oracle>(world->dataset.bulk);
      std::unordered_map<schema::PersonId, size_t> degree;
      for (const schema::Knows& k : world->dataset.bulk.knows) {
        ++degree[k.person1_id];
        ++degree[k.person2_id];
      }
      size_t best = 0;
      for (auto& [pid, d] : degree) {
        if (d > best) {
          best = d;
          world->hub = pid;
        }
      }
      const auto& persons = world->dataset.bulk.persons;
      for (size_t i = 0; i < persons.size(); i += 11) {
        world->sample.push_back(persons[i].id);
      }
      world->sample.push_back(world->hub);
      world->sample.push_back(kAbsent);
      return world;
    }();
    return *w;
  }

  static const validate::Oracle& oracle() { return *world().oracle; }

  static std::vector<util::TimestampMs> Dates() {
    return {
        0,  // Before everything.
        util::kNetworkStartMs + 6 * util::kMillisPerMonth,
        util::kNetworkStartMs + 18 * util::kMillisPerMonth,
        util::kNetworkStartMs + 40 * util::kMillisPerMonth,  // After all.
    };
  }

  static std::vector<int> Limits() { return {0, 1, 3, 20}; }
};

TEST_F(ComplexOracleTest, Q5MatchesOracle) {
  for (schema::PersonId p : world().sample) {
    for (util::TimestampMs date : Dates()) {
      // The oracle's Q5 is a brute-force scan (~20 ms here) whose limit is
      // a plain truncation of one total order, so one call at the largest
      // limit yields the expected rows for every smaller limit.
      std::vector<Q5Result> full = oracle().Query5(p, date, Limits().back());
      for (int limit : Limits()) {
        std::vector<Q5Result> got = Query5(world().store, p, date, limit);
        ASSERT_EQ(got.size(), std::min(full.size(), size_t(limit)))
            << "person " << p << " date " << date << " limit " << limit;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].forum_id, full[i].forum_id) << i;
          EXPECT_EQ(got[i].post_count, full[i].post_count) << i;
        }
      }
    }
  }
}

TEST_F(ComplexOracleTest, Q9MatchesOracle) {
  for (schema::PersonId p : world().sample) {
    for (util::TimestampMs date : Dates()) {
      for (int limit : Limits()) {
        std::vector<Q9Result> expect = oracle().Query9(p, date, limit);
        std::vector<Q9Result> got = Query9(world().store, p, date, limit);
        ASSERT_EQ(got.size(), expect.size())
            << "person " << p << " date " << date << " limit " << limit;
        for (size_t i = 0; i < expect.size(); ++i) {
          EXPECT_EQ(got[i].message_id, expect[i].message_id) << i;
          EXPECT_EQ(got[i].creator_id, expect[i].creator_id) << i;
          EXPECT_EQ(got[i].creation_date, expect[i].creation_date) << i;
        }
      }
    }
  }
}

TEST_F(ComplexOracleTest, Q9FillsPlanStatsAndProfile) {
  Q9PlanStats stats;
  Q9OperatorProfile profile;
  util::TimestampMs max_date =
      util::kNetworkStartMs + 40 * util::kMillisPerMonth;
  std::vector<Q9Result> rows = Query9(world().store, world().hub, max_date,
                                      20, &stats, &profile);
  EXPECT_FALSE(rows.empty());
  EXPECT_GT(stats.join1_output, 0u);
  EXPECT_GE(stats.join2_output, stats.join1_output);
  EXPECT_GE(stats.join3_output, rows.size());
  EXPECT_EQ(stats.build_tuples, 0u);
  EXPECT_GT(profile.join1.invocations, 0u);
  EXPECT_GT(profile.join3.rows, 0u);
  EXPECT_EQ(profile.hash_build.invocations, 0u);

  // Profiling only adds spans: the rows are the unprofiled call's.
  std::vector<Q9Result> plain =
      Query9(world().store, world().hub, max_date, 20);
  ASSERT_EQ(plain.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(plain[i].message_id, rows[i].message_id) << i;
  }
}

TEST_F(ComplexOracleTest, Q14MatchesOracleWithBitEqualWeights) {
  std::vector<std::pair<schema::PersonId, schema::PersonId>> pairs;
  const auto& sample = world().sample;
  for (size_t i = 0; i + 1 < sample.size(); i += 2) {
    pairs.emplace_back(sample[i], sample[i + 1]);
  }
  pairs.emplace_back(world().hub, world().hub);  // Same person.
  pairs.emplace_back(world().hub, kAbsent);      // Absent endpoint.
  for (auto [p1, p2] : pairs) {
    std::vector<Q14Result> expect = oracle().Query14(p1, p2);
    std::vector<Q14Result> got = Query14(world().store, p1, p2);
    ASSERT_EQ(got.size(), expect.size()) << p1 << " -> " << p2;
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got[i].path, expect[i].path) << i;
      // Bit-equality, not approximate: the weight sums are dyadic
      // rationals, so grouping the contributions differently must still
      // produce the identical double.
      EXPECT_EQ(
          std::memcmp(&got[i].weight, &expect[i].weight, sizeof(double)), 0)
          << p1 << " -> " << p2 << " path " << i;
    }
  }
}

}  // namespace
}  // namespace snb::queries
