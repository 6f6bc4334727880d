// Differential query fuzzer: three independent implementations (graph
// store, relational baseline, naive oracle) must agree on every read query
// over hundreds of random graphs; any disagreement shrinks to a minimal
// standalone regression artifact.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "validate/fuzz.h"

namespace snb::validate {
namespace {

TEST(FuzzGeneratorTest, IsDeterministicAndBounded) {
  schema::SocialNetwork a = GenerateFuzzNetwork(42, 12);
  schema::SocialNetwork b = GenerateFuzzNetwork(42, 12);
  ASSERT_EQ(a.persons.size(), b.persons.size());
  ASSERT_GE(a.persons.size(), 2u);
  ASSERT_LE(a.persons.size(), 12u);
  ASSERT_EQ(a.knows.size(), b.knows.size());
  ASSERT_EQ(a.messages.size(), b.messages.size());
  ASSERT_EQ(a.likes.size(), b.likes.size());
  for (size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].id, b.messages[i].id);
    EXPECT_EQ(a.messages[i].content, b.messages[i].content);
  }
  // A different seed produces a different graph (overwhelmingly likely).
  schema::SocialNetwork c = GenerateFuzzNetwork(43, 12);
  EXPECT_TRUE(a.persons.size() != c.persons.size() ||
              a.messages.size() != c.messages.size() ||
              a.knows.size() != c.knows.size() ||
              a.likes.size() != c.likes.size());
}

TEST(FuzzGeneratorTest, CommentsReplyToEarlierMessages) {
  for (uint64_t seed : {1ULL, 7ULL, 99ULL}) {
    schema::SocialNetwork net = GenerateFuzzNetwork(seed, 12);
    for (const schema::Message& m : net.messages) {
      if (m.kind == schema::MessageKind::kComment) {
        EXPECT_LT(m.reply_to_id, m.id);
        EXPECT_NE(m.root_post_id, schema::kInvalidId);
      } else {
        EXPECT_EQ(m.root_post_id, m.id);
      }
    }
  }
}

// The acceptance gate: >= 200 random graphs, all 21 read queries, zero
// mismatches between the store, the relational baseline and the oracle.
TEST(DifferentialFuzzTest, TwoHundredGraphsAgreeAcrossBackends) {
  FuzzConfig config;
  config.num_graphs = 200;
  FuzzOutcome outcome;
  ASSERT_TRUE(RunDifferentialFuzz(config, &outcome).ok());
  EXPECT_EQ(outcome.graphs_run, 200);
  EXPECT_GT(outcome.comparisons, 0u);
  ASSERT_EQ(outcome.mismatches, 0)
      << "backend " << outcome.first.backend << " diverged on "
      << outcome.first.binding.op << " (graph seed "
      << outcome.first.graph_seed << "):\n"
      << MismatchToJson(outcome.first);
}

TEST(DifferentialFuzzTest, PerturbationIsCaughtShrunkAndRoundTrips) {
  // Simulated store-side bug: Q2 drops its last row.
  StorePerturbation drop_last = [](const std::string& op,
                                   std::vector<std::string>* rows) {
    if (op == "complex.Q2" && !rows->empty()) rows->pop_back();
  };
  FuzzConfig config;
  config.num_graphs = 50;
  FuzzOutcome outcome;
  ASSERT_TRUE(RunDifferentialFuzz(config, drop_last, &outcome).ok());
  ASSERT_EQ(outcome.mismatches, 1);
  const FuzzMismatch& mismatch = outcome.first;
  EXPECT_EQ(mismatch.backend, "store");
  EXPECT_EQ(mismatch.binding.op, "complex.Q2");
  EXPECT_NE(mismatch.expected, mismatch.actual);

  // The shrunk graph still reproduces, and shrinking actually removed
  // irrelevant structure: the surviving graph is no bigger than the
  // original the seed regenerates.
  EXPECT_TRUE(MismatchReproduces(mismatch, drop_last));
  schema::SocialNetwork original =
      GenerateFuzzNetwork(mismatch.graph_seed, config.max_persons);
  size_t original_entities = original.persons.size() + original.knows.size() +
                             original.messages.size() + original.likes.size() +
                             original.memberships.size() +
                             original.forums.size();
  size_t shrunk_entities =
      mismatch.graph.persons.size() + mismatch.graph.knows.size() +
      mismatch.graph.messages.size() + mismatch.graph.likes.size() +
      mismatch.graph.memberships.size() + mismatch.graph.forums.size();
  EXPECT_LE(shrunk_entities, original_entities);

  // Artifact round-trip: write, read back, reproduce from the file alone.
  std::string path = ::testing::TempDir() + "fuzz_regression.json";
  ASSERT_TRUE(WriteMismatch(mismatch, path).ok());
  FuzzMismatch loaded;
  ASSERT_TRUE(ReadMismatch(path, &loaded).ok());
  EXPECT_EQ(loaded.backend, mismatch.backend);
  EXPECT_EQ(loaded.binding.op, mismatch.binding.op);
  EXPECT_EQ(loaded.expected, mismatch.expected);
  EXPECT_EQ(loaded.actual, mismatch.actual);
  EXPECT_EQ(loaded.graph.persons.size(), mismatch.graph.persons.size());
  EXPECT_EQ(loaded.graph.messages.size(), mismatch.graph.messages.size());
  for (size_t i = 0; i < loaded.graph.messages.size(); ++i) {
    EXPECT_EQ(loaded.graph.messages[i].content,
              mismatch.graph.messages[i].content);
    EXPECT_EQ(loaded.graph.messages[i].reply_to_id,
              mismatch.graph.messages[i].reply_to_id);
  }
  EXPECT_TRUE(MismatchReproduces(loaded, drop_last));
  // Without the simulated bug the artifact does not reproduce — the
  // mismatch lived in the perturbation, not the store.
  EXPECT_FALSE(MismatchReproduces(loaded));
  std::remove(path.c_str());
}

TEST(FuzzArtifactTest, RejectsForeignAndCorruptDocuments) {
  FuzzMismatch out;
  EXPECT_FALSE(MismatchFromJson("not json", &out).ok());
  EXPECT_FALSE(MismatchFromJson("{\"schema\":\"other-v9\"}", &out).ok());
  EXPECT_FALSE(
      MismatchFromJson("{\"schema\":\"snb-fuzz-regression-v1\"}", &out).ok());
}

// A genuine Q13 counterexample: the perturbed store answers 5 where the
// oracle's shortest path between the two friends is 1.
void WrongDistance(const std::string& op, std::vector<std::string>* rows) {
  if (op == "complex.Q13") *rows = {"5"};
}

FuzzMismatch Q13Counterexample() {
  FuzzMismatch m;
  m.graph_seed = 7;
  m.backend = "store";
  m.binding.op = "complex.Q13";
  m.binding.person = 1;
  m.binding.person2 = 2;
  m.expected = {"1"};
  m.actual = {"5"};
  schema::Person a;
  a.id = 1;
  a.first_name = "First";
  a.last_name = "Last";
  schema::Person b;
  b.id = 2;
  b.first_name = "Other";
  b.last_name = "Person";
  m.graph.persons = {a, b};
  m.graph.knows = {{1, 2, 100}};
  return m;
}

// Artifacts are written and read as v1, the one artifact schema.
TEST(FuzzArtifactTest, V1RoundTripsAndReproduces) {
  FuzzMismatch m = Q13Counterexample();
  ASSERT_TRUE(MismatchReproduces(m, WrongDistance));

  std::string v1 = MismatchToJson(m);
  ASSERT_NE(v1.find("\"snb-fuzz-regression-v1\""), std::string::npos);
  FuzzMismatch loaded;
  ASSERT_TRUE(MismatchFromJson(v1, &loaded).ok());
  EXPECT_EQ(loaded.graph_seed, 7u);
  EXPECT_EQ(loaded.binding.op, "complex.Q13");
  EXPECT_EQ(loaded.expected, m.expected);
  EXPECT_EQ(loaded.actual, m.actual);
  EXPECT_EQ(loaded.graph.persons.size(), 2u);
  EXPECT_EQ(loaded.graph.knows.size(), 1u);
  EXPECT_EQ(MismatchToJson(loaded), v1);
  EXPECT_TRUE(MismatchReproduces(loaded, WrongDistance));
  EXPECT_FALSE(MismatchReproduces(loaded));
}

// v2 artifacts (written while the store could be sharded, with an extra
// shard count) are no longer read: the tag is refused by name.
TEST(FuzzArtifactTest, RejectsOlderV2Tag) {
  std::string v2 = MismatchToJson(Q13Counterexample());
  v2.replace(v2.find("snb-fuzz-regression-v1"), 22, "snb-fuzz-regression-v2");
  v2.insert(v2.find("\"backend\""), "\"shard_count\":4,");
  FuzzMismatch out;
  util::Status st = MismatchFromJson(v2, &out);
  EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("unsupported schema \"snb-fuzz-regression-v2\""),
            std::string::npos)
      << st.message();
}

// Array elements are kind-checked: a tag must be an in-range integer
// number and a result row a string, never read as 0 or "" unchecked.
TEST(FuzzArtifactTest, RejectsMistypedTagsAndRows) {
  FuzzMismatch m = Q13Counterexample();
  m.graph.persons[0].interests = {3};
  std::string good = MismatchToJson(m);
  FuzzMismatch out;
  ASSERT_TRUE(MismatchFromJson(good, &out).ok());
  EXPECT_EQ(out.graph.persons[0].interests, std::vector<schema::TagId>{3});

  auto with = [&good](const std::string& from, const std::string& to) {
    std::string doc = good;
    size_t at = doc.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return doc.replace(at, from.size(), to);
  };
  for (const char* tags : {"[\"3\"]", "[1.5]", "[-1]", "[4294967296]"}) {
    util::Status st = MismatchFromJson(
        with("\"interests\":[3]", std::string("\"interests\":") + tags), &out);
    EXPECT_FALSE(st.ok()) << tags;
    EXPECT_NE(st.message().find("element of \"interests\""),
              std::string::npos)
        << st.message();
  }
  util::Status st =
      MismatchFromJson(with("\"expected\":[\"1\"]", "\"expected\":[1]"), &out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("element of \"expected\" is not a string"),
            std::string::npos)
      << st.message();
}

}  // namespace
}  // namespace snb::validate
