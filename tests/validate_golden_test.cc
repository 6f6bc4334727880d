// Golden validation sets: serial emission, JSON round-trip, and replay
// through the real driver at several thread counts and execution modes —
// including the mutation test proving an injected query bug is caught.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "datagen/datagen.h"
#include "schema/dictionaries.h"
#include "validate/golden.h"

namespace snb::validate {
namespace {

/// One shared emission: golden emission regenerates datagen, so the suite
/// amortizes it (the fixture is ~100 persons, well under a second).
class GoldenSetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    options_ = new GoldenEmitOptions();
    options_->num_persons = 100;
    options_->num_segments = 2;
    golden_ = new GoldenSet();
    util::Status st = EmitGoldenSet(*options_, golden_);
    ASSERT_TRUE(st.ok()) << st.message();

    datagen::DatagenConfig config;
    config.seed = options_->seed;
    config.num_persons = options_->num_persons;
    dictionaries_ = new schema::Dictionaries(config.seed);
    dataset_ = new datagen::Dataset(
        datagen::Generate(config, *dictionaries_));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete dictionaries_;
    delete golden_;
    delete options_;
  }

  static GoldenEmitOptions* options_;
  static GoldenSet* golden_;
  static schema::Dictionaries* dictionaries_;
  static datagen::Dataset* dataset_;
};

GoldenEmitOptions* GoldenSetTest::options_ = nullptr;
GoldenSet* GoldenSetTest::golden_ = nullptr;
schema::Dictionaries* GoldenSetTest::dictionaries_ = nullptr;
datagen::Dataset* GoldenSetTest::dataset_ = nullptr;

TEST_F(GoldenSetTest, EmissionShapeMatchesOptions) {
  // num_segments update segments plus the bulk-only segment 0.
  ASSERT_EQ(golden_->segments.size(),
            static_cast<size_t>(options_->num_segments) + 1);
  EXPECT_EQ(golden_->segments.front().updates_end, 0u);
  uint64_t prev_end = 0;
  for (const GoldenSegment& segment : golden_->segments) {
    EXPECT_GE(segment.updates_end, prev_end);
    prev_end = segment.updates_end;
    EXPECT_FALSE(segment.operations.empty());
    EXPECT_GT(segment.num_persons, 0u);
  }
  EXPECT_EQ(golden_->segments.back().updates_end,
            static_cast<uint64_t>(dataset_->updates.size()));
}

TEST_F(GoldenSetTest, EmissionIsDeterministic) {
  GoldenSet again;
  ASSERT_TRUE(EmitGoldenSet(*options_, &again).ok());
  EXPECT_EQ(GoldenSetToJson(again), GoldenSetToJson(*golden_));
}

TEST_F(GoldenSetTest, JsonRoundTripIsLossless) {
  std::string json = GoldenSetToJson(*golden_);
  GoldenSet loaded;
  util::Status st = GoldenSetFromJson(json, &loaded);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(loaded.seed, golden_->seed);
  EXPECT_EQ(loaded.num_persons, golden_->num_persons);
  ASSERT_EQ(loaded.segments.size(), golden_->segments.size());
  for (size_t s = 0; s < loaded.segments.size(); ++s) {
    const GoldenSegment& a = loaded.segments[s];
    const GoldenSegment& b = golden_->segments[s];
    EXPECT_EQ(a.updates_end, b.updates_end);
    EXPECT_EQ(a.num_messages, b.num_messages);
    ASSERT_EQ(a.operations.size(), b.operations.size());
    for (size_t i = 0; i < a.operations.size(); ++i) {
      EXPECT_EQ(a.operations[i].op, b.operations[i].op);
      EXPECT_EQ(a.operations[i].params, b.operations[i].params);
      EXPECT_EQ(a.operations[i].rows, b.operations[i].rows);
    }
  }
  EXPECT_EQ(GoldenSetToJson(loaded), json);
}

TEST_F(GoldenSetTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "golden_roundtrip.json";
  ASSERT_TRUE(WriteGoldenSet(*golden_, path).ok());
  GoldenSet loaded;
  ASSERT_TRUE(ReadGoldenSet(path, &loaded).ok());
  EXPECT_EQ(GoldenSetToJson(loaded), GoldenSetToJson(*golden_));
  std::remove(path.c_str());
}

TEST_F(GoldenSetTest, RejectsCorruptDocuments) {
  GoldenSet out;
  EXPECT_FALSE(GoldenSetFromJson("nope", &out).ok());
  EXPECT_FALSE(GoldenSetFromJson("{\"schema\":\"other\"}", &out).ok());
  EXPECT_FALSE(
      GoldenSetFromJson(
          "{\"schema\":\"snb-validation-v1\",\"seed\":\"1\","
          "\"num_persons\":50,\"segments\":[]}",
          &out)
          .ok());
}

TEST_F(GoldenSetTest, ReplayPassesSerialAndThreadedInEveryMode) {
  for (uint32_t threads : {1u, 2u}) {
    for (driver::ExecutionMode mode :
         {driver::ExecutionMode::kSequentialForum,
          driver::ExecutionMode::kWindowed}) {
      ReplayOptions options;
      options.threads = threads;
      options.mode = mode;
      ReplayOutcome outcome;
      util::Status st = ReplayGoldenSetWith(*golden_, *dataset_,
                                            *dictionaries_, options, &outcome);
      ASSERT_TRUE(st.ok()) << st.message();
      EXPECT_TRUE(outcome.passed)
          << "threads=" << threads
          << " mode=" << driver::ExecutionModeName(mode) << " first diff: "
          << outcome.first.op << "(" << outcome.first.params << ") expected "
          << outcome.first.expected << " got " << outcome.first.actual;
      EXPECT_EQ(outcome.diffs, 0u);
      EXPECT_EQ(outcome.segments_compared, golden_->segments.size());
      EXPECT_GT(outcome.rows_compared, 0u);
    }
  }
}

// The shard-matrix acceptance battery: the serial single-shard emission
// must replay byte-identically at every shard count and in both driver
// modes. A routing bug (an edge half landing on the wrong shard) or a
// snapshot bug (a read missing a shard's pin) surfaces as row diffs here.
TEST_F(GoldenSetTest, ReplayMatrixPassesAtEveryShardCount) {
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (driver::ExecutionMode mode :
         {driver::ExecutionMode::kSequentialForum,
          driver::ExecutionMode::kWindowed}) {
      ReplayOptions options;
      options.threads = 2;
      options.mode = mode;
      options.shards = shards;
      ReplayOutcome outcome;
      util::Status st = ReplayGoldenSetWith(*golden_, *dataset_,
                                            *dictionaries_, options, &outcome);
      ASSERT_TRUE(st.ok()) << st.message();
      EXPECT_TRUE(outcome.passed)
          << "shards=" << shards
          << " mode=" << driver::ExecutionModeName(mode) << " first diff: "
          << outcome.first.op << "(" << outcome.first.params << ") expected "
          << outcome.first.expected << " got " << outcome.first.actual;
      EXPECT_EQ(outcome.diffs, 0u);
    }
  }
}

TEST_F(GoldenSetTest, ReplayRejectsOutOfRangeShardCount) {
  ReplayOptions options;
  options.shards = 9;
  ReplayOutcome outcome;
  EXPECT_FALSE(ReplayGoldenSetWith(*golden_, *dataset_, *dictionaries_,
                                   options, &outcome)
                   .ok());
}

// The mutation test from the acceptance criteria: corrupting one op's
// replayed rows MUST surface as a divergence with full context.
TEST_F(GoldenSetTest, MutationIsCaughtWithContext) {
  ReplayOptions options;
  options.mutate_op = "complex.Q2";
  ReplayOutcome outcome;
  ASSERT_TRUE(ReplayGoldenSetWith(*golden_, *dataset_, *dictionaries_,
                                  options, &outcome)
                  .ok());
  EXPECT_FALSE(outcome.passed);
  EXPECT_GT(outcome.diffs, 0u);
  EXPECT_EQ(outcome.first.op, "complex.Q2");
  EXPECT_FALSE(outcome.first.params.empty());
  EXPECT_NE(outcome.first.expected, outcome.first.actual);
}

TEST_F(GoldenSetTest, ReplayRejectsMismatchedDataset) {
  datagen::DatagenConfig other;
  other.seed = golden_->seed + 1;
  other.num_persons = golden_->num_persons;
  schema::Dictionaries dict(other.seed);
  datagen::Dataset dataset = datagen::Generate(other, dict);
  ReplayOptions options;
  ReplayOutcome outcome;
  EXPECT_FALSE(
      ReplayGoldenSetWith(*golden_, dataset, dict, options, &outcome).ok());
}

}  // namespace
}  // namespace snb::validate
