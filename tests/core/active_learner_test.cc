#include "core/active_learner.h"

#include <limits>
#include <map>

#include <gtest/gtest.h>

#include "graph/profile_codec.h"
#include "learning/harmonic.h"
#include "learning/sampling.h"
#include "sim/facebook_generator.h"
#include "sim/schema.h"

namespace sight {
namespace {

// Oracle that answers from a fixed map and records its queries.
class MapOracle : public LabelOracle {
 public:
  explicit MapOracle(std::map<UserId, RiskLabel> labels)
      : labels_(std::move(labels)) {}

  RiskLabel QueryLabel(UserId stranger, double similarity,
                       double benefit) override {
    ++queries_;
    last_similarity_ = similarity;
    last_benefit_ = benefit;
    auto it = labels_.find(stranger);
    return it == labels_.end() ? RiskLabel::kRisky : it->second;
  }

  size_t queries() const { return queries_; }
  double last_similarity() const { return last_similarity_; }
  double last_benefit() const { return last_benefit_; }

 private:
  std::map<UserId, RiskLabel> labels_;
  size_t queries_ = 0;
  double last_similarity_ = -1.0;
  double last_benefit_ = -1.0;
};

// Builds a pool whose members all carry the given ids, with a uniform
// similarity graph.
StrangerPool MakePool(std::vector<UserId> members) {
  StrangerPool pool;
  pool.members = std::move(members);
  return pool;
}

SimilarityTriangle UniformTriangle(size_t n, double w = 0.8) {
  SimilarityTriangle t(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) t.Set(i, j, w);
  }
  return t;
}

SimilarityMatrix UniformWeights(size_t n, double w = 0.8) {
  return UniformTriangle(n, w).Compact();
}

struct LearnerParts {
  HarmonicFunctionClassifier classifier =
      HarmonicFunctionClassifier::Create(HarmonicConfig{}).value();
  RandomSampler sampler;
  ActiveLearnerConfig config;
};

TEST(ActiveLearnerConfigTest, Validation) {
  ActiveLearnerConfig config;
  config.labels_per_round = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.confidence = 101.0;
  EXPECT_FALSE(config.Validate().ok());
  config.confidence = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.stable_rounds = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.rmse_threshold = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.max_rounds = 0;
  EXPECT_FALSE(config.Validate().ok());
  EXPECT_TRUE(ActiveLearnerConfig{}.Validate().ok());
}

TEST(ActiveLearnerConfigTest, StabilizationToleranceMatchesConfidence) {
  ActiveLearnerConfig config;
  config.confidence = 80.0;
  EXPECT_NEAR(config.StabilizationTolerance(), 0.4, 1e-12);
  config.confidence = 100.0;
  EXPECT_DOUBLE_EQ(config.StabilizationTolerance(), 0.0);
  config.confidence = 0.0;
  EXPECT_DOUBLE_EQ(config.StabilizationTolerance(), 2.0);
}

TEST(PoolLearnerTest, CreateValidatesShapes) {
  LearnerParts parts;
  StrangerPool pool = MakePool({10, 11, 12});
  EXPECT_FALSE(PoolLearner::Create(MakePool({}), SimilarityMatrix(0), {}, {},
                                   parts.config, &parts.classifier,
                                   &parts.sampler)
                   .ok());
  EXPECT_FALSE(PoolLearner::Create(pool, SimilarityMatrix(2), {0, 0, 0},
                                   {0, 0, 0}, parts.config, &parts.classifier,
                                   &parts.sampler)
                   .ok());
  EXPECT_FALSE(PoolLearner::Create(pool, SimilarityMatrix(3), {0, 0},
                                   {0, 0, 0}, parts.config, &parts.classifier,
                                   &parts.sampler)
                   .ok());
  EXPECT_FALSE(PoolLearner::Create(pool, SimilarityMatrix(3), {0, 0, 0},
                                   {0, 0, 0}, parts.config, nullptr,
                                   &parts.sampler)
                   .ok());
  EXPECT_TRUE(PoolLearner::Create(pool, SimilarityMatrix(3), {0, 0, 0},
                                  {0, 0, 0}, parts.config, &parts.classifier,
                                  &parts.sampler)
                  .ok());
}

TEST(PoolLearnerTest, TinyPoolExhaustsInOneRound) {
  LearnerParts parts;
  parts.config.labels_per_round = 3;
  StrangerPool pool = MakePool({10, 11});
  auto learner =
      PoolLearner::Create(pool, UniformWeights(2), {0.1, 0.2}, {0.3, 0.4},
                          parts.config, &parts.classifier, &parts.sampler)
          .value();
  MapOracle oracle({{10, RiskLabel::kNotRisky}, {11, RiskLabel::kVeryRisky}});
  Rng rng(1);
  auto records = learner.RunToCompletion(&oracle, &rng).value();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(learner.finished());
  EXPECT_EQ(learner.outcome(), PoolOutcome::kExhausted);
  EXPECT_EQ(oracle.queries(), 2u);
  // Predictions equal the owner labels after exhaustion.
  EXPECT_EQ(static_cast<int>(learner.PredictedLabel(0)), 1);
  EXPECT_EQ(static_cast<int>(learner.PredictedLabel(1)), 3);
  EXPECT_TRUE(learner.IsOwnerLabeled(0));
  EXPECT_TRUE(learner.IsOwnerLabeled(1));
}

TEST(PoolLearnerTest, RunAfterFinishedIsError) {
  LearnerParts parts;
  StrangerPool pool = MakePool({10});
  auto learner =
      PoolLearner::Create(pool, UniformWeights(1), {0.0}, {0.0},
                          parts.config, &parts.classifier, &parts.sampler)
          .value();
  MapOracle oracle({});
  Rng rng(2);
  ASSERT_TRUE(learner.RunToCompletion(&oracle, &rng).ok());
  EXPECT_EQ(learner.RunRound(&oracle, &rng).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PoolLearnerTest, HomogeneousPoolConvergesQuickly) {
  // Every member is labeled "risky": after two rounds predictions cannot
  // move, and RMSE is 0, so the learner converges without labeling all 30.
  LearnerParts parts;
  parts.config.labels_per_round = 3;
  parts.config.stable_rounds = 2;
  std::vector<UserId> members;
  std::map<UserId, RiskLabel> labels;
  for (UserId u = 0; u < 30; ++u) {
    members.push_back(u);
    labels[u] = RiskLabel::kRisky;
  }
  auto learner = PoolLearner::Create(
                     MakePool(members), UniformWeights(30),
                     std::vector<double>(30, 0.1),
                     std::vector<double>(30, 0.2), parts.config,
                     &parts.classifier, &parts.sampler)
                     .value();
  MapOracle oracle(labels);
  Rng rng(3);
  auto records = learner.RunToCompletion(&oracle, &rng).value();
  EXPECT_EQ(learner.outcome(), PoolOutcome::kConverged);
  EXPECT_LT(oracle.queries(), 30u);
  EXPECT_GE(records.size(), 3u);  // needs 2 stable rounds after the first
  // All predictions are "risky".
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(learner.PredictedLabel(i), RiskLabel::kRisky);
  }
  // Validation matched everything it checked.
  EXPECT_EQ(learner.validation_matches(), learner.validation_total());
  EXPECT_GT(learner.validation_total(), 0u);
}

TEST(PoolLearnerTest, ConfidenceHundredLabelsEverything) {
  // c=100 -> tolerance 0 -> never stabilizes -> the owner labels the whole
  // pool (the paper's "manually label all strangers" mode).
  LearnerParts parts;
  parts.config.confidence = 100.0;
  parts.config.labels_per_round = 2;
  std::vector<UserId> members;
  std::map<UserId, RiskLabel> labels;
  for (UserId u = 0; u < 9; ++u) {
    members.push_back(u);
    labels[u] = RiskLabel::kRisky;
  }
  auto learner = PoolLearner::Create(
                     MakePool(members), UniformWeights(9),
                     std::vector<double>(9, 0.0), std::vector<double>(9, 0.0),
                     parts.config, &parts.classifier, &parts.sampler)
                     .value();
  MapOracle oracle(labels);
  Rng rng(4);
  ASSERT_TRUE(learner.RunToCompletion(&oracle, &rng).ok());
  EXPECT_EQ(learner.outcome(), PoolOutcome::kExhausted);
  EXPECT_EQ(oracle.queries(), 9u);
}

TEST(PoolLearnerTest, OracleSeesDisplayValues) {
  LearnerParts parts;
  StrangerPool pool = MakePool({42});
  auto learner =
      PoolLearner::Create(pool, UniformWeights(1), {0.37}, {0.73},
                          parts.config, &parts.classifier, &parts.sampler)
          .value();
  MapOracle oracle({});
  Rng rng(5);
  ASSERT_TRUE(learner.RunToCompletion(&oracle, &rng).ok());
  EXPECT_DOUBLE_EQ(oracle.last_similarity(), 0.37);
  EXPECT_DOUBLE_EQ(oracle.last_benefit(), 0.73);
}

TEST(PoolLearnerTest, MaxRoundsBoundsNonConvergingPool) {
  // Alternating labels on a disconnected graph never produce a stable,
  // accurate model; with a tiny max_rounds we hit the round limit.
  LearnerParts parts;
  parts.config.max_rounds = 2;
  parts.config.labels_per_round = 1;
  parts.config.rmse_threshold = 0.01;
  std::vector<UserId> members;
  std::map<UserId, RiskLabel> labels;
  for (UserId u = 0; u < 40; ++u) {
    members.push_back(u);
    labels[u] = u % 2 == 0 ? RiskLabel::kNotRisky : RiskLabel::kVeryRisky;
  }
  auto learner = PoolLearner::Create(
                     MakePool(members), SimilarityMatrix(40),
                     std::vector<double>(40, 0.0),
                     std::vector<double>(40, 0.0), parts.config,
                     &parts.classifier, &parts.sampler)
                     .value();
  MapOracle oracle(labels);
  Rng rng(6);
  auto records = learner.RunToCompletion(&oracle, &rng).value();
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(learner.outcome(), PoolOutcome::kRoundLimit);
}

TEST(PoolLearnerTest, FirstRoundHasNoRmse) {
  LearnerParts parts;
  std::vector<UserId> members = {0, 1, 2, 3, 4, 5};
  auto learner = PoolLearner::Create(
                     MakePool(members), UniformWeights(6),
                     std::vector<double>(6, 0.0), std::vector<double>(6, 0.0),
                     parts.config, &parts.classifier, &parts.sampler)
                     .value();
  MapOracle oracle({});
  Rng rng(7);
  auto record = learner.RunRound(&oracle, &rng).value();
  EXPECT_EQ(record.round, 1u);
  EXPECT_FALSE(record.rmse_valid);
  auto record2 = learner.RunRound(&oracle, &rng).value();
  EXPECT_TRUE(record2.rmse_valid);
}

TEST(PoolLearnerTest, SparsifiedGraphStillLearns) {
  LearnerParts parts;
  std::vector<UserId> members;
  std::map<UserId, RiskLabel> labels;
  for (UserId u = 0; u < 20; ++u) {
    members.push_back(u);
    labels[u] = RiskLabel::kRisky;
  }
  // PoolLearner takes the graph it is given; the top-k cut happens where
  // the graph is built.
  SimilarityMatrix weights = UniformTriangle(20).SparsifyTopK(2);
  ASSERT_LT(weights.NumEdges(), 20u * 19u / 2u);
  auto learner = PoolLearner::Create(
                     MakePool(members), std::move(weights),
                     std::vector<double>(20, 0.1),
                     std::vector<double>(20, 0.1), parts.config,
                     &parts.classifier, &parts.sampler)
                     .value();
  MapOracle oracle(labels);
  Rng rng(21);
  ASSERT_TRUE(learner.RunToCompletion(&oracle, &rng).ok());
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(learner.PredictedLabel(i), RiskLabel::kRisky);
  }
}

TEST(PoolLearnerTest, SeededLabelsAreNeverReQueried) {
  LearnerParts parts;
  PoolLearner::KnownLabels known;
  known[10] = 3.0;
  known[12] = 1.0;
  StrangerPool pool = MakePool({10, 11, 12, 13});
  auto learner =
      PoolLearner::Create(pool, UniformWeights(4),
                          std::vector<double>(4, 0.0),
                          std::vector<double>(4, 0.0), parts.config,
                          &parts.classifier, &parts.sampler, &known)
          .value();
  EXPECT_TRUE(learner.IsOwnerLabeled(0));
  EXPECT_FALSE(learner.IsOwnerLabeled(1));
  EXPECT_TRUE(learner.IsOwnerLabeled(2));
  EXPECT_EQ(learner.num_queries(), 0u);  // seeds do not count

  MapOracle oracle({{11, RiskLabel::kRisky}, {13, RiskLabel::kRisky}});
  Rng rng(23);
  ASSERT_TRUE(learner.RunToCompletion(&oracle, &rng).ok());
  EXPECT_EQ(oracle.queries(), 2u);  // only 11 and 13
  EXPECT_EQ(learner.num_queries(), 2u);
  // Seeded labels stay exact.
  EXPECT_EQ(learner.PredictedLabel(0), RiskLabel::kVeryRisky);
  EXPECT_EQ(learner.PredictedLabel(2), RiskLabel::kNotRisky);
}

TEST(PoolLearnerTest, FullySeededPoolFinishesWithoutQueries) {
  LearnerParts parts;
  PoolLearner::KnownLabels known;
  known[10] = 2.0;
  known[11] = 2.0;
  StrangerPool pool = MakePool({10, 11});
  auto learner =
      PoolLearner::Create(pool, UniformWeights(2),
                          std::vector<double>(2, 0.0),
                          std::vector<double>(2, 0.0), parts.config,
                          &parts.classifier, &parts.sampler, &known)
          .value();
  MapOracle oracle({});
  Rng rng(27);
  auto records = learner.RunToCompletion(&oracle, &rng).value();
  EXPECT_EQ(learner.outcome(), PoolOutcome::kExhausted);
  EXPECT_EQ(oracle.queries(), 0u);
  EXPECT_EQ(learner.num_queries(), 0u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].newly_labeled, 0u);
}

TEST(PoolLearnerTest, SeedOutsideLabelRangeRejected) {
  LearnerParts parts;
  StrangerPool pool = MakePool({10});
  for (double value : {5.0, std::numeric_limits<double>::quiet_NaN()}) {
    PoolLearner::KnownLabels known;
    known[10] = value;
    EXPECT_EQ(PoolLearner::Create(pool, UniformWeights(1), {0.0}, {0.0},
                                  parts.config, &parts.classifier,
                                  &parts.sampler, &known)
                  .status()
                  .code(),
              StatusCode::kOutOfRange)
        << value;
  }
}

TEST(ActiveLearnerTest, CreateValidatesBenefitsShape) {
  PoolSet pools;
  pools.strangers = {1, 2};
  pools.network_similarities = {0.1, 0.2};
  ProfileTable profiles(ProfileSchema::Create({"a"}).value());
  LearnerParts parts;
  EXPECT_FALSE(ActiveLearner::Create(pools, profiles, {0.5}, parts.config,
                                     &parts.classifier, &parts.sampler)
                   .ok());
}

// A pool set whose NS vector is not parallel to its strangers, or that
// lists a stranger twice or puts a member in two pools, is rejected
// before any graph is built, and so is an encode whose rows have another
// attribute count than the profiles' schema.
TEST(ActiveLearnerTest, CreateValidatesThePoolSet) {
  ProfileTable profiles(ProfileSchema::Create({"g"}).value());
  for (UserId u = 0; u < 4; ++u) {
    Profile p;
    p.values = {"x"};
    ASSERT_TRUE(profiles.Set(u, p).ok());
  }
  PoolSet valid;
  valid.strangers = {0, 1, 2, 3};
  valid.network_similarities = {0.1, 0.1, 0.1, 0.1};
  valid.pools = {MakePool({0, 1}), MakePool({2, 3})};
  LearnerParts parts;
  auto create = [&](const PoolSet& pools) {
    return ActiveLearner::Create(pools, profiles, std::vector<double>(4, 0.0),
                                 parts.config, &parts.classifier,
                                 &parts.sampler)
        .status()
        .code();
  };
  EXPECT_EQ(create(valid), StatusCode::kOk);

  PoolSet short_ns = valid;
  short_ns.network_similarities = {0.1};
  EXPECT_EQ(create(short_ns), StatusCode::kInvalidArgument);

  PoolSet repeated = valid;
  repeated.strangers = {0, 1, 2, 2};
  repeated.pools = {MakePool({0, 1}), MakePool({2})};
  EXPECT_EQ(create(repeated), StatusCode::kInvalidArgument);

  PoolSet two_pools = valid;
  two_pools.pools = {MakePool({0, 1}), MakePool({1, 2, 3})};
  EXPECT_EQ(create(two_pools), StatusCode::kInvalidArgument);

  // An encode refreshed on the one-attribute table, handed in with
  // three-attribute profiles.
  ProfileTable wide(ProfileSchema::Create({"g", "h", "k"}).value());
  for (UserId u = 0; u < 4; ++u) {
    Profile p;
    p.values = {"x", "y", "z"};
    ASSERT_TRUE(wide.Set(u, p).ok());
  }
  StrangerEncodeCache narrow;
  narrow.Refresh(profiles, valid.strangers);
  EXPECT_EQ(ActiveLearner::Create(valid, wide, std::vector<double>(4, 0.0),
                                  parts.config, &parts.classifier,
                                  &parts.sampler, nullptr, nullptr, nullptr,
                                  &narrow)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(ActiveLearnerTest, RunsAllPoolsAndAggregates) {
  // Two pools of three; all labels "not risky".
  ProfileSchema schema = ProfileSchema::Create({"gender"}).value();
  ProfileTable profiles(schema);
  for (UserId u = 0; u < 6; ++u) {
    Profile p;
    p.values = {"male"};
    ASSERT_TRUE(profiles.Set(u, p).ok());
  }
  PoolSet pools;
  pools.strangers = {0, 1, 2, 3, 4, 5};
  pools.network_similarities = {0.1, 0.1, 0.1, 0.5, 0.5, 0.5};
  StrangerPool a = MakePool({0, 1, 2});
  a.nsg_index = 1;
  StrangerPool b = MakePool({3, 4, 5});
  b.nsg_index = 5;
  pools.pools = {a, b};

  LearnerParts parts;
  auto learner =
      ActiveLearner::Create(pools, profiles,
                            std::vector<double>(6, 0.25), parts.config,
                            &parts.classifier, &parts.sampler)
          .value();
  std::map<UserId, RiskLabel> labels;
  for (UserId u = 0; u < 6; ++u) labels[u] = RiskLabel::kNotRisky;
  MapOracle oracle(labels);
  Rng rng(8);
  auto result = learner.Run(&oracle, &rng).value();

  EXPECT_EQ(result.pools_total, 2u);
  EXPECT_EQ(result.strangers.size(), 6u);
  EXPECT_EQ(result.total_queries, oracle.queries());
  EXPECT_GT(result.total_queries, 0u);
  for (const StrangerAssessment& sa : result.strangers) {
    EXPECT_EQ(sa.predicted_label, RiskLabel::kNotRisky);
    EXPECT_DOUBLE_EQ(sa.benefit, 0.25);
  }
  // NS carried through from the pool set.
  for (const StrangerAssessment& sa : result.strangers) {
    if (sa.stranger <= 2) {
      EXPECT_DOUBLE_EQ(sa.network_similarity, 0.1);
    } else {
      EXPECT_DOUBLE_EQ(sa.network_similarity, 0.5);
    }
  }
  EXPECT_EQ(result.pools_converged + result.pools_exhausted +
                result.pools_round_limit,
            2u);
  EXPECT_GT(result.mean_rounds, 0.0);
}

TEST(ActiveLearnerTest, RoundRecordsCarryPoolIndices) {
  ProfileSchema schema = ProfileSchema::Create({"g"}).value();
  ProfileTable profiles(schema);
  for (UserId u = 0; u < 4; ++u) {
    Profile p;
    p.values = {"x"};
    ASSERT_TRUE(profiles.Set(u, p).ok());
  }
  PoolSet pools;
  pools.strangers = {0, 1, 2, 3};
  pools.network_similarities = {0.1, 0.1, 0.1, 0.1};
  pools.pools = {MakePool({0, 1}), MakePool({2, 3})};
  LearnerParts parts;
  auto learner = ActiveLearner::Create(pools, profiles,
                                       std::vector<double>(4, 0.0),
                                       parts.config, &parts.classifier,
                                       &parts.sampler)
                     .value();
  MapOracle oracle({});
  Rng rng(9);
  auto result = learner.Run(&oracle, &rng).value();
  std::set<size_t> pool_indices;
  for (const RoundRecord& r : result.rounds) pool_indices.insert(r.pool_index);
  EXPECT_EQ(pool_indices, (std::set<size_t>{0, 1}));
}

TEST(ActiveLearnerTest, SuppliedEncodeCacheMustServeEveryPoolMember) {
  ProfileTable profiles(ProfileSchema::Create({"g"}).value());
  for (UserId u = 0; u < 4; ++u) {
    Profile p;
    p.values = {u % 2 == 0 ? "x" : "y"};
    ASSERT_TRUE(profiles.Set(u, p).ok());
  }
  PoolSet pools;
  pools.strangers = {0, 1, 2, 3};
  pools.network_similarities = {0.1, 0.1, 0.1, 0.1};
  pools.pools = {MakePool({0, 1}), MakePool({2, 3})};
  LearnerParts parts;
  auto create = [&](const StrangerEncodeCache* encode) {
    return ActiveLearner::Create(pools, profiles, std::vector<double>(4, 0.0),
                                 parts.config, &parts.classifier,
                                 &parts.sampler, nullptr, nullptr, nullptr,
                                 encode);
  };

  // A table that has no row for stranger 3 is an error, not a silent
  // re-encode.
  StrangerEncodeCache partial;
  partial.Refresh(profiles, {0, 1, 2});
  EXPECT_EQ(create(&partial).status().code(),
            StatusCode::kFailedPrecondition);
  StrangerEncodeCache never_refreshed;
  EXPECT_EQ(create(&never_refreshed).status().code(),
            StatusCode::kFailedPrecondition);

  // Refreshed over the pool set's strangers, it serves every pool.
  partial.Refresh(profiles, pools.strangers);
  EXPECT_TRUE(create(&partial).ok());
  EXPECT_TRUE(create(nullptr).ok());
}

TEST(ActiveLearnerTest, SuppliedEncodeCacheMatchesFreshOneBitwise) {
  sim::GeneratorConfig gen_config;
  gen_config.num_strangers = 300;
  auto generator = sim::FacebookGenerator::Create(gen_config).value();
  Rng gen_rng(5);
  sim::OwnerDataset ds =
      generator.Generate({sim::Gender::kFemale, sim::Locale::kDE}, &gen_rng)
          .value();
  PoolBuilderConfig pool_config;
  pool_config.attribute_weights = sim::PaperAttributeWeights();
  PoolSet pools = PoolBuilder::Create(pool_config)
                      .value()
                      .Build(ds.graph, ds.profiles, ds.owner)
                      .value();
  // A table encoded in reverse discovery order: its codes differ from
  // those of the fresh table Create builds without one.
  std::vector<UserId> carried_order(pools.strangers.rbegin(),
                                    pools.strangers.rend());
  StrangerEncodeCache carried;
  carried.Refresh(ds.profiles, carried_order);
  std::map<UserId, RiskLabel> labels;
  for (UserId s : pools.strangers) {
    labels[s] =
        static_cast<RiskLabel>(kRiskLabelMin + static_cast<int>(s % 3));
  }

  LearnerParts parts;
  auto run = [&](const StrangerEncodeCache* encode) {
    auto learner =
        ActiveLearner::Create(pools, ds.profiles,
                              std::vector<double>(pools.strangers.size(), 0.5),
                              parts.config, &parts.classifier,
                              &parts.sampler, nullptr, nullptr, nullptr,
                              encode)
            .value();
    MapOracle oracle(labels);
    Rng rng(17);
    return learner.Run(&oracle, &rng).value();
  };
  AssessmentResult fresh = run(nullptr);
  AssessmentResult supplied = run(&carried);
  EXPECT_GT(fresh.pools_total, 1u);
  EXPECT_EQ(fresh.total_queries, supplied.total_queries);
  ASSERT_EQ(fresh.strangers.size(), supplied.strangers.size());
  for (size_t i = 0; i < fresh.strangers.size(); ++i) {
    EXPECT_EQ(fresh.strangers[i].stranger, supplied.strangers[i].stranger);
    EXPECT_EQ(fresh.strangers[i].predicted_score,
              supplied.strangers[i].predicted_score)
        << "stranger " << fresh.strangers[i].stranger;
  }
}

}  // namespace
}  // namespace sight
