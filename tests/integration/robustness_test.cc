// Robustness under hostile or degenerate inputs: the learner must always
// terminate with full coverage and bounded effort, whatever the oracle or
// the data does.

#include <gtest/gtest.h>

#include "core/risk_engine.h"
#include "graph/algorithms.h"
#include "service/risk_service.h"
#include "sim/facebook_generator.h"

namespace sight {
namespace {

sim::OwnerDataset MakeDataset(uint64_t seed, size_t strangers = 150) {
  sim::GeneratorConfig config;
  config.num_friends = 30;
  config.num_strangers = strangers;
  config.num_communities = 3;
  auto gen = sim::FacebookGenerator::Create(config).value();
  Rng rng(seed);
  return gen.Generate({sim::Gender::kMale, sim::Locale::kTR}, &rng).value();
}

// Answers uniformly at random but consistently per stranger.
class RandomConsistentOracle : public LabelOracle {
 public:
  explicit RandomConsistentOracle(uint64_t seed) : seed_(seed) {}

  RiskLabel QueryLabel(UserId stranger, double, double) override {
    ++queries_;
    uint64_t z = seed_ ^ (static_cast<uint64_t>(stranger) *
                          0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z ^= z >> 31;
    return static_cast<RiskLabel>(1 + static_cast<int>(z % 3));
  }

  size_t queries() const { return queries_; }

 private:
  uint64_t seed_;
  size_t queries_ = 0;
};

// The worst case: answers flip on every call, violating the consistency
// assumption active learning relies on.
class FlipFlopOracle : public LabelOracle {
 public:
  RiskLabel QueryLabel(UserId, double, double) override {
    ++calls_;
    return calls_ % 2 == 0 ? RiskLabel::kNotRisky : RiskLabel::kVeryRisky;
  }

 private:
  size_t calls_ = 0;
};

// Always answers the same label.
class ConstantOracle : public LabelOracle {
 public:
  explicit ConstantOracle(RiskLabel label) : label_(label) {}
  RiskLabel QueryLabel(UserId, double, double) override { return label_; }

 private:
  RiskLabel label_;
};

TEST(RobustnessTest, RandomOracleTerminatesWithFullCoverage) {
  sim::OwnerDataset ds = MakeDataset(1);
  RandomConsistentOracle oracle(7);
  auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
  Rng rng(3);
  auto report = engine
                    .AssessOwner(ds.graph, ds.profiles, ds.visibility,
                                 ds.owner, &oracle, &rng)
                    .value();
  EXPECT_EQ(report.assessment.strangers.size(), ds.strangers.size());
  // Random labels resist prediction; effort is bounded by pool exhaustion
  // or max_rounds, never more than one query per stranger.
  EXPECT_LE(oracle.queries(), ds.strangers.size());
}

TEST(RobustnessTest, InconsistentOracleTerminates) {
  sim::OwnerDataset ds = MakeDataset(2, 100);
  FlipFlopOracle oracle;
  RiskEngineConfig config;
  config.learner.max_rounds = 16;
  auto engine = RiskEngine::Create(config).value();
  Rng rng(5);
  auto report = engine
                    .AssessOwner(ds.graph, ds.profiles, ds.visibility,
                                 ds.owner, &oracle, &rng)
                    .value();
  EXPECT_EQ(report.assessment.strangers.size(), ds.strangers.size());
  // Every pool ended one way or another.
  EXPECT_EQ(report.assessment.pools_converged +
                report.assessment.pools_exhausted +
                report.assessment.pools_round_limit,
            report.num_pools);
}

TEST(RobustnessTest, ConstantOracleConvergesCheaply) {
  sim::OwnerDataset ds = MakeDataset(3);
  ConstantOracle oracle(RiskLabel::kRisky);
  RiskEngineConfig config;
  config.pools.attribute_weights = sim::PaperAttributeWeights();
  auto engine = RiskEngine::Create(config).value();
  Rng rng(7);
  auto report = engine
                    .AssessOwner(ds.graph, ds.profiles, ds.visibility,
                                 ds.owner, &oracle, &rng)
                    .value();
  for (const StrangerAssessment& sa : report.assessment.strangers) {
    EXPECT_EQ(sa.predicted_label, RiskLabel::kRisky);
  }
  EXPECT_LT(report.assessment.total_queries, ds.strangers.size());
}

TEST(RobustnessTest, TinyMaxRoundsStillCoversEveryStranger) {
  sim::OwnerDataset ds = MakeDataset(4, 120);
  RandomConsistentOracle oracle(11);
  RiskEngineConfig config;
  config.learner.max_rounds = 1;  // one round per pool, then stop
  auto engine = RiskEngine::Create(config).value();
  Rng rng(13);
  auto report = engine
                    .AssessOwner(ds.graph, ds.profiles, ds.visibility,
                                 ds.owner, &oracle, &rng)
                    .value();
  // Coverage holds even when almost everything is merely predicted.
  EXPECT_EQ(report.assessment.strangers.size(), ds.strangers.size());
  for (const StrangerAssessment& sa : report.assessment.strangers) {
    int label = static_cast<int>(sa.predicted_label);
    EXPECT_GE(label, kRiskLabelMin);
    EXPECT_LE(label, kRiskLabelMax);
  }
}

TEST(RobustnessTest, SessionSurvivesGraphGrowthBetweenAssessments) {
  // Users and edges added to the graph after the owner registered are
  // picked up on the next AssessSync (the service only reads the tables
  // while assessing). One shard, every carry off: the rebuild-per-tick
  // single-owner flow.
  sim::OwnerDataset ds = MakeDataset(5, 80);
  RandomConsistentOracle oracle(17);
  RiskServiceConfig config;
  config.num_shards = 1;
  config.carry_learners = false;
  config.carry_pool_partition = false;
  config.carry_encoded_tables = false;
  auto service = RiskService::Create(std::move(config)).value();
  OwnerRegistration registration;
  registration.owner = ds.owner;
  registration.graph = &ds.graph;
  registration.profiles = &ds.profiles;
  registration.visibility = &ds.visibility;
  ASSERT_TRUE(service->RegisterOwner(registration).ok());
  ASSERT_TRUE(service->DiscoverAllStrangers(ds.owner).ok());
  Rng rng(19);
  ASSERT_TRUE(service->AssessSync(ds.owner, &oracle, &rng).ok());

  // Grow the graph: a brand-new stranger via an existing friend.
  UserId newcomer = ds.graph.AddUser();
  ASSERT_TRUE(ds.graph.AddEdge(newcomer, ds.friends[0]).ok());
  Profile p;
  p.values.assign(ds.profiles.schema().num_attributes(), "x");
  ASSERT_TRUE(ds.profiles.Set(newcomer, p).ok());
  ASSERT_TRUE(service->AddStrangers(ds.owner, {newcomer}).ok());

  auto report = service->AssessSync(ds.owner, &oracle, &rng).value();
  bool found = false;
  for (const StrangerAssessment& sa : report.assessment.strangers) {
    if (sa.stranger == newcomer) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace sight
