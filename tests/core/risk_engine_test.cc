#include "core/risk_engine.h"

#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/profile.h"
#include "graph/social_graph.h"
#include "graph/visibility.h"

namespace sight {
namespace {

// Deterministic oracle: labels depend only on the displayed similarity.
class SimilarityOracle : public LabelOracle {
 public:
  RiskLabel QueryLabel(UserId, double similarity, double) override {
    ++queries_;
    if (similarity < 0.15) return RiskLabel::kVeryRisky;
    if (similarity < 0.4) return RiskLabel::kRisky;
    return RiskLabel::kNotRisky;
  }
  size_t queries() const { return queries_; }

 private:
  size_t queries_ = 0;
};

ProfileSchema TestSchema() {
  return ProfileSchema::Create({"gender", "locale"}).value();
}

// Owner 0, 8 friends in two squares, 40 strangers with varying mutuals.
struct World {
  SocialGraph graph;
  ProfileTable profiles{TestSchema()};
  VisibilityTable visibility;
  UserId owner;

  World() {
    graph.AddUsers(9);
    owner = 0;
    auto edge = [&](UserId a, UserId b) {
      EXPECT_TRUE(graph.AddEdge(a, b).ok());
    };
    for (UserId f = 1; f <= 8; ++f) edge(0, f);
    // Friend communities 1-4 and 5-8 are cliques.
    for (UserId a = 1; a <= 4; ++a) {
      for (UserId b = a + 1; b <= 4; ++b) edge(a, b);
    }
    for (UserId a = 5; a <= 8; ++a) {
      for (UserId b = a + 1; b <= 8; ++b) edge(a, b);
    }
    // 40 strangers: stranger i attaches to (i % 4) + 1 friends of one
    // community.
    for (int i = 0; i < 40; ++i) {
      UserId s = graph.AddUser();
      UserId base = i % 2 == 0 ? 1 : 5;
      int mutuals = (i % 4) + 1;
      for (int m = 0; m < mutuals; ++m) {
        edge(s, base + static_cast<UserId>(m));
      }
      Profile p;
      p.values = i % 2 == 0 ? std::vector<std::string>{"male", "tr_TR"}
                            : std::vector<std::string>{"female", "en_US"};
      EXPECT_TRUE(profiles.Set(s, p).ok());
      visibility.SetMask(s, static_cast<uint8_t>(i % 128));
    }
    for (UserId u = 0; u <= 8; ++u) {
      Profile p;
      p.values = {"male", "tr_TR"};
      EXPECT_TRUE(profiles.Set(u, p).ok());
    }
  }
};

TEST(RiskEngineTest, CreateValidatesConfig) {
  RiskEngineConfig config;
  config.learner.labels_per_round = 0;
  EXPECT_FALSE(RiskEngine::Create(config).ok());
  config = {};
  config.theta.values.fill(0.0);
  EXPECT_FALSE(RiskEngine::Create(config).ok());
  EXPECT_TRUE(RiskEngine::Create(RiskEngineConfig{}).ok());
}

TEST(RiskEngineTest, AssessOwnerLabelsEveryStranger) {
  World world;
  auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
  SimilarityOracle oracle;
  Rng rng(42);
  auto report = engine
                    .AssessOwner(world.graph, world.profiles,
                                 world.visibility, world.owner, &oracle, &rng)
                    .value();
  EXPECT_EQ(report.num_strangers, 40u);
  EXPECT_EQ(report.assessment.strangers.size(), 40u);
  std::set<UserId> covered;
  for (const StrangerAssessment& sa : report.assessment.strangers) {
    covered.insert(sa.stranger);
    int label = static_cast<int>(sa.predicted_label);
    EXPECT_GE(label, kRiskLabelMin);
    EXPECT_LE(label, kRiskLabelMax);
  }
  EXPECT_EQ(covered.size(), 40u);
  EXPECT_EQ(report.assessment.total_queries, oracle.queries());
  EXPECT_GT(report.num_pools, 0u);
  EXPECT_EQ(report.pool_sizes.size(), report.num_pools);
}

TEST(RiskEngineTest, QueriesFewerThanAllStrangersOnSeparablePools) {
  World world;
  RiskEngineConfig config;
  config.learner.confidence = 80.0;
  auto engine = RiskEngine::Create(config).value();
  SimilarityOracle oracle;
  Rng rng(7);
  auto report = engine
                    .AssessOwner(world.graph, world.profiles,
                                 world.visibility, world.owner, &oracle, &rng)
                    .value();
  // The oracle depends only on NS, which is constant within a pool (same
  // mutual structure), so pools converge fast.
  EXPECT_LT(report.assessment.total_queries, 40u);
}

TEST(RiskEngineTest, DeterministicGivenSeed) {
  World world;
  auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
  auto run = [&](uint64_t seed) {
    SimilarityOracle oracle;
    Rng rng(seed);
    return engine
        .AssessOwner(world.graph, world.profiles, world.visibility,
                     world.owner, &oracle, &rng)
        .value();
  };
  auto r1 = run(3);
  auto r2 = run(3);
  ASSERT_EQ(r1.assessment.strangers.size(), r2.assessment.strangers.size());
  for (size_t i = 0; i < r1.assessment.strangers.size(); ++i) {
    EXPECT_EQ(r1.assessment.strangers[i].predicted_label,
              r2.assessment.strangers[i].predicted_label);
  }
  EXPECT_EQ(r1.assessment.total_queries, r2.assessment.total_queries);
}

TEST(RiskEngineTest, BaselineClassifiersRunEndToEnd) {
  World world;
  for (ClassifierKind kind :
       {ClassifierKind::kKnn, ClassifierKind::kMajority}) {
    RiskEngineConfig config;
    config.classifier = kind;
    auto engine = RiskEngine::Create(config).value();
    SimilarityOracle oracle;
    Rng rng(11);
    auto report =
        engine
            .AssessOwner(world.graph, world.profiles, world.visibility,
                         world.owner, &oracle, &rng)
            .value();
    EXPECT_EQ(report.assessment.strangers.size(), 40u);
  }
}

TEST(RiskEngineTest, CmnClassifierRunsEndToEnd) {
  World world;
  RiskEngineConfig config;
  config.classifier = ClassifierKind::kHarmonicCmn;
  auto engine = RiskEngine::Create(config).value();
  SimilarityOracle oracle;
  Rng rng(29);
  auto report = engine
                    .AssessOwner(world.graph, world.profiles,
                                 world.visibility, world.owner, &oracle, &rng)
                    .value();
  EXPECT_EQ(report.assessment.strangers.size(), 40u);
  for (const StrangerAssessment& sa : report.assessment.strangers) {
    int label = static_cast<int>(sa.predicted_label);
    EXPECT_GE(label, kRiskLabelMin);
    EXPECT_LE(label, kRiskLabelMax);
  }
}

TEST(RiskEngineTest, SparsifiedClassifierGraphRunsEndToEnd) {
  World world;
  RiskEngineConfig config;
  config.learner.sparsify_top_k = 3;
  auto engine = RiskEngine::Create(config).value();
  SimilarityOracle oracle;
  Rng rng(31);
  auto report = engine
                    .AssessOwner(world.graph, world.profiles,
                                 world.visibility, world.owner, &oracle, &rng)
                    .value();
  EXPECT_EQ(report.assessment.strangers.size(), 40u);
}

TEST(RiskEngineTest, UncertaintySamplerRunsEndToEnd) {
  World world;
  RiskEngineConfig config;
  config.sampler = SamplerKind::kUncertainty;
  auto engine = RiskEngine::Create(config).value();
  SimilarityOracle oracle;
  Rng rng(13);
  auto report = engine
                    .AssessOwner(world.graph, world.profiles,
                                 world.visibility, world.owner, &oracle, &rng)
                    .value();
  EXPECT_EQ(report.assessment.strangers.size(), 40u);
}

TEST(RiskEngineTest, NetworkOnlyPoolsRunEndToEnd) {
  World world;
  RiskEngineConfig config;
  config.pools.strategy = PoolStrategy::kNetworkOnly;
  auto engine = RiskEngine::Create(config).value();
  SimilarityOracle oracle;
  Rng rng(37);
  auto report = engine
                    .AssessOwner(world.graph, world.profiles,
                                 world.visibility, world.owner, &oracle, &rng)
                    .value();
  EXPECT_EQ(report.assessment.strangers.size(), 40u);
  // NSP pools: one per occupied NSG, hence no more than alpha pools.
  EXPECT_LE(report.num_pools, config.pools.alpha);
}

TEST(RiskEngineTest, AssessStrangersSubset) {
  World world;
  auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
  SimilarityOracle oracle;
  Rng rng(17);
  auto all = TwoHopStrangers(world.graph, world.owner).value();
  std::vector<UserId> subset(all.begin(), all.begin() + 10);
  auto report = engine
                    .AssessStrangers(world.graph, world.profiles,
                                     world.visibility, world.owner, subset,
                                     &oracle, &rng)
                    .value();
  EXPECT_EQ(report.num_strangers, 10u);
  EXPECT_EQ(report.assessment.strangers.size(), 10u);
}

TEST(RiskEngineTest, UnknownOwnerFails) {
  World world;
  auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
  SimilarityOracle oracle;
  Rng rng(19);
  EXPECT_FALSE(engine
                   .AssessOwner(world.graph, world.profiles, world.visibility,
                                9999, &oracle, &rng)
                   .ok());
}

// The stranger list of an explicit assessment must name graph users
// other than the owner, each once; any other list is InvalidArgument
// before the owner is asked anything.
TEST(RiskEngineTest, MalformedStrangerListsAreRejectedBeforeAnyQuery) {
  World world;
  auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
  auto all = TwoHopStrangers(world.graph, world.owner).value();
  ASSERT_GE(all.size(), 2u);
  std::vector<UserId> duplicated = all;
  duplicated.push_back(all[1]);
  std::vector<UserId> with_owner = all;
  with_owner.push_back(world.owner);
  std::vector<UserId> with_unknown = all;
  with_unknown.push_back(static_cast<UserId>(world.graph.NumUsers()));
  for (const std::vector<UserId>& strangers :
       {duplicated, with_owner, with_unknown}) {
    SimilarityOracle oracle;
    Rng rng(29);
    EXPECT_EQ(engine
                  .AssessStrangers(world.graph, world.profiles,
                                   world.visibility, world.owner, strangers,
                                   &oracle, &rng)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "stranger " << strangers.back();
    EXPECT_EQ(oracle.queries(), 0u) << "stranger " << strangers.back();
  }
}

TEST(RiskEngineTest, NullOracleFails) {
  World world;
  auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
  Rng rng(23);
  EXPECT_FALSE(engine
                   .AssessOwner(world.graph, world.profiles, world.visibility,
                                world.owner, nullptr, &rng)
                   .ok());
}

}  // namespace
}  // namespace sight
