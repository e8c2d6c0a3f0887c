#include "sim/twitter_generator.h"

#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "core/benefit.h"
#include "graph/algorithms.h"
#include "similarity/network_similarity.h"

namespace sight::sim {
namespace {

TwitterGeneratorConfig SmallConfig() {
  TwitterGeneratorConfig config;
  config.num_followed = 40;
  config.num_strangers = 200;
  config.num_celebrities = 4;
  return config;
}

TEST(TwitterGeneratorTest, ConfigValidation) {
  TwitterGeneratorConfig config;
  config.num_followed = 1;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.num_celebrities = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.num_celebrities = config.num_followed + 1;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.verified_fraction = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config.verified_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(config.Validate().ok());
  EXPECT_TRUE(TwitterGeneratorConfig{}.Validate().ok());
}

TEST(TwitterGeneratorTest, GeneratesRequestedScale) {
  auto gen = TwitterGenerator::Create(SmallConfig()).value();
  Rng rng(1);
  auto ds = gen.Generate(&rng).value();
  EXPECT_EQ(ds.friends.size(), 40u);
  EXPECT_EQ(ds.strangers.size(), 200u);
  EXPECT_EQ(ds.profiles.schema().names(), TwitterSchema().names());
}

TEST(TwitterGeneratorTest, StrangersAreTwoHop) {
  auto gen = TwitterGenerator::Create(SmallConfig()).value();
  Rng rng(2);
  auto ds = gen.Generate(&rng).value();
  EXPECT_EQ(ds.strangers, TwoHopStrangers(ds.graph, ds.owner).value());
  for (UserId s : ds.strangers) {
    EXPECT_GE(MutualFriendCount(ds.graph, ds.owner, s), 1u);
  }
}

TEST(TwitterGeneratorTest, HubsDominateMutualFriends) {
  // Most strangers' mutual friends should include at least one of the
  // celebrity hubs (the first num_celebrities friend ids).
  auto gen = TwitterGenerator::Create(SmallConfig()).value();
  Rng rng(3);
  auto ds = gen.Generate(&rng).value();
  std::set<UserId> hubs(ds.friends.begin(), ds.friends.begin() + 4);
  size_t through_hub = 0;
  for (UserId s : ds.strangers) {
    for (UserId m : MutualFriends(ds.graph, ds.owner, s)) {
      if (hubs.count(m)) {
        ++through_hub;
        break;
      }
    }
  }
  EXPECT_GT(static_cast<double>(through_hub) /
                static_cast<double>(ds.strangers.size()),
            0.6);
}

TEST(TwitterGeneratorTest, BenefitsHigherThanFacebookLike) {
  // Twitter-like visibility is near-public: mean stranger benefit should
  // be clearly higher than the Facebook generator's (heterophily: the
  // content IS the benefit).
  auto tw = TwitterGenerator::Create(SmallConfig()).value();
  Rng rng(4);
  auto tw_ds = tw.Generate(&rng).value();

  GeneratorConfig fb_config;
  fb_config.num_friends = 40;
  fb_config.num_strangers = 200;
  auto fb = FacebookGenerator::Create(fb_config).value();
  Rng rng2(4);
  auto fb_ds = fb.Generate({Gender::kMale, Locale::kUS}, &rng2).value();

  auto benefit = BenefitModel::Create(ThetaWeights::Uniform()).value();
  auto mean_benefit = [&](const OwnerDataset& ds) {
    double sum = 0.0;
    for (UserId s : ds.strangers) sum += benefit.Compute(ds.visibility, s);
    return sum / static_cast<double>(ds.strangers.size());
  };
  EXPECT_GT(mean_benefit(tw_ds), mean_benefit(fb_ds) + 0.1);
}

TEST(TwitterGeneratorTest, NetworkSimilaritySkewedLowerThanFacebook) {
  // Hub followers are not interconnected, so the density term stays near
  // zero and NS concentrates at the bottom groups.
  auto gen = TwitterGenerator::Create(SmallConfig()).value();
  Rng rng(5);
  auto ds = gen.Generate(&rng).value();
  auto ns = NetworkSimilarity::Create(NetworkSimilarityConfig{}).value();
  size_t low = 0;
  for (UserId s : ds.strangers) {
    if (ns.Compute(ds.graph, ds.owner, s) < 0.3) ++low;
  }
  EXPECT_GT(static_cast<double>(low) /
                static_cast<double>(ds.strangers.size()),
            0.7);
}

TEST(TwitterGeneratorTest, DeterministicGivenSeed) {
  auto gen = TwitterGenerator::Create(SmallConfig()).value();
  Rng rng1(6);
  Rng rng2(6);
  auto a = gen.Generate(&rng1).value();
  auto b = gen.Generate(&rng2).value();
  EXPECT_EQ(a.graph.NumEdges(), b.graph.NumEdges());
  EXPECT_EQ(a.strangers, b.strangers);
}

TEST(TwitterGeneratorTest, RequiresRng) {
  auto gen = TwitterGenerator::Create(SmallConfig()).value();
  EXPECT_FALSE(gen.Generate(nullptr).ok());
}

}  // namespace
}  // namespace sight::sim
