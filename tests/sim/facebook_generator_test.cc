#include "sim/facebook_generator.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "similarity/network_similarity.h"

namespace sight::sim {
namespace {

GeneratorConfig SmallConfig() {
  GeneratorConfig config;
  config.num_friends = 40;
  config.num_strangers = 200;
  config.num_communities = 4;
  return config;
}

TEST(PaperOwnerPopulationTest, MatchesSectionFourA) {
  auto owners = PaperOwnerPopulation();
  ASSERT_EQ(owners.size(), 47u);
  size_t males = 0;
  std::map<Locale, size_t> locales;
  for (const OwnerSpec& o : owners) {
    if (o.gender == Gender::kMale) ++males;
    ++locales[o.locale];
  }
  EXPECT_EQ(males, 32u);
  EXPECT_EQ(locales[Locale::kTR], 17u);
  EXPECT_EQ(locales[Locale::kUS], 9u);
  EXPECT_EQ(locales[Locale::kPL], 7u);
  EXPECT_EQ(locales[Locale::kIT], 5u);
  EXPECT_EQ(locales[Locale::kIN], 1u);
}

TEST(GeneratorConfigTest, Validation) {
  GeneratorConfig config;
  config.num_friends = 1;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.num_communities = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.num_communities = config.num_friends + 1;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.intra_community_edge_prob = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config.intra_community_edge_prob = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.max_mutual_friends = 0;
  EXPECT_FALSE(config.Validate().ok());
  EXPECT_TRUE(GeneratorConfig{}.Validate().ok());
}

TEST(FacebookGeneratorTest, GeneratesRequestedScale) {
  auto gen = FacebookGenerator::Create(SmallConfig()).value();
  Rng rng(1);
  auto ds = gen.Generate({Gender::kMale, Locale::kTR}, &rng).value();
  EXPECT_EQ(ds.friends.size(), 40u);
  EXPECT_EQ(ds.strangers.size(), 200u);
  EXPECT_EQ(ds.graph.NumUsers(), 1 + 40 + 200u);
}

TEST(FacebookGeneratorTest, StrangersAreExactlyTwoHops) {
  auto gen = FacebookGenerator::Create(SmallConfig()).value();
  Rng rng(2);
  auto ds = gen.Generate({Gender::kFemale, Locale::kUS}, &rng).value();
  auto two_hop = TwoHopStrangers(ds.graph, ds.owner).value();
  EXPECT_EQ(ds.strangers, two_hop);
  for (UserId s : ds.strangers) {
    EXPECT_FALSE(ds.graph.HasEdge(ds.owner, s));
    EXPECT_GE(MutualFriendCount(ds.graph, ds.owner, s), 1u);
  }
}

TEST(FacebookGeneratorTest, EveryUserHasAProfileAndVisibility) {
  auto gen = FacebookGenerator::Create(SmallConfig()).value();
  Rng rng(3);
  auto ds = gen.Generate({Gender::kMale, Locale::kIT}, &rng).value();
  for (UserId u = 0; u < ds.graph.NumUsers(); ++u) {
    EXPECT_TRUE(ds.profiles.Has(u)) << "user " << u;
    const Profile& p = ds.profiles.Get(u);
    EXPECT_FALSE(
        p.IsMissing(static_cast<AttributeId>(FacebookAttribute::kGender)));
    EXPECT_FALSE(
        p.IsMissing(static_cast<AttributeId>(FacebookAttribute::kLocale)));
  }
}

TEST(FacebookGeneratorTest, OwnerProfileMatchesSpec) {
  auto gen = FacebookGenerator::Create(SmallConfig()).value();
  Rng rng(4);
  auto ds = gen.Generate({Gender::kFemale, Locale::kPL}, &rng).value();
  const Profile& p = ds.profiles.Get(ds.owner);
  EXPECT_EQ(p.value(static_cast<AttributeId>(FacebookAttribute::kGender)),
            "female");
  EXPECT_EQ(p.value(static_cast<AttributeId>(FacebookAttribute::kLocale)),
            "pl_PL");
}

TEST(FacebookGeneratorTest, DeterministicGivenSeed) {
  auto gen = FacebookGenerator::Create(SmallConfig()).value();
  Rng rng1(5);
  Rng rng2(5);
  auto a = gen.Generate({Gender::kMale, Locale::kTR}, &rng1).value();
  auto b = gen.Generate({Gender::kMale, Locale::kTR}, &rng2).value();
  EXPECT_EQ(a.graph.NumEdges(), b.graph.NumEdges());
  EXPECT_EQ(a.strangers, b.strangers);
  for (UserId u = 0; u < a.graph.NumUsers(); ++u) {
    EXPECT_EQ(a.profiles.Get(u).values, b.profiles.Get(u).values);
    EXPECT_EQ(a.visibility.Mask(u), b.visibility.Mask(u));
  }
}

TEST(FacebookGeneratorTest, NetworkSimilaritySkewedLow) {
  // Fig. 4 shape: most strangers are weakly connected; none exceeds ~0.7.
  auto gen = FacebookGenerator::Create(SmallConfig()).value();
  Rng rng(6);
  auto ds = gen.Generate({Gender::kMale, Locale::kTR}, &rng).value();
  auto ns = NetworkSimilarity::Create(NetworkSimilarityConfig{}).value();
  size_t low = 0;
  double max_ns = 0.0;
  for (UserId s : ds.strangers) {
    double v = ns.Compute(ds.graph, ds.owner, s);
    max_ns = std::max(max_ns, v);
    if (v < 0.3) ++low;
  }
  EXPECT_GT(static_cast<double>(low) /
                static_cast<double>(ds.strangers.size()),
            0.5);
  EXPECT_LE(max_ns, 0.75);
}

TEST(FacebookGeneratorTest, HomophilyInStrangerLocales) {
  // Most strangers should share the owner's locale (homophily).
  GeneratorConfig config = SmallConfig();
  config.community_same_locale_prob = 0.8;
  config.same_locale_stranger_prob = 0.8;
  auto gen = FacebookGenerator::Create(config).value();
  Rng rng(7);
  auto ds = gen.Generate({Gender::kMale, Locale::kTR}, &rng).value();
  size_t same = 0;
  for (UserId s : ds.strangers) {
    if (ds.profiles.Value(
            s, static_cast<AttributeId>(FacebookAttribute::kLocale)) ==
        "tr_TR") {
      ++same;
    }
  }
  EXPECT_GT(static_cast<double>(same) /
                static_cast<double>(ds.strangers.size()),
            0.4);
}

TEST(FacebookGeneratorTest, MutualFriendCountsAreZipfSkewed) {
  auto gen = FacebookGenerator::Create(SmallConfig()).value();
  Rng rng(8);
  auto ds = gen.Generate({Gender::kMale, Locale::kUS}, &rng).value();
  size_t single_mutual = 0;
  for (UserId s : ds.strangers) {
    if (MutualFriendCount(ds.graph, ds.owner, s) == 1) ++single_mutual;
  }
  // Zipf(1.6) puts roughly half the mass on m=1.
  EXPECT_GT(static_cast<double>(single_mutual) /
                static_cast<double>(ds.strangers.size()),
            0.3);
}

TEST(FacebookGeneratorTest, RequiresRng) {
  auto gen = FacebookGenerator::Create(SmallConfig()).value();
  EXPECT_FALSE(gen.Generate({Gender::kMale, Locale::kTR}, nullptr).ok());
}

}  // namespace
}  // namespace sight::sim
