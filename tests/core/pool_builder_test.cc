#include "core/pool_builder.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "clustering/squeezer.h"
#include "graph/algorithms.h"
#include "graph/profile.h"
#include "graph/social_graph.h"
#include "sim/facebook_generator.h"
#include "sim/schema.h"

namespace sight {
namespace {

ProfileSchema TestSchema() {
  return ProfileSchema::Create({"gender", "locale"}).value();
}

// Owner 0 with friends 1-4 (friends 1-2 and 3-4 are connected pairs);
// strangers 5-10: 5,6 attach to friends 1+2 (2 mutuals), 7-10 attach to
// one friend each. Profiles: strangers alternate male/tr and female/us.
struct Fixture {
  SocialGraph graph{11};
  ProfileTable profiles{TestSchema()};
  UserId owner = 0;

  Fixture() {
    auto edge = [&](UserId a, UserId b) {
      EXPECT_TRUE(graph.AddEdge(a, b).ok());
    };
    for (UserId f = 1; f <= 4; ++f) edge(0, f);
    edge(1, 2);
    edge(3, 4);
    edge(5, 1);
    edge(5, 2);
    edge(6, 1);
    edge(6, 2);
    edge(7, 1);
    edge(8, 2);
    edge(9, 3);
    edge(10, 4);
    for (UserId u = 0; u <= 10; ++u) {
      Profile p;
      p.values = u % 2 == 0 ? std::vector<std::string>{"male", "tr_TR"}
                            : std::vector<std::string>{"female", "en_US"};
      EXPECT_TRUE(profiles.Set(u, p).ok());
    }
  }
};

PoolBuilderConfig DefaultConfig(PoolStrategy strategy) {
  PoolBuilderConfig config;
  config.alpha = 10;
  config.beta = 0.4;
  config.strategy = strategy;
  return config;
}

TEST(PoolBuilderTest, CreateValidates) {
  PoolBuilderConfig config;
  config.alpha = 0;
  EXPECT_FALSE(PoolBuilder::Create(config).ok());
  config = {};
  config.beta = 1.5;
  EXPECT_FALSE(PoolBuilder::Create(config).ok());
  config.beta = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(PoolBuilder::Create(config).ok());
  config = {};
  config.ns_config.mutual_weight = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(PoolBuilder::Create(config).ok());
  config = {};
  config.ns_config.saturation = -1.0;
  EXPECT_FALSE(PoolBuilder::Create(config).ok());
  EXPECT_TRUE(PoolBuilder::Create(PoolBuilderConfig{}).ok());
}

TEST(PoolBuilderTest, PoolsPartitionAllStrangers) {
  Fixture fx;
  auto builder =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkAndProfile))
          .value();
  auto pools = builder.Build(fx.graph, fx.profiles, fx.owner).value();
  EXPECT_EQ(pools.TotalStrangers(), 6u);

  std::set<UserId> seen;
  for (const StrangerPool& pool : pools.pools) {
    EXPECT_FALSE(pool.members.empty());
    for (UserId s : pool.members) {
      EXPECT_TRUE(seen.insert(s).second) << "stranger in two pools";
    }
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(PoolBuilderTest, NetworkSimilaritiesParallelToStrangers) {
  Fixture fx;
  auto builder =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkAndProfile))
          .value();
  auto pools = builder.Build(fx.graph, fx.profiles, fx.owner).value();
  ASSERT_EQ(pools.network_similarities.size(), pools.strangers.size());
  for (double ns : pools.network_similarities) {
    EXPECT_GT(ns, 0.0);  // every stranger has >= 1 mutual friend
    EXPECT_LE(ns, 1.0);
  }
}

TEST(PoolBuilderTest, TwoMutualStrangersInHigherNsgThanOneMutual) {
  Fixture fx;
  auto builder =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkOnly)).value();
  auto pools = builder.Build(fx.graph, fx.profiles, fx.owner).value();
  // Find the nsg index of stranger 5 (2 mutuals) and 7 (1 mutual).
  auto nsg_of = [&](UserId target) {
    for (const StrangerPool& pool : pools.pools) {
      if (std::find(pool.members.begin(), pool.members.end(), target) !=
          pool.members.end()) {
        return pool.nsg_index;
      }
    }
    return SIZE_MAX;
  };
  EXPECT_GT(nsg_of(5), nsg_of(7));
}

TEST(PoolBuilderTest, NetworkOnlyHasOnePoolPerNonEmptyGroup) {
  Fixture fx;
  auto builder =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkOnly)).value();
  auto pools = builder.Build(fx.graph, fx.profiles, fx.owner).value();
  std::set<size_t> nsg_indices;
  for (const StrangerPool& pool : pools.pools) {
    EXPECT_TRUE(nsg_indices.insert(pool.nsg_index).second)
        << "two NSP pools share an nsg";
    EXPECT_EQ(pool.cluster_index, 0u);
  }
}

TEST(PoolBuilderTest, NppRefinesNspByProfile) {
  Fixture fx;
  auto npp =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkAndProfile))
          .value()
          .Build(fx.graph, fx.profiles, fx.owner)
          .value();
  auto nsp = PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkOnly))
                 .value()
                 .Build(fx.graph, fx.profiles, fx.owner)
                 .value();
  EXPECT_GE(npp.pools.size(), nsp.pools.size());
  // Every NPP pool lies within one NSG group, so within one NSP pool.
  for (const StrangerPool& pool : npp.pools) {
    std::set<size_t> nsgs;
    nsgs.insert(pool.nsg_index);
    EXPECT_EQ(nsgs.size(), 1u);
  }
}

TEST(PoolBuilderTest, NppPoolsAreProfileHomogeneousHere) {
  // With two clearly distinct profile groups and beta = 0.4, no pool mixes
  // the male/tr and female/us strangers.
  Fixture fx;
  auto pools =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkAndProfile))
          .value()
          .Build(fx.graph, fx.profiles, fx.owner)
          .value();
  for (const StrangerPool& pool : pools.pools) {
    std::set<std::string> genders;
    for (UserId s : pool.members) {
      genders.insert(fx.profiles.Value(s, 0));
    }
    EXPECT_EQ(genders.size(), 1u);
  }
}

TEST(PoolBuilderTest, UnknownOwnerFails) {
  Fixture fx;
  auto builder =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkAndProfile))
          .value();
  EXPECT_FALSE(builder.Build(fx.graph, fx.profiles, 99).ok());
}

TEST(PoolBuilderTest, OwnerWithoutStrangersYieldsEmptyPoolSet) {
  SocialGraph g(2);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ProfileTable profiles(TestSchema());
  auto builder =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkAndProfile))
          .value();
  auto pools = builder.Build(g, profiles, 0).value();
  EXPECT_TRUE(pools.pools.empty());
  EXPECT_EQ(pools.TotalStrangers(), 0u);
}

// Bitwise equality of two pool sets: same stranger order, exact-equal NS
// doubles, identical pools in identical order.
void ExpectSamePoolSet(const PoolSet& got, const PoolSet& want) {
  EXPECT_EQ(got.strangers, want.strangers);
  ASSERT_EQ(got.network_similarities.size(),
            want.network_similarities.size());
  for (size_t i = 0; i < got.network_similarities.size(); ++i) {
    EXPECT_EQ(got.network_similarities[i], want.network_similarities[i]);
  }
  ASSERT_EQ(got.pools.size(), want.pools.size());
  for (size_t p = 0; p < got.pools.size(); ++p) {
    EXPECT_EQ(got.pools[p].members, want.pools[p].members) << "pool " << p;
    EXPECT_EQ(got.pools[p].nsg_index, want.pools[p].nsg_index);
    EXPECT_EQ(got.pools[p].cluster_index, want.pools[p].cluster_index);
  }
}

// Definition 3 computed directly: NS over the whole list, then
// NetworkSimilarityGroups::Build, then one Squeezer::Cluster per group.
// The reference every build through a partition cache is compared to.
PoolSet ReferencePoolSet(const PoolBuilderConfig& config,
                         const SocialGraph& graph,
                         const ProfileTable& profiles, UserId owner,
                         std::vector<UserId> strangers) {
  PoolSet result;
  result.strangers = std::move(strangers);
  NetworkSimilarity ns = NetworkSimilarity::Create(config.ns_config).value();
  result.network_similarities =
      ns.ComputeBatch(graph, owner, result.strangers, nullptr);
  NetworkSimilarityGroups nsg =
      NetworkSimilarityGroups::Build(config.alpha, result.strangers,
                                     result.network_similarities)
          .value();
  std::optional<Squeezer> squeezer;
  if (config.strategy == PoolStrategy::kNetworkAndProfile) {
    SqueezerConfig sq_config;
    sq_config.threshold = config.beta;
    sq_config.weights = config.attribute_weights;
    squeezer.emplace(Squeezer::Create(profiles.schema(), sq_config).value());
  }
  for (size_t x = 0; x < nsg.alpha(); ++x) {
    if (nsg.group(x).empty()) continue;
    if (!squeezer.has_value()) {
      result.pools.push_back({nsg.group(x), x, 0});
      continue;
    }
    Clustering clustering = squeezer->Cluster(profiles, nsg.group(x)).value();
    for (size_t c = 0; c < clustering.num_clusters(); ++c) {
      result.pools.push_back({clustering.clusters[c], x, c});
    }
  }
  return result;
}

PoolSet Reference(const PoolBuilder& builder, const Fixture& fx,
                  std::vector<UserId> strangers) {
  return ReferencePoolSet(builder.config(), fx.graph, fx.profiles, fx.owner,
                          std::move(strangers));
}

TEST(PoolBuilderTest, ColdBuildMatchesReferenceOnGeneratedOwner) {
  sim::GeneratorConfig gen_config;
  gen_config.num_strangers = 400;
  auto generator = sim::FacebookGenerator::Create(gen_config).value();
  Rng rng(41);
  sim::OwnerDataset ds =
      generator.Generate({sim::Gender::kMale, sim::Locale::kTR}, &rng)
          .value();
  for (PoolStrategy strategy :
       {PoolStrategy::kNetworkAndProfile, PoolStrategy::kNetworkOnly}) {
    PoolBuilderConfig config = DefaultConfig(strategy);
    config.attribute_weights = sim::PaperAttributeWeights();
    auto builder = PoolBuilder::Create(config).value();
    PoolSet want = ReferencePoolSet(config, ds.graph, ds.profiles, ds.owner,
                                    ds.strangers);
    EXPECT_GT(want.pools.size(), 1u);
    ExpectSamePoolSet(builder.BuildForStrangers(ds.graph, ds.profiles,
                                                ds.owner, ds.strangers)
                          .value(),
                      want);
    // A carried partition grown in two steps lands on the same pools.
    PoolPartitionCache cache;
    std::vector<UserId> half(ds.strangers.begin(),
                             ds.strangers.begin() + 150);
    ASSERT_TRUE(builder
                    .BuildForStrangersCached(ds.graph, ds.profiles, ds.owner,
                                             half, &cache)
                    .ok());
    ExpectSamePoolSet(builder
                          .BuildForStrangersCached(ds.graph, ds.profiles,
                                                   ds.owner, ds.strangers,
                                                   &cache)
                          .value(),
                      want);
    EXPECT_EQ(cache.stats().hits_grown, 1u);
  }
}

TEST(PoolBuilderTest, CachedBuildMatchesColdOnEveryPath) {
  // Cold build, identical set, grown set, and cold rebuild must all be
  // bitwise-equal to the reference partition over the same list, for
  // both strategies.
  for (PoolStrategy strategy :
       {PoolStrategy::kNetworkAndProfile, PoolStrategy::kNetworkOnly}) {
    Fixture fx;
    auto builder = PoolBuilder::Create(DefaultConfig(strategy)).value();
    PoolPartitionCache cache;

    std::vector<UserId> first = {5, 6, 7};
    PoolSet cold1 = Reference(builder, fx, first);
    ExpectSamePoolSet(
        builder.BuildForStrangers(fx.graph, fx.profiles, fx.owner, first)
            .value(),
        cold1);
    auto warm1 = builder
                     .BuildForStrangersCached(fx.graph, fx.profiles, fx.owner,
                                              first, &cache)
                     .value();
    ExpectSamePoolSet(warm1, cold1);
    EXPECT_EQ(cache.stats().misses, 1u);

    // Identical set: reused outright.
    auto warm2 = builder
                     .BuildForStrangersCached(fx.graph, fx.profiles, fx.owner,
                                              first, &cache)
                     .value();
    ExpectSamePoolSet(warm2, cold1);
    EXPECT_EQ(cache.stats().hits_identical, 1u);

    // Grown set: only the suffix routes through the carried squeezers.
    std::vector<UserId> grown = {5, 6, 7, 8, 9, 10};
    PoolSet cold2 = Reference(builder, fx, grown);
    auto warm3 = builder
                     .BuildForStrangersCached(fx.graph, fx.profiles, fx.owner,
                                              grown, &cache)
                     .value();
    ExpectSamePoolSet(warm3, cold2);
    EXPECT_EQ(cache.stats().hits_grown, 1u);
    EXPECT_EQ(cache.num_strangers(), 6u);
  }
}

TEST(PoolBuilderTest, CachedBuildRebuildsOnInvalidation) {
  Fixture fx;
  auto builder =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkAndProfile))
          .value();
  PoolPartitionCache cache;
  std::vector<UserId> strangers = {5, 6, 7, 8};
  (void)builder
      .BuildForStrangersCached(fx.graph, fx.profiles, fx.owner, strangers,
                               &cache)
      .value();

  // A graph edit bumps the epoch: next build is a cold rebuild that sees
  // the new edge (stranger 7 gains a second mutual friend).
  ASSERT_TRUE(fx.graph.AddEdge(7, 2).ok());
  PoolSet cold = Reference(builder, fx, strangers);
  auto warm = builder
                  .BuildForStrangersCached(fx.graph, fx.profiles, fx.owner,
                                           strangers, &cache)
                  .value();
  ExpectSamePoolSet(warm, cold);
  EXPECT_EQ(cache.stats().misses, 2u);

  // A profile edit invalidates too.
  ASSERT_TRUE(fx.profiles.SetValue(5, 0, "female").ok());
  PoolSet cold2 = Reference(builder, fx, strangers);
  auto warm2 = builder
                   .BuildForStrangersCached(fx.graph, fx.profiles, fx.owner,
                                            strangers, &cache)
                   .value();
  ExpectSamePoolSet(warm2, cold2);
  EXPECT_EQ(cache.stats().misses, 3u);

  // A reordered (non-prefix) list breaks the prefix and rebuilds.
  std::vector<UserId> reordered = {6, 5, 7, 8};
  PoolSet cold3 = Reference(builder, fx, reordered);
  auto warm3 = builder
                   .BuildForStrangersCached(fx.graph, fx.profiles, fx.owner,
                                            reordered, &cache)
                   .value();
  ExpectSamePoolSet(warm3, cold3);
  EXPECT_EQ(cache.stats().misses, 4u);

  // A different builder configuration never reuses another's partition.
  PoolBuilderConfig other = DefaultConfig(PoolStrategy::kNetworkAndProfile);
  other.alpha = 5;
  auto other_builder = PoolBuilder::Create(other).value();
  PoolSet cold4 = Reference(other_builder, fx, reordered);
  auto warm4 = other_builder
                   .BuildForStrangersCached(fx.graph, fx.profiles, fx.owner,
                                            reordered, &cache)
                   .value();
  ExpectSamePoolSet(warm4, cold4);
  EXPECT_EQ(cache.stats().misses, 5u);
}

TEST(PoolBuilderTest, BuildForStrangersHonorsSubset) {
  Fixture fx;
  auto builder =
      PoolBuilder::Create(DefaultConfig(PoolStrategy::kNetworkAndProfile))
          .value();
  auto pools =
      builder.BuildForStrangers(fx.graph, fx.profiles, fx.owner, {5, 7})
          .value();
  EXPECT_EQ(pools.TotalStrangers(), 2u);
  size_t members = 0;
  for (const StrangerPool& pool : pools.pools) members += pool.members.size();
  EXPECT_EQ(members, 2u);
}

}  // namespace
}  // namespace sight
