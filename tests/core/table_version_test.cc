// Table versions and the caches that fingerprint them.
//
// The regression probe: two tables with equal mutation epochs, then
// `a = b`. A cache keyed on (table address, epoch) sees nothing change
// and serves the old contents; each of the three fingerprinting caches
// must rebuild instead.

#include "graph/table_version.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pool_builder.h"
#include "core/risk_engine.h"
#include "graph/profile.h"
#include "graph/profile_codec.h"
#include "graph/social_graph.h"
#include "graph/visibility.h"
#include "sim/facebook_generator.h"
#include "sim/owner_model.h"
#include "util/random.h"

namespace sight {
namespace {

ProfileSchema TestSchema() {
  return ProfileSchema::Create({"gender", "locale"}).value();
}

Profile MakeProfile(std::string gender, std::string locale) {
  Profile p;
  p.values = {std::move(gender), std::move(locale)};
  return p;
}

TEST(TableVersionTest, MutationsBumpOnlyTheEpoch) {
  ProfileTable table(TestSchema());
  TableVersion before = table.version();
  ASSERT_TRUE(table.Set(0, MakeProfile("male", "tr_TR")).ok());
  EXPECT_EQ(table.version().stamp, before.stamp);
  EXPECT_EQ(table.version().epoch, before.epoch + 1);
}

TEST(TableVersionTest, CopiesMovesAndAssignmentsTakeFreshStamps) {
  SocialGraph a(3);
  SocialGraph b(3);
  ASSERT_TRUE(a.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(1, 2).ok());
  ASSERT_EQ(a.version().epoch, b.version().epoch);
  EXPECT_NE(a.version(), b.version());

  TableVersion a_before = a.version();
  a = b;  // same address, same epoch, new contents
  EXPECT_NE(a.version(), a_before);
  EXPECT_NE(a.version(), b.version());

  SocialGraph copy = b;
  EXPECT_NE(copy.version(), b.version());

  TableVersion b_before = b.version();
  SocialGraph moved = std::move(b);
  EXPECT_NE(moved.version(), b_before);
  // The moved-from side lost its contents, so it is a new version too.
  EXPECT_NE(b.version(), b_before);  // NOLINT(bugprone-use-after-move)

  VisibilityTable v;
  VisibilityTable w;
  v.SetMask(0, 1);
  w.SetMask(0, 2);
  TableVersion v_before = v.version();
  v = w;
  EXPECT_NE(v.version(), v_before);
}

TEST(TableVersionTest, EncodeCacheRebuildsAfterEqualEpochAssignment) {
  ProfileTable a(TestSchema());
  ProfileTable b(TestSchema());
  ASSERT_TRUE(a.Set(0, MakeProfile("male", "tr_TR")).ok());
  ASSERT_TRUE(a.Set(1, MakeProfile("male", "tr_TR")).ok());
  ASSERT_TRUE(b.Set(0, MakeProfile("female", "en_US")).ok());
  ASSERT_TRUE(b.Set(1, MakeProfile("male", "pl_PL")).ok());
  ASSERT_EQ(a.version().epoch, b.version().epoch);

  const std::vector<UserId> strangers = {0, 1};
  StrangerEncodeCache cache;
  cache.Refresh(a, strangers);
  a = b;
  EXPECT_FALSE(cache.Refresh(a, strangers).reused);

  StrangerEncodeCache fresh;
  fresh.Refresh(b, strangers);
  std::vector<uint32_t> got;
  std::vector<uint32_t> want;
  ASSERT_TRUE(cache.GatherRows(strangers, &got));
  ASSERT_TRUE(fresh.GatherRows(strangers, &want));
  EXPECT_EQ(got, want);
}

// Owner 0 with friends 1-4; strangers 5-10 attach to them.
SocialGraph SmallGraph() {
  SocialGraph graph(11);
  const std::pair<UserId, UserId> edges[] = {
      {0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {3, 4}, {5, 1},
      {5, 2}, {6, 1}, {6, 2}, {7, 1}, {8, 2}, {9, 3}, {10, 4}};
  for (const auto& [a, b] : edges) EXPECT_TRUE(graph.AddEdge(a, b).ok());
  return graph;
}

ProfileTable SmallProfiles() {
  ProfileTable profiles(TestSchema());
  for (UserId u = 0; u <= 10; ++u) {
    EXPECT_TRUE(profiles
                    .Set(u, u % 2 == 0 ? MakeProfile("male", "tr_TR")
                                       : MakeProfile("female", "en_US"))
                    .ok());
  }
  return profiles;
}

TEST(TableVersionTest, PartitionCacheRebuildsAfterEqualEpochAssignment) {
  PoolBuilderConfig config;
  config.alpha = 10;
  config.beta = 0.4;
  auto builder = PoolBuilder::Create(config).value();
  const std::vector<UserId> strangers = {5, 6, 7, 8, 9, 10};
  SocialGraph graph = SmallGraph();
  ProfileTable profiles = SmallProfiles();
  PoolPartitionCache cache;
  ASSERT_TRUE(builder
                  .BuildForStrangersCached(graph, profiles, 0, strangers,
                                           &cache)
                  .ok());
  ASSERT_EQ(cache.stats().misses, 1u);

  // Profiles: one no-op write on the cached table, one real edit on the
  // replacement, so the epochs stay equal.
  ProfileTable edited = SmallProfiles();
  ASSERT_TRUE(edited.SetValue(5, 0, "male").ok());
  ASSERT_TRUE(profiles.SetValue(5, 0, "female").ok());
  ASSERT_TRUE(builder
                  .BuildForStrangersCached(graph, profiles, 0, strangers,
                                           &cache)
                  .ok());
  ASSERT_EQ(cache.stats().misses, 2u);
  ASSERT_EQ(profiles.version().epoch, edited.version().epoch);
  profiles = edited;
  auto warm =
      builder.BuildForStrangersCached(graph, profiles, 0, strangers, &cache);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cache.stats().misses, 3u);
  auto cold = builder.BuildForStrangers(graph, edited, 0, strangers);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(warm->pools.size(), cold->pools.size());
  for (size_t p = 0; p < cold->pools.size(); ++p) {
    EXPECT_EQ(warm->pools[p].members, cold->pools[p].members) << p;
  }

  // Graph: the same probe with one extra user on each side.
  SocialGraph grown = SmallGraph();
  grown.AddUsers(2);
  graph.AddUser();
  ASSERT_EQ(graph.version().epoch, grown.version().epoch);
  ASSERT_TRUE(builder
                  .BuildForStrangersCached(graph, profiles, 0, strangers,
                                           &cache)
                  .ok());
  ASSERT_EQ(cache.stats().misses, 4u);
  graph = grown;
  ASSERT_TRUE(builder
                  .BuildForStrangersCached(graph, profiles, 0, strangers,
                                           &cache)
                  .ok());
  EXPECT_EQ(cache.stats().misses, 5u);
}

sim::OwnerDataset SmallDataset() {
  sim::GeneratorConfig config;
  config.num_friends = 20;
  config.num_strangers = 60;
  config.num_communities = 2;
  Rng rng(91);
  return sim::FacebookGenerator::Create(config)
      .value()
      .Generate({sim::Gender::kFemale, sim::Locale::kPL}, &rng)
      .value();
}

class AssessCarryVersionTest : public ::testing::Test {
 protected:
  AssessCarryVersionTest() : dataset_(SmallDataset()) {
    Rng attitude_rng(92);
    attitude_ = sim::SampleOwnerAttitude(&attitude_rng);
  }

  // One incremental assessment over the given tables, filling `carry`.
  void Assess(const SocialGraph& graph, const ProfileTable& profiles,
              const VisibilityTable& visibility, AssessCarry* carry) {
    auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
    auto oracle =
        sim::OwnerModel::Create(attitude_, &profiles, &visibility).value();
    Rng rng(93);
    ASSERT_TRUE(engine
                    .AssessIncremental(graph, profiles, visibility,
                                       dataset_.owner, dataset_.strangers,
                                       &oracle, &rng, nullptr, nullptr, carry)
                    .ok());
    ASSERT_GT(carry->learners.size(), 0u);
    // Unchanged tables keep the carry.
    carry->InvalidateOnUpstreamChange(graph, profiles, visibility);
    ASSERT_GT(carry->learners.size(), 0u);
  }

  sim::OwnerDataset dataset_;
  sim::OwnerAttitude attitude_;
};

TEST_F(AssessCarryVersionTest, DropsLearnersAfterEqualEpochProfileAssignment) {
  ProfileTable profiles = dataset_.profiles;
  ProfileTable edited = dataset_.profiles;
  const UserId s = dataset_.strangers.front();
  ASSERT_TRUE(edited.SetValue(s, 0, "edited").ok());
  ASSERT_TRUE(profiles.Set(s, profiles.Get(s)).ok());
  ASSERT_EQ(profiles.version().epoch, edited.version().epoch);
  AssessCarry carry;
  Assess(dataset_.graph, profiles, dataset_.visibility, &carry);
  profiles = edited;
  carry.InvalidateOnUpstreamChange(dataset_.graph, profiles,
                                   dataset_.visibility);
  EXPECT_EQ(carry.learners.size(), 0u);
}

TEST_F(AssessCarryVersionTest, DropsLearnersAfterEqualEpochGraphAssignment) {
  SocialGraph graph = dataset_.graph;
  SocialGraph grown = dataset_.graph;
  grown.AddUsers(2);
  graph.AddUser();
  ASSERT_EQ(graph.version().epoch, grown.version().epoch);
  AssessCarry carry;
  Assess(graph, dataset_.profiles, dataset_.visibility, &carry);
  graph = grown;
  carry.InvalidateOnUpstreamChange(graph, dataset_.profiles,
                                   dataset_.visibility);
  EXPECT_EQ(carry.learners.size(), 0u);
}

TEST_F(AssessCarryVersionTest,
       DropsLearnersAfterEqualEpochVisibilityAssignment) {
  VisibilityTable visibility = dataset_.visibility;
  VisibilityTable edited = dataset_.visibility;
  const UserId s = dataset_.strangers.front();
  edited.SetMask(s, static_cast<uint8_t>(edited.Mask(s) ^ 1));
  visibility.SetMask(s, visibility.Mask(s));
  ASSERT_EQ(visibility.version().epoch, edited.version().epoch);
  AssessCarry carry;
  Assess(dataset_.graph, dataset_.profiles, visibility, &carry);
  visibility = edited;
  carry.InvalidateOnUpstreamChange(dataset_.graph, dataset_.profiles,
                                   visibility);
  EXPECT_EQ(carry.learners.size(), 0u);
}

}  // namespace
}  // namespace sight
