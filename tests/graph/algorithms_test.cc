#include "graph/algorithms.h"

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "graph/social_graph.h"
#include "sim/facebook_generator.h"
#include "util/random.h"

namespace sight {
namespace {

// Owner 0 - friends 1,2,3 - strangers 4,5. 4 connects to friends 1 and 2;
// 5 connects to friend 3. Friends 1-2 are themselves connected.
SocialGraph EgoFixture() {
  SocialGraph g(6);
  EXPECT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.AddEdge(0, 2).ok());
  EXPECT_TRUE(g.AddEdge(0, 3).ok());
  EXPECT_TRUE(g.AddEdge(1, 2).ok());
  EXPECT_TRUE(g.AddEdge(1, 4).ok());
  EXPECT_TRUE(g.AddEdge(2, 4).ok());
  EXPECT_TRUE(g.AddEdge(3, 5).ok());
  return g;
}

TEST(MutualFriendsTest, FindsIntersection) {
  SocialGraph g = EgoFixture();
  std::vector<UserId> mutual = MutualFriends(g, 0, 4);
  EXPECT_EQ(mutual, (std::vector<UserId>{1, 2}));
  EXPECT_EQ(MutualFriendCount(g, 0, 4), 2u);
}

TEST(MutualFriendsTest, EmptyWhenNoOverlap) {
  SocialGraph g = EgoFixture();
  EXPECT_TRUE(MutualFriends(g, 4, 5).empty());
  EXPECT_EQ(MutualFriendCount(g, 4, 5), 0u);
}

TEST(MutualFriendsTest, UnknownUsersYieldEmpty) {
  SocialGraph g = EgoFixture();
  EXPECT_TRUE(MutualFriends(g, 0, 99).empty());
  EXPECT_EQ(MutualFriendCount(g, 99, 0), 0u);
}

TEST(MutualFriendsTest, SymmetricInArguments) {
  SocialGraph g = EgoFixture();
  EXPECT_EQ(MutualFriends(g, 0, 4), MutualFriends(g, 4, 0));
}

TEST(InducedEdgeCountTest, CountsOnlyInternalEdges) {
  SocialGraph g = EgoFixture();
  EXPECT_EQ(InducedEdgeCount(g, {1, 2}), 1u);     // edge 1-2
  EXPECT_EQ(InducedEdgeCount(g, {1, 3}), 0u);
  EXPECT_EQ(InducedEdgeCount(g, {0, 1, 2}), 3u);  // triangle
  EXPECT_EQ(InducedEdgeCount(g, {}), 0u);
  EXPECT_EQ(InducedEdgeCount(g, {1}), 0u);
  // Ids the graph does not have (users 0..5) add no edges.
  EXPECT_EQ(InducedEdgeCount(g, {1, 2, 6, 40}), 1u);
  EXPECT_EQ(InducedEdgeCount(g, {7, 8}), 0u);
}

// The naive reference: every unordered pair of `users`, one HasEdge each
// (false for ids the graph does not have).
size_t AllPairsEdgeCount(const SocialGraph& graph,
                         const std::vector<UserId>& users) {
  size_t edges = 0;
  for (size_t i = 0; i < users.size(); ++i) {
    for (size_t j = i + 1; j < users.size(); ++j) {
      if (graph.HasEdge(users[i], users[j])) ++edges;
    }
  }
  return edges;
}

// The neighbor-list scan InducedEdgeCount ran before it checked pairs:
// every neighbor v > u of each user u, binary-searched in `users`.
size_t NeighborScanEdgeCount(const SocialGraph& graph,
                             const std::vector<UserId>& users) {
  size_t edges = 0;
  for (UserId u : users) {
    if (!graph.HasUser(u)) continue;
    for (UserId v : graph.Neighbors(u)) {
      if (v <= u) continue;
      if (std::binary_search(users.begin(), users.end(), v)) ++edges;
    }
  }
  return edges;
}

SocialGraph RandomGraph(size_t n, double density, Rng* rng) {
  SocialGraph g(n);
  for (UserId a = 0; a < n; ++a) {
    for (UserId b = a + 1; b < n; ++b) {
      if (rng->Bernoulli(density)) {
        EXPECT_TRUE(g.AddEdge(a, b).ok());
      }
    }
  }
  return g;
}

// Distinct ids, ascending; some of them beyond the graph's users.
std::vector<UserId> RandomUsers(size_t n, size_t count, Rng* rng) {
  std::vector<UserId> ids(n + 10);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<UserId>(i);
  rng->Shuffle(&ids);
  ids.resize(std::min(count, ids.size()));
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(InducedEdgeCountTest, MatchesAllPairsReferenceAcrossDensities) {
  Rng rng(20260);
  for (double density : {0.0, 0.05, 0.2, 0.5, 0.8, 1.0}) {
    for (size_t n : {1u, 2u, 7u, 40u}) {
      SocialGraph g = RandomGraph(n, density, &rng);
      if (density == 1.0) {  // a clique: every pair is an edge
        std::vector<UserId> all = RandomUsers(n, n + 10, &rng);
        EXPECT_EQ(InducedEdgeCount(g, all), n * (n - 1) / 2) << "n " << n;
      }
      for (size_t trial = 0; trial < 25; ++trial) {
        size_t count = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(n) + 4));
        std::vector<UserId> users = RandomUsers(n, count, &rng);
        EXPECT_EQ(InducedEdgeCount(g, users), AllPairsEdgeCount(g, users))
            << "density " << density << ", n " << n << ", trial " << trial;
      }
    }
  }
}

// Strictly increasing ids are a precondition (users sorted, no
// duplicates); debug builds check it.
TEST(InducedEdgeCountDeathTest, DuplicateUsersFailTheDebugCheck) {
  SocialGraph g = EgoFixture();
  EXPECT_DEBUG_DEATH((void)InducedEdgeCount(g, {1, 1, 2}), "check failed");
}

TEST(InducedDensityTest, DensityOfCliqueIsOne) {
  SocialGraph g = EgoFixture();
  EXPECT_DOUBLE_EQ(InducedDensity(g, {0, 1, 2}), 1.0);
}

TEST(InducedDensityTest, SmallSetsHaveZeroDensity) {
  SocialGraph g = EgoFixture();
  EXPECT_DOUBLE_EQ(InducedDensity(g, {1}), 0.0);
  EXPECT_DOUBLE_EQ(InducedDensity(g, {}), 0.0);
}

TEST(InducedDensityTest, PartialDensity) {
  SocialGraph g = EgoFixture();
  // {1, 2, 3}: only edge 1-2 out of 3 possible.
  EXPECT_NEAR(InducedDensity(g, {1, 2, 3}), 1.0 / 3.0, 1e-12);
}

TEST(TwoHopStrangersTest, FindsFriendsOfFriendsOnly) {
  SocialGraph g = EgoFixture();
  auto strangers = TwoHopStrangers(g, 0);
  ASSERT_TRUE(strangers.ok());
  EXPECT_EQ(strangers.value(), (std::vector<UserId>{4, 5}));
}

TEST(TwoHopStrangersTest, ExcludesOwnerAndFriends) {
  SocialGraph g = EgoFixture();
  auto strangers = TwoHopStrangers(g, 0).value();
  for (UserId s : strangers) {
    EXPECT_NE(s, 0u);
    EXPECT_FALSE(g.HasEdge(0, s));
  }
}

TEST(TwoHopStrangersTest, UnknownOwnerIsError) {
  SocialGraph g = EgoFixture();
  EXPECT_EQ(TwoHopStrangers(g, 42).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TwoHopStrangersTest, IsolatedOwnerHasNoStrangers) {
  SocialGraph g(3);
  EXPECT_TRUE(TwoHopStrangers(g, 0).value().empty());
}

TEST(TwoHopStrangersTest, FriendOfTwoFriendsCountedOnce) {
  SocialGraph g = EgoFixture();
  auto strangers = TwoHopStrangers(g, 0).value();
  size_t count4 = 0;
  for (UserId s : strangers) {
    if (s == 4) ++count4;
  }
  EXPECT_EQ(count4, 1u);
}

TEST(BfsDistancesTest, ComputesHopDistances) {
  SocialGraph g = EgoFixture();
  auto dist = BfsDistances(g, 0).value();
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[4], 2u);
  EXPECT_EQ(dist[5], 2u);
}

TEST(BfsDistancesTest, UnreachableIsMax) {
  SocialGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  auto dist = BfsDistances(g, 0).value();
  EXPECT_EQ(dist[2], std::numeric_limits<size_t>::max());
}

TEST(BfsDistancesTest, StrangersAreExactlyDistanceTwo) {
  SocialGraph g = EgoFixture();
  auto dist = BfsDistances(g, 0).value();
  for (UserId s : TwoHopStrangers(g, 0).value()) {
    EXPECT_EQ(dist[s], 2u);
  }
}

TEST(ClusteringCoefficientTest, TriangleVertexIsOne) {
  SocialGraph g = EgoFixture();
  // User 0's neighbors {1,2,3} have one edge (1-2) of three possible.
  EXPECT_NEAR(LocalClusteringCoefficient(g, 0), 1.0 / 3.0, 1e-12);
}

TEST(ClusteringCoefficientTest, LowDegreeIsZero) {
  SocialGraph g = EgoFixture();
  EXPECT_DOUBLE_EQ(LocalClusteringCoefficient(g, 5), 0.0);
}

// Every user's coefficient on a generated owner keeps its bits: the
// pair count is the same integer the neighbor-list scan found.
TEST(ClusteringCoefficientTest, GeneratedGraphValuesUnchanged) {
  sim::GeneratorConfig config;
  config.num_strangers = 600;
  auto gen = sim::FacebookGenerator::Create(config).value();
  Rng rng(4242);
  sim::OwnerDataset ds =
      gen.Generate({sim::Gender::kFemale, sim::Locale::kUS}, &rng).value();
  const SocialGraph& g = ds.graph;
  double sum = 0.0;
  for (UserId u = 0; u < g.NumUsers(); ++u) {
    const std::vector<UserId>& neighbors = g.Neighbors(u);
    size_t k = neighbors.size();
    double expected = 0.0;
    if (k >= 2) {
      double possible =
          static_cast<double>(k) * static_cast<double>(k - 1) / 2.0;
      expected = static_cast<double>(NeighborScanEdgeCount(g, neighbors)) /
                 possible;
    }
    EXPECT_EQ(LocalClusteringCoefficient(g, u), expected) << "user " << u;
    sum += expected;
  }
  EXPECT_EQ(AverageClusteringCoefficient(g),
            sum / static_cast<double>(g.NumUsers()));
  EXPECT_GT(sum, 0.0);
}

TEST(ClusteringCoefficientTest, AverageOverEmptyGraphIsZero) {
  SocialGraph g;
  EXPECT_DOUBLE_EQ(AverageClusteringCoefficient(g), 0.0);
}

TEST(DegreeSequenceTest, MatchesDegrees) {
  SocialGraph g = EgoFixture();
  auto degrees = DegreeSequence(g);
  ASSERT_EQ(degrees.size(), 6u);
  EXPECT_EQ(degrees[0], 3u);
  EXPECT_EQ(degrees[4], 2u);
}

TEST(ConnectedComponentsTest, CountsComponents) {
  SocialGraph g = EgoFixture();
  EXPECT_EQ(CountConnectedComponents(g), 1u);
  g.AddUsers(2);  // two isolated users
  EXPECT_EQ(CountConnectedComponents(g), 3u);
}

}  // namespace
}  // namespace sight
