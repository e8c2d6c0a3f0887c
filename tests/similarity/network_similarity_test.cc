#include "similarity/network_similarity.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/social_graph.h"
#include "sim/facebook_generator.h"
#include "util/random.h"

namespace sight {
namespace {

// Builds an owner (0) and a stranger (1) with `mutual` shared friends; the
// friends form `internal_edges` edges among themselves (added greedily).
SocialGraph MutualFixture(size_t mutual, size_t internal_edges) {
  SocialGraph g(2 + mutual);
  for (size_t i = 0; i < mutual; ++i) {
    UserId f = static_cast<UserId>(2 + i);
    EXPECT_TRUE(g.AddEdge(0, f).ok());
    EXPECT_TRUE(g.AddEdge(1, f).ok());
  }
  size_t added = 0;
  for (size_t i = 0; i < mutual && added < internal_edges; ++i) {
    for (size_t j = i + 1; j < mutual && added < internal_edges; ++j) {
      EXPECT_TRUE(g.AddEdge(static_cast<UserId>(2 + i),
                            static_cast<UserId>(2 + j))
                      .ok());
      ++added;
    }
  }
  return g;
}

NetworkSimilarity DefaultNs() {
  return NetworkSimilarity::Create(NetworkSimilarityConfig{}).value();
}

TEST(NetworkSimilarityConfigTest, ValidatesRanges) {
  NetworkSimilarityConfig bad;
  bad.mutual_weight = 1.5;
  EXPECT_FALSE(NetworkSimilarity::Create(bad).ok());
  bad.mutual_weight = -0.1;
  EXPECT_FALSE(NetworkSimilarity::Create(bad).ok());
  bad.mutual_weight = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(NetworkSimilarity::Create(bad).ok());
  bad = {};
  bad.saturation = 0.0;
  EXPECT_FALSE(NetworkSimilarity::Create(bad).ok());
  EXPECT_TRUE(NetworkSimilarity::Create(NetworkSimilarityConfig{}).ok());
}

TEST(NetworkSimilarityTest, ZeroWithoutMutualFriends) {
  SocialGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  ASSERT_TRUE(g.AddEdge(1, 3).ok());
  EXPECT_DOUBLE_EQ(DefaultNs().Compute(g, 0, 1), 0.0);
}

TEST(NetworkSimilarityTest, PositiveWithOneMutualFriend) {
  SocialGraph g = MutualFixture(1, 0);
  double ns = DefaultNs().Compute(g, 0, 1);
  EXPECT_GT(ns, 0.0);
  EXPECT_LT(ns, 0.2);
}

TEST(NetworkSimilarityTest, RangeIsUnitInterval) {
  for (size_t mutual : {1u, 5u, 20u, 40u}) {
    SocialGraph g = MutualFixture(mutual, mutual * mutual);  // clique
    double ns = DefaultNs().Compute(g, 0, 1);
    EXPECT_GE(ns, 0.0);
    EXPECT_LE(ns, 1.0);
  }
}

TEST(NetworkSimilarityTest, IncreasingInMutualFriendCount) {
  NetworkSimilarity ns = DefaultNs();
  double previous = -1.0;
  for (size_t mutual : {1u, 2u, 4u, 8u, 16u, 32u}) {
    SocialGraph g = MutualFixture(mutual, 0);
    double value = ns.Compute(g, 0, 1);
    EXPECT_GT(value, previous);
    previous = value;
  }
}

TEST(NetworkSimilarityTest, IncreasingInMutualFriendDensity) {
  NetworkSimilarity ns = DefaultNs();
  SocialGraph sparse = MutualFixture(6, 0);
  SocialGraph medium = MutualFixture(6, 7);
  SocialGraph dense = MutualFixture(6, 15);  // clique on 6
  double v_sparse = ns.Compute(sparse, 0, 1);
  double v_medium = ns.Compute(medium, 0, 1);
  double v_dense = ns.Compute(dense, 0, 1);
  EXPECT_LT(v_sparse, v_medium);
  EXPECT_LT(v_medium, v_dense);
}

TEST(NetworkSimilarityTest, SymmetricInArguments) {
  SocialGraph g = MutualFixture(5, 4);
  NetworkSimilarity ns = DefaultNs();
  EXPECT_DOUBLE_EQ(ns.Compute(g, 0, 1), ns.Compute(g, 1, 0));
}

TEST(NetworkSimilarityTest, UnknownUsersScoreZero) {
  SocialGraph g = MutualFixture(3, 0);
  EXPECT_DOUBLE_EQ(DefaultNs().Compute(g, 0, 99), 0.0);
}

TEST(NetworkSimilarityTest, FortyMutualLooseCommunityNearPaperCeiling) {
  // The paper observed no stranger above NS 0.6 with up to 40+ mutual
  // friends; with defaults a 40-mutual stranger in a low-density community
  // should land near (but around) that ceiling.
  SocialGraph g = MutualFixture(40, 80);  // density ~0.1
  double ns = DefaultNs().Compute(g, 0, 1);
  EXPECT_GT(ns, 0.5);
  EXPECT_LT(ns, 0.7);
}

TEST(NetworkSimilarityTest, ComputeBatchMatchesSingle) {
  SocialGraph g = MutualFixture(4, 2);
  // Add a second stranger sharing 2 mutual friends.
  UserId s2 = g.AddUser();
  ASSERT_TRUE(g.AddEdge(s2, 2).ok());
  ASSERT_TRUE(g.AddEdge(s2, 3).ok());
  NetworkSimilarity ns = DefaultNs();
  std::vector<UserId> strangers = {1, s2};
  auto batch = ns.ComputeBatch(g, 0, strangers);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_DOUBLE_EQ(batch[0], ns.Compute(g, 0, 1));
  EXPECT_DOUBLE_EQ(batch[1], ns.Compute(g, 0, s2));
}

// NS as computed before InducedEdgeCount checked pairs, kept as the
// reference: the density term's edge count scans every mutual friend's
// whole neighbor list and binary-searches each later neighbor among the
// mutual friends.
double NeighborScanNs(const NetworkSimilarityConfig& config,
                      const SocialGraph& g, UserId owner, UserId stranger) {
  std::vector<UserId> mutual = MutualFriends(g, owner, stranger);
  if (mutual.empty()) return 0.0;
  double m = static_cast<double>(mutual.size());
  double count_term = m / (m + config.saturation);
  size_t edges = 0;
  for (UserId u : mutual) {
    for (UserId v : g.Neighbors(u)) {
      if (v <= u) continue;
      if (std::binary_search(mutual.begin(), mutual.end(), v)) ++edges;
    }
  }
  double density_term = 0.0;
  size_t n = mutual.size();
  if (n >= 2) {
    double possible =
        static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
    density_term = static_cast<double>(edges) / possible;
  }
  return config.mutual_weight * count_term +
         (1.0 - config.mutual_weight) * density_term;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(NetworkSimilarityTest, BatchOnTenThousandStrangersMatchesNeighborScan) {
  sim::GeneratorConfig config;
  config.num_strangers = 10000;
  auto gen = sim::FacebookGenerator::Create(config).value();
  Rng rng(3);
  sim::OwnerDataset ds =
      gen.Generate({sim::Gender::kMale, sim::Locale::kTR}, &rng).value();
  ASSERT_EQ(ds.strangers.size(), 10000u);
  NetworkSimilarity ns = DefaultNs();
  std::vector<double> batch =
      ns.ComputeBatch(ds.graph, ds.owner, ds.strangers);
  ASSERT_EQ(batch.size(), ds.strangers.size());
  size_t dense_terms = 0;
  for (size_t i = 0; i < ds.strangers.size(); ++i) {
    double expected =
        NeighborScanNs(ns.config(), ds.graph, ds.owner, ds.strangers[i]);
    ASSERT_TRUE(SameBits(batch[i], expected))
        << "stranger " << ds.strangers[i] << ": " << batch[i] << " vs "
        << expected;
    if (MutualFriendCount(ds.graph, ds.owner, ds.strangers[i]) >= 2) {
      ++dense_terms;
    }
  }
  // The density term is exercised, not only the count term.
  EXPECT_GT(dense_terms, 1000u);
}

TEST(NetworkSimilarityTest, MutualWeightOneIgnoresDensity) {
  NetworkSimilarityConfig config;
  config.mutual_weight = 1.0;
  NetworkSimilarity ns = NetworkSimilarity::Create(config).value();
  SocialGraph sparse = MutualFixture(6, 0);
  SocialGraph dense = MutualFixture(6, 15);
  EXPECT_DOUBLE_EQ(ns.Compute(sparse, 0, 1), ns.Compute(dense, 0, 1));
}

TEST(NetworkSimilarityTest, SaturationControlsHalfPoint) {
  NetworkSimilarityConfig config;
  config.mutual_weight = 1.0;
  config.saturation = 8.0;
  NetworkSimilarity ns = NetworkSimilarity::Create(config).value();
  SocialGraph g = MutualFixture(8, 0);
  EXPECT_NEAR(ns.Compute(g, 0, 1), 0.5, 1e-12);
}

}  // namespace
}  // namespace sight
