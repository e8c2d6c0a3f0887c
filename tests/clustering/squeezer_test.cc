#include "clustering/squeezer.h"

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/profile.h"
#include "graph/profile_codec.h"

namespace sight {
namespace {

ProfileSchema TestSchema() {
  return ProfileSchema::Create({"gender", "locale"}).value();
}

ProfileTable TwoGroupPopulation() {
  ProfileTable table(TestSchema());
  auto set = [&](UserId u, std::vector<std::string> values) {
    Profile p;
    p.values = std::move(values);
    EXPECT_TRUE(table.Set(u, p).ok());
  };
  // Group A: male/tr (users 0-3); group B: female/us (users 4-7).
  for (UserId u = 0; u < 4; ++u) set(u, {"male", "tr_TR"});
  for (UserId u = 4; u < 8; ++u) set(u, {"female", "en_US"});
  return table;
}

Squeezer MakeSqueezer(double threshold,
                      std::vector<double> weights = {}) {
  SqueezerConfig config;
  config.threshold = threshold;
  config.weights = std::move(weights);
  return Squeezer::Create(TestSchema(), config).value();
}

// `values` as a code row, interning unseen values into `codec`.
std::vector<uint32_t> Codes(ProfileCodec* codec,
                            std::vector<std::string> values) {
  std::vector<uint32_t> row(codec->num_attributes());
  codec->EncodeInto(Profile{std::move(values)}, row.data());
  return row;
}

// Definition 2 similarity of one row to one cluster.
double Similarity(const Squeezer& squeezer, const std::vector<uint32_t>& row,
                  const ClusterSummary& summary) {
  double sim = -1.0;
  squeezer.SimilarityBatch(row.data(), &summary, 1, &sim);
  return sim;
}

TEST(ClusterSummaryTest, TracksSupports) {
  ProfileCodec codec(2);
  ClusterSummary summary(2);
  summary.AddCodes(Codes(&codec, {"male", "tr_TR"}).data());
  summary.AddCodes(Codes(&codec, {"male", "tr_TR"}).data());
  summary.AddCodes(Codes(&codec, {"female", "tr_TR"}).data());
  EXPECT_EQ(summary.size(), 3u);
  EXPECT_EQ(summary.SupportByCode(0, codec.Code(0, "male")), 2u);
  EXPECT_EQ(summary.SupportByCode(0, codec.Code(0, "female")), 1u);
  EXPECT_EQ(summary.SupportByCode(0, codec.Code(0, "other")), 0u);
  EXPECT_EQ(summary.TotalSupport(1), 3u);
}

TEST(ClusterSummaryTest, MissingValuesSkipped) {
  ProfileCodec codec(2);
  ClusterSummary summary(2);
  summary.AddCodes(Codes(&codec, {"male", ""}).data());
  EXPECT_EQ(summary.TotalSupport(0), 1u);
  EXPECT_EQ(summary.TotalSupport(1), 0u);
  EXPECT_EQ(summary.SupportByCode(1, ProfileCodec::kMissingCode), 0u);
}

TEST(SqueezerTest, CreateValidates) {
  SqueezerConfig config;
  config.threshold = 1.5;
  EXPECT_FALSE(Squeezer::Create(TestSchema(), config).ok());
  config.threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(Squeezer::Create(TestSchema(), config).ok());
  config.threshold = 0.4;
  config.weights = {1.0};
  EXPECT_FALSE(Squeezer::Create(TestSchema(), config).ok());
  config.weights = {-1.0, 1.0};
  EXPECT_FALSE(Squeezer::Create(TestSchema(), config).ok());
  config.weights = {0.0, 0.0};
  EXPECT_FALSE(Squeezer::Create(TestSchema(), config).ok());
  // Non-finite weights, and finite ones whose sum overflows.
  const double inf = std::numeric_limits<double>::infinity();
  config.weights = {inf, 1.0};
  EXPECT_FALSE(Squeezer::Create(TestSchema(), config).ok());
  config.weights = {std::numeric_limits<double>::quiet_NaN(), 1.0};
  EXPECT_FALSE(Squeezer::Create(TestSchema(), config).ok());
  config.weights = {1e308, 1e308};
  EXPECT_FALSE(Squeezer::Create(TestSchema(), config).ok());
  config.weights = {};
  EXPECT_TRUE(Squeezer::Create(TestSchema(), config).ok());
}

TEST(SqueezerTest, SimilarityToMatchingClusterIsOne) {
  Squeezer squeezer = MakeSqueezer(0.4);
  ProfileCodec codec(2);
  ClusterSummary summary(2);
  std::vector<uint32_t> row = Codes(&codec, {"male", "tr_TR"});
  summary.AddCodes(row.data());
  summary.AddCodes(row.data());
  EXPECT_DOUBLE_EQ(Similarity(squeezer, row, summary), 1.0);
}

TEST(SqueezerTest, SimilarityToEmptyClusterIsZero) {
  Squeezer squeezer = MakeSqueezer(0.4);
  ProfileCodec codec(2);
  ClusterSummary summary(2);
  EXPECT_DOUBLE_EQ(
      Similarity(squeezer, Codes(&codec, {"male", "tr_TR"}), summary), 0.0);
}

TEST(SqueezerTest, SimilarityIsSupportFraction) {
  Squeezer squeezer = MakeSqueezer(0.4);
  ProfileCodec codec(2);
  ClusterSummary summary(2);
  std::vector<uint32_t> a = Codes(&codec, {"male", "tr_TR"});
  std::vector<uint32_t> b = Codes(&codec, {"female", "tr_TR"});
  summary.AddCodes(a.data());
  summary.AddCodes(b.data());
  // For b: gender support 1/2, locale 2/2 -> (0.5*0.5 + 0.5*1.0) = 0.75.
  EXPECT_DOUBLE_EQ(Similarity(squeezer, b, summary), 0.75);
  // A value the cluster never saw contributes 0: locale 2/2 only.
  EXPECT_DOUBLE_EQ(
      Similarity(squeezer, Codes(&codec, {"other", "tr_TR"}), summary), 0.5);
}

TEST(SqueezerTest, SeparatesDistinctGroups) {
  ProfileTable table = TwoGroupPopulation();
  Squeezer squeezer = MakeSqueezer(0.4);
  auto clustering =
      squeezer.Cluster(table, {0, 1, 2, 3, 4, 5, 6, 7}).value();
  EXPECT_EQ(clustering.num_clusters(), 2u);
  // All of group A in one cluster, group B in the other.
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(clustering.assignments[i], clustering.assignments[0]);
  }
  for (size_t i = 5; i < 8; ++i) {
    EXPECT_EQ(clustering.assignments[i], clustering.assignments[4]);
  }
  EXPECT_NE(clustering.assignments[0], clustering.assignments[4]);
}

TEST(SqueezerTest, ThresholdOneSplitsEverythingDissimilar) {
  ProfileTable table = TwoGroupPopulation();
  Squeezer squeezer = MakeSqueezer(1.0);
  auto clustering =
      squeezer.Cluster(table, {0, 4, 1, 5}).value();
  // Identical profiles still merge (similarity exactly 1.0 >= 1.0).
  EXPECT_EQ(clustering.num_clusters(), 2u);
}

TEST(SqueezerTest, ThresholdZeroMergesEverything) {
  ProfileTable table = TwoGroupPopulation();
  Squeezer squeezer = MakeSqueezer(0.0);
  auto clustering =
      squeezer.Cluster(table, {0, 1, 4, 5}).value();
  EXPECT_EQ(clustering.num_clusters(), 1u);
}

TEST(SqueezerTest, EmptyInputYieldsNoClusters) {
  ProfileTable table = TwoGroupPopulation();
  Squeezer squeezer = MakeSqueezer(0.4);
  auto clustering = squeezer.Cluster(table, {}).value();
  EXPECT_EQ(clustering.num_clusters(), 0u);
  EXPECT_TRUE(clustering.assignments.empty());
}

TEST(SqueezerTest, SingleUserFormsSingleCluster) {
  ProfileTable table = TwoGroupPopulation();
  Squeezer squeezer = MakeSqueezer(0.4);
  auto clustering = squeezer.Cluster(table, {3}).value();
  EXPECT_EQ(clustering.num_clusters(), 1u);
  EXPECT_EQ(clustering.clusters[0], (std::vector<UserId>{3}));
}

TEST(SqueezerTest, ClustersPartitionTheInput) {
  ProfileTable table = TwoGroupPopulation();
  Squeezer squeezer = MakeSqueezer(0.6);
  std::vector<UserId> users = {0, 4, 1, 5, 2, 6, 3, 7};
  auto clustering = squeezer.Cluster(table, users).value();
  size_t total = 0;
  for (const auto& c : clustering.clusters) total += c.size();
  EXPECT_EQ(total, users.size());
  ASSERT_EQ(clustering.assignments.size(), users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    const auto& members =
        clustering.clusters[clustering.assignments[i]];
    EXPECT_NE(std::find(members.begin(), members.end(), users[i]),
              members.end());
  }
}

TEST(SqueezerTest, WeightsSteerClustering) {
  // With all weight on locale, gender differences are invisible.
  ProfileTable table(TestSchema());
  auto set = [&](UserId u, std::vector<std::string> values) {
    Profile p;
    p.values = std::move(values);
    EXPECT_TRUE(table.Set(u, p).ok());
  };
  set(0, {"male", "tr_TR"});
  set(1, {"female", "tr_TR"});
  set(2, {"male", "en_US"});
  Squeezer squeezer = MakeSqueezer(0.5, {0.0, 1.0});
  auto clustering = squeezer.Cluster(table, {0, 1, 2}).value();
  EXPECT_EQ(clustering.num_clusters(), 2u);
  EXPECT_EQ(clustering.assignments[0], clustering.assignments[1]);
  EXPECT_NE(clustering.assignments[0], clustering.assignments[2]);
}

TEST(SqueezerTest, SchemaMismatchRejected) {
  ProfileSchema other = ProfileSchema::Create({"a", "b", "c"}).value();
  ProfileTable table(other);
  Squeezer squeezer = MakeSqueezer(0.4);
  EXPECT_EQ(squeezer.Cluster(table, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SqueezerTest, OnePassIsOrderDependentButDeterministic) {
  ProfileTable table = TwoGroupPopulation();
  Squeezer squeezer = MakeSqueezer(0.4);
  auto c1 = squeezer.Cluster(table, {0, 1, 4, 5}).value();
  auto c2 = squeezer.Cluster(table, {0, 1, 4, 5}).value();
  EXPECT_EQ(c1.assignments, c2.assignments);
}

}  // namespace
}  // namespace sight
