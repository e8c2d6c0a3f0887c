#include "core/nsg.h"

#include <cmath>

#include <gtest/gtest.h>

namespace sight {
namespace {

TEST(NsgTest, BuildValidatesInput) {
  EXPECT_FALSE(NetworkSimilarityGroups::Build(0, {}, {}).ok());
  EXPECT_FALSE(NetworkSimilarityGroups::Build(10, {1}, {}).ok());
  EXPECT_FALSE(NetworkSimilarityGroups::Build(10, {1}, {1.5}).ok());
  EXPECT_FALSE(NetworkSimilarityGroups::Build(10, {1}, {-0.1}).ok());
  EXPECT_EQ(NetworkSimilarityGroups::Build(10, {1}, {std::nan("")})
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(NetworkSimilarityGroups::Build(10, {}, {}).ok());
}

TEST(NsgTest, AssignsByDefinitionOneRanges) {
  // Definition 1: group x holds NS in [(x-1)/alpha, x/alpha) (1-based);
  // we use 0-based group indices.
  auto nsg =
      NetworkSimilarityGroups::Build(10, {0, 1, 2, 3}, {0.0, 0.05, 0.1, 0.95})
          .value();
  EXPECT_EQ(nsg.group_of(0), 0u);
  EXPECT_EQ(nsg.group_of(1), 0u);
  EXPECT_EQ(nsg.group_of(2), 1u);  // boundary belongs to the upper group
  EXPECT_EQ(nsg.group_of(3), 9u);
}

TEST(NsgTest, SimilarityOneGoesToLastGroup) {
  auto nsg = NetworkSimilarityGroups::Build(4, {7}, {1.0}).value();
  EXPECT_EQ(nsg.group_of(0), 3u);
  EXPECT_EQ(nsg.group(3), (std::vector<UserId>{7}));
}

TEST(NsgTest, GroupsPartitionStrangers) {
  std::vector<UserId> strangers = {10, 11, 12, 13, 14};
  std::vector<double> sims = {0.05, 0.15, 0.15, 0.55, 0.95};
  auto nsg = NetworkSimilarityGroups::Build(10, strangers, sims).value();
  size_t total = 0;
  for (size_t x = 0; x < nsg.alpha(); ++x) total += nsg.group(x).size();
  EXPECT_EQ(total, strangers.size());
  auto sizes = nsg.GroupSizes();
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 2u);
  EXPECT_EQ(sizes[5], 1u);
  EXPECT_EQ(sizes[9], 1u);
}

TEST(NsgTest, AlphaOnePutsEverythingTogether) {
  auto nsg =
      NetworkSimilarityGroups::Build(1, {1, 2, 3}, {0.0, 0.5, 1.0}).value();
  EXPECT_EQ(nsg.alpha(), 1u);
  EXPECT_EQ(nsg.group(0).size(), 3u);
}

TEST(NsgTest, HighestNonEmptyGroup) {
  auto nsg =
      NetworkSimilarityGroups::Build(10, {1, 2}, {0.05, 0.45}).value();
  EXPECT_EQ(nsg.HighestNonEmptyGroup(), 4u);
  auto empty = NetworkSimilarityGroups::Build(10, {}, {}).value();
  EXPECT_EQ(empty.HighestNonEmptyGroup(), SIZE_MAX);
}

TEST(NsgTest, EmptyInputGivesEmptyGroups) {
  auto nsg = NetworkSimilarityGroups::Build(5, {}, {}).value();
  EXPECT_EQ(nsg.alpha(), 5u);
  for (size_t x = 0; x < 5; ++x) EXPECT_TRUE(nsg.group(x).empty());
}

TEST(NsgTest, PreservesStrangerOrderWithinGroup) {
  auto nsg = NetworkSimilarityGroups::Build(10, {5, 3, 9}, {0.02, 0.01, 0.03})
                 .value();
  EXPECT_EQ(nsg.group(0), (std::vector<UserId>{5, 3, 9}));
}

}  // namespace
}  // namespace sight
