#include "core/friend_suggestion.h"

#include <limits>

#include <gtest/gtest.h>

namespace sight {
namespace {

AssessmentResult SampleAssessment() {
  AssessmentResult assessment;
  auto add = [&](UserId u, RiskLabel label, double ns, double benefit) {
    StrangerAssessment sa;
    sa.stranger = u;
    sa.predicted_label = label;
    sa.network_similarity = ns;
    sa.benefit = benefit;
    assessment.strangers.push_back(sa);
  };
  add(1, RiskLabel::kNotRisky, 0.5, 0.1);
  add(2, RiskLabel::kNotRisky, 0.2, 0.9);
  add(3, RiskLabel::kRisky, 0.9, 0.9);      // filtered by default
  add(4, RiskLabel::kVeryRisky, 1.0, 1.0);  // filtered
  add(5, RiskLabel::kNotRisky, 0.5, 0.1);   // ties with 1
  return assessment;
}

TEST(SuggestFriendsTest, FiltersByLabelAndRanksByAffinity) {
  auto suggestions = SuggestFriends(SampleAssessment()).value();
  ASSERT_EQ(suggestions.size(), 3u);
  // Affinity with ns_weight 0.7: user1/5 = 0.38, user2 = 0.41.
  EXPECT_EQ(suggestions[0].stranger, 2u);
  EXPECT_NEAR(suggestions[0].affinity, 0.41, 1e-12);
  // Tie between 1 and 5 broken by id.
  EXPECT_EQ(suggestions[1].stranger, 1u);
  EXPECT_EQ(suggestions[2].stranger, 5u);
}

TEST(SuggestFriendsTest, NsWeightChangesRanking) {
  FriendSuggestionConfig config;
  config.ns_weight = 1.0;  // pure homophily
  auto suggestions = SuggestFriends(SampleAssessment(), config).value();
  EXPECT_EQ(suggestions[0].stranger, 1u);  // highest ns among not-risky
}

TEST(SuggestFriendsTest, MaxLabelWidensCandidates) {
  FriendSuggestionConfig config;
  config.max_label = RiskLabel::kRisky;
  auto suggestions = SuggestFriends(SampleAssessment(), config).value();
  ASSERT_EQ(suggestions.size(), 4u);
  EXPECT_EQ(suggestions[0].stranger, 3u);  // 0.9/0.9 dominates
}

TEST(SuggestFriendsTest, MaxSuggestionsCaps) {
  FriendSuggestionConfig config;
  config.max_suggestions = 1;
  auto suggestions = SuggestFriends(SampleAssessment(), config).value();
  EXPECT_EQ(suggestions.size(), 1u);
}

TEST(SuggestFriendsTest, EmptyAssessmentGivesNoSuggestions) {
  AssessmentResult empty;
  EXPECT_TRUE(SuggestFriends(empty).value().empty());
}

TEST(SuggestFriendsTest, ValidatesConfig) {
  FriendSuggestionConfig config;
  config.ns_weight = 1.5;
  EXPECT_FALSE(SuggestFriends(SampleAssessment(), config).ok());
  config.ns_weight = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(SuggestFriends(SampleAssessment(), config).ok());
}

}  // namespace
}  // namespace sight
