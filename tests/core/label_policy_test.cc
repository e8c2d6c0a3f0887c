#include "core/label_policy.h"

#include <limits>

#include <gtest/gtest.h>

namespace sight {
namespace {

TEST(LabelAccessPolicyTest, EmptyPolicyDeniesEverything) {
  LabelAccessPolicy policy;
  for (RiskLabel label : {RiskLabel::kNotRisky, RiskLabel::kRisky,
                          RiskLabel::kVeryRisky}) {
    for (ProfileItem item : kAllProfileItems) {
      EXPECT_FALSE(policy.IsAllowed(label, item));
    }
    EXPECT_EQ(policy.AllowedMask(label), 0);
  }
}

TEST(LabelAccessPolicyTest, DefaultPolicyShape) {
  LabelAccessPolicy policy = LabelAccessPolicy::Default();
  for (ProfileItem item : kAllProfileItems) {
    EXPECT_TRUE(policy.IsAllowed(RiskLabel::kNotRisky, item));
    EXPECT_FALSE(policy.IsAllowed(RiskLabel::kVeryRisky, item));
  }
  EXPECT_TRUE(policy.IsAllowed(RiskLabel::kRisky, ProfileItem::kPhoto));
  EXPECT_FALSE(policy.IsAllowed(RiskLabel::kRisky, ProfileItem::kWall));
  EXPECT_FALSE(policy.IsAllowed(RiskLabel::kRisky, ProfileItem::kWork));
}

TEST(LabelAccessPolicyTest, AllowAndRevoke) {
  LabelAccessPolicy policy;
  policy.Allow(RiskLabel::kRisky, ProfileItem::kWall);
  EXPECT_TRUE(policy.IsAllowed(RiskLabel::kRisky, ProfileItem::kWall));
  policy.Allow(RiskLabel::kRisky, ProfileItem::kWall, false);
  EXPECT_FALSE(policy.IsAllowed(RiskLabel::kRisky, ProfileItem::kWall));
}

TEST(LabelAccessPolicyTest, DefaultIsMonotone) {
  EXPECT_TRUE(LabelAccessPolicy::Default().IsMonotone());
  EXPECT_TRUE(LabelAccessPolicy().IsMonotone());  // all-empty
}

TEST(LabelAccessPolicyTest, NonMonotoneDetected) {
  LabelAccessPolicy policy;
  policy.Allow(RiskLabel::kVeryRisky, ProfileItem::kWall);
  // Very risky sees wall but risky does not.
  EXPECT_FALSE(policy.IsMonotone());
  policy.Allow(RiskLabel::kRisky, ProfileItem::kWall);
  policy.Allow(RiskLabel::kNotRisky, ProfileItem::kWall);
  EXPECT_TRUE(policy.IsMonotone());
}

AssessmentResult SampleAssessment() {
  AssessmentResult assessment;
  auto add = [&](UserId u, RiskLabel label) {
    StrangerAssessment sa;
    sa.stranger = u;
    sa.predicted_label = label;
    assessment.strangers.push_back(sa);
  };
  add(10, RiskLabel::kNotRisky);
  add(11, RiskLabel::kRisky);
  add(12, RiskLabel::kVeryRisky);
  add(13, RiskLabel::kRisky);
  return assessment;
}

TEST(ApplyAccessPolicyTest, MapsLabelsToMasks) {
  AssessmentResult assessment = SampleAssessment();
  LabelAccessPolicy policy = LabelAccessPolicy::Default();
  auto access = ApplyAccessPolicy(assessment, policy);
  ASSERT_EQ(access.size(), 4u);
  EXPECT_EQ(access[0].allowed_mask, 0x7f);
  EXPECT_EQ(access[2].allowed_mask, 0);
  EXPECT_EQ(access[1].allowed_mask,
            policy.AllowedMask(RiskLabel::kRisky));
  EXPECT_EQ(access[1].stranger, 11u);
}

TEST(SuggestPrivacySettingsTest, RecommendsHidingWhenAudienceRisky) {
  AssessmentResult assessment = SampleAssessment();  // 3/4 risky+
  VisibilityTable visibility;
  visibility.SetVisible(0, ProfileItem::kWall);
  visibility.SetVisible(0, ProfileItem::kPhoto);
  auto suggestions =
      SuggestPrivacySettings(assessment, visibility, 0, 0.5).value();
  ASSERT_EQ(suggestions.size(), kNumProfileItems);
  for (const PrivacySuggestion& s : suggestions) {
    EXPECT_DOUBLE_EQ(s.risky_fraction, 0.75);
    bool visible = s.item == ProfileItem::kWall ||
                   s.item == ProfileItem::kPhoto;
    EXPECT_EQ(s.currently_visible, visible);
    EXPECT_EQ(s.recommend_hide, visible);  // 0.75 >= 0.5
  }
}

TEST(SuggestPrivacySettingsTest, NoRecommendationWhenAudienceSafe) {
  AssessmentResult assessment;
  StrangerAssessment sa;
  sa.stranger = 1;
  sa.predicted_label = RiskLabel::kNotRisky;
  assessment.strangers.push_back(sa);
  VisibilityTable visibility;
  visibility.SetMask(0, 0x7f);
  auto suggestions =
      SuggestPrivacySettings(assessment, visibility, 0, 0.25).value();
  for (const PrivacySuggestion& s : suggestions) {
    EXPECT_FALSE(s.recommend_hide);
    EXPECT_DOUBLE_EQ(s.risky_fraction, 0.0);
  }
}

TEST(SuggestPrivacySettingsTest, ValidatesInput) {
  AssessmentResult empty;
  VisibilityTable visibility;
  EXPECT_FALSE(SuggestPrivacySettings(empty, visibility, 0).ok());
  AssessmentResult assessment = SampleAssessment();
  EXPECT_FALSE(
      SuggestPrivacySettings(assessment, visibility, 0, 1.5).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(SuggestPrivacySettings(assessment, visibility, 0, nan).ok());
}

}  // namespace
}  // namespace sight
