#include "sim/owner_model.h"

#include <limits>
#include <map>

#include <gtest/gtest.h>

#include "sim/schema.h"

namespace sight::sim {
namespace {

ProfileTable MakeProfiles() {
  ProfileTable table(FacebookSchema());
  auto set = [&](UserId u, const std::string& gender,
                 const std::string& locale) {
    Profile p;
    p.values = {gender, locale, "Smith", "City", "School", "Job"};
    EXPECT_TRUE(table.Set(u, p).ok());
  };
  set(0, "male", "tr_TR");
  set(1, "female", "tr_TR");
  set(2, "male", "en_US");
  set(3, "female", "en_US");
  return table;
}

OwnerAttitude NoNoiseAttitude() {
  OwnerAttitude a;
  a.label_noise = 0.0;
  a.locale_bias.fill(0.0);
  a.lastname_scale = 0.0;
  return a;
}

TEST(OwnerModelTest, CreateValidates) {
  ProfileTable profiles = MakeProfiles();
  OwnerAttitude a = NoNoiseAttitude();
  EXPECT_FALSE(OwnerModel::Create(a, nullptr).ok());
  a.threshold_low = 0.9;
  a.threshold_high = 0.5;
  EXPECT_FALSE(OwnerModel::Create(a, &profiles).ok());
  a = NoNoiseAttitude();
  a.label_noise = 1.5;
  EXPECT_FALSE(OwnerModel::Create(a, &profiles).ok());
  a.label_noise = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(OwnerModel::Create(a, &profiles).ok());
  EXPECT_TRUE(OwnerModel::Create(NoNoiseAttitude(), &profiles).ok());
}

TEST(OwnerModelTest, HigherSimilarityLowersScore) {
  ProfileTable profiles = MakeProfiles();
  auto model = OwnerModel::Create(NoNoiseAttitude(), &profiles).value();
  EXPECT_GT(model.Score(0, 0.0, 0.0), model.Score(0, 0.3, 0.0));
  EXPECT_GT(model.Score(0, 0.3, 0.0), model.Score(0, 0.6, 0.0));
}

TEST(OwnerModelTest, HigherBenefitLowersScore) {
  ProfileTable profiles = MakeProfiles();
  auto model = OwnerModel::Create(NoNoiseAttitude(), &profiles).value();
  EXPECT_GT(model.Score(0, 0.1, 0.0), model.Score(0, 0.1, 0.5));
}

TEST(OwnerModelTest, GenderBiasRaisesMaleScores) {
  ProfileTable profiles = MakeProfiles();
  OwnerAttitude a = NoNoiseAttitude();
  a.gender_bias = 0.3;
  auto model = OwnerModel::Create(a, &profiles).value();
  // Users 0 (male) and 1 (female) share locale and everything else.
  EXPECT_NEAR(model.Score(0, 0.2, 0.1) - model.Score(1, 0.2, 0.1), 0.3,
              1e-12);
}

TEST(OwnerModelTest, LocaleBiasApplies) {
  ProfileTable profiles = MakeProfiles();
  OwnerAttitude a = NoNoiseAttitude();
  a.locale_bias[static_cast<size_t>(Locale::kUS)] = 0.2;
  auto model = OwnerModel::Create(a, &profiles).value();
  EXPECT_NEAR(model.Score(2, 0.1, 0.1) - model.Score(0, 0.1, 0.1), 0.2,
              1e-12);
}

TEST(OwnerModelTest, ThresholdsProduceAllThreeLabels) {
  ProfileTable profiles = MakeProfiles();
  OwnerAttitude a = NoNoiseAttitude();
  a.base = 0.55;
  a.gender_bias = 0.25;
  auto model = OwnerModel::Create(a, &profiles).value();
  // Male stranger, no similarity/benefit: 0.8 >= 0.65 -> very risky.
  EXPECT_EQ(model.TrueLabel(0, 0.0, 0.0), RiskLabel::kVeryRisky);
  // Male with strong similarity: 0.8 - 0.45 = 0.35 < 0.40 -> not risky.
  EXPECT_EQ(model.TrueLabel(0, 0.6, 0.0), RiskLabel::kNotRisky);
  // Female, moderate similarity: 0.55 - 0.45*0.2/0.5 = 0.37... pick one in
  // the middle band.
  EXPECT_EQ(model.TrueLabel(1, 0.05, 0.0), RiskLabel::kRisky);
}

TEST(OwnerModelTest, QueryIsConsistentAcrossRepeats) {
  ProfileTable profiles = MakeProfiles();
  OwnerAttitude a = NoNoiseAttitude();
  a.label_noise = 0.5;  // even with noise, answers must be reproducible
  a.noise_seed = 77;
  auto model = OwnerModel::Create(a, &profiles).value();
  for (UserId u = 0; u < 4; ++u) {
    RiskLabel first = model.QueryLabel(u, 0.2, 0.3);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(model.QueryLabel(u, 0.2, 0.3), first);
    }
  }
}

TEST(OwnerModelTest, QueryCountsTracked) {
  ProfileTable profiles = MakeProfiles();
  auto model = OwnerModel::Create(NoNoiseAttitude(), &profiles).value();
  EXPECT_EQ(model.num_queries(), 0u);
  model.QueryLabel(0, 0.1, 0.1);
  model.QueryLabel(1, 0.1, 0.1);
  EXPECT_EQ(model.num_queries(), 2u);
}

TEST(OwnerModelTest, TrueLabelDoesNotCountAsQuery) {
  ProfileTable profiles = MakeProfiles();
  auto model = OwnerModel::Create(NoNoiseAttitude(), &profiles).value();
  model.TrueLabel(0, 0.1, 0.1);
  EXPECT_EQ(model.num_queries(), 0u);
}

TEST(OwnerModelTest, NoiseFlipsAtMostOneLevel) {
  ProfileTable profiles = MakeProfiles();
  OwnerAttitude noisy = NoNoiseAttitude();
  noisy.label_noise = 1.0;  // always perturb
  OwnerAttitude clean = NoNoiseAttitude();
  auto noisy_model = OwnerModel::Create(noisy, &profiles).value();
  auto clean_model = OwnerModel::Create(clean, &profiles).value();
  for (UserId u = 0; u < 4; ++u) {
    for (double sim : {0.0, 0.2, 0.5}) {
      int a = static_cast<int>(noisy_model.TrueLabel(u, sim, 0.0));
      int b = static_cast<int>(clean_model.TrueLabel(u, sim, 0.0));
      EXPECT_LE(std::abs(a - b), 1);
      EXPECT_GE(a, kRiskLabelMin);
      EXPECT_LE(a, kRiskLabelMax);
    }
  }
}

TEST(OwnerModelTest, VisibleItemsLowerScoreViaEmphasis) {
  ProfileTable profiles = MakeProfiles();
  VisibilityTable visibility;
  OwnerAttitude a = NoNoiseAttitude();
  a.item_emphasis.fill(0.0);
  a.item_emphasis[static_cast<size_t>(ProfileItem::kPhoto)] = 1.0;
  auto model = OwnerModel::Create(a, &profiles, &visibility).value();
  double hidden = model.Score(0, 0.1, 0.0);
  visibility.SetVisible(0, ProfileItem::kPhoto);
  double shown = model.Score(0, 0.1, 0.0);
  EXPECT_LT(shown, hidden);
  // An item with zero emphasis changes nothing.
  visibility.SetVisible(0, ProfileItem::kWall);
  EXPECT_DOUBLE_EQ(model.Score(0, 0.1, 0.0), shown);
}

TEST(OwnerModelTest, ZeroEmphasisFallsBackToTable2Means) {
  ProfileTable profiles = MakeProfiles();
  VisibilityTable visibility;
  OwnerAttitude a = NoNoiseAttitude();  // item_emphasis default: all zero
  auto model = OwnerModel::Create(a, &profiles, &visibility).value();
  // Photo carries the largest Table II mean, so exposing it moves the
  // score more than exposing the wall.
  visibility.SetVisible(0, ProfileItem::kPhoto);
  double with_photo = model.Score(0, 0.1, 0.0);
  visibility.SetVisible(0, ProfileItem::kPhoto, false);
  visibility.SetVisible(0, ProfileItem::kWall);
  double with_wall = model.Score(0, 0.1, 0.0);
  EXPECT_LT(with_photo, with_wall);
}

TEST(OwnerModelTest, NegativeEmphasisRejected) {
  ProfileTable profiles = MakeProfiles();
  OwnerAttitude a = NoNoiseAttitude();
  a.item_emphasis[0] = -0.5;
  EXPECT_FALSE(OwnerModel::Create(a, &profiles).ok());
}

TEST(SampleOwnerAttitudeTest, ItemEmphasisIsPhotoHeavyAndNormalized) {
  Rng rng(321);
  double photo_sum = 0.0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    OwnerAttitude a = SampleOwnerAttitude(&rng);
    double total = 0.0;
    for (double e : a.item_emphasis) {
      EXPECT_GE(e, 0.0);
      total += e;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    photo_sum += a.item_emphasis[static_cast<size_t>(ProfileItem::kPhoto)];
  }
  // Photos average near the paper's 0.27 Table II importance.
  EXPECT_NEAR(photo_sum / n, 0.27, 0.05);
}

TEST(SampleOwnerAttitudeTest, PopulationStructureMatchesPaper) {
  Rng rng(2024);
  size_t gender_dominant = 0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    OwnerAttitude a = SampleOwnerAttitude(&rng);
    EXPECT_TRUE(a.theta.Validate().ok());
    EXPECT_GT(a.threshold_high, a.threshold_low);
    EXPECT_GE(a.confidence, 50.0);
    EXPECT_LE(a.confidence, 95.0);
    double max_locale = 0.0;
    for (double b : a.locale_bias) max_locale = std::max(max_locale, b);
    if (a.gender_bias > max_locale) ++gender_dominant;
  }
  // ~70% of owners are gender-dominated by construction.
  double frac = static_cast<double>(gender_dominant) / n;
  EXPECT_GT(frac, 0.55);
  EXPECT_LT(frac, 0.9);
}

TEST(SampleOwnerAttitudeTest, ConfidenceAveragesNearPaper) {
  Rng rng(99);
  double sum = 0.0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) sum += SampleOwnerAttitude(&rng).confidence;
  EXPECT_NEAR(sum / n, 78.39, 2.0);
}

}  // namespace
}  // namespace sight::sim
