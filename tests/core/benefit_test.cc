#include "core/benefit.h"

#include <gtest/gtest.h>

#include <limits>

#include "graph/visibility.h"

namespace sight {
namespace {

TEST(ThetaWeightsTest, UniformIsValid) {
  ThetaWeights theta = ThetaWeights::Uniform();
  EXPECT_TRUE(theta.Validate().ok());
  for (ProfileItem item : kAllProfileItems) {
    EXPECT_DOUBLE_EQ(theta[item], 1.0);
  }
}

TEST(ThetaWeightsTest, PaperTable3MatchesPublishedValues) {
  ThetaWeights theta = ThetaWeights::PaperTable3();
  EXPECT_DOUBLE_EQ(theta[ProfileItem::kHometown], 0.155);
  EXPECT_DOUBLE_EQ(theta[ProfileItem::kFriendList], 0.149);
  EXPECT_DOUBLE_EQ(theta[ProfileItem::kPhoto], 0.147);
  EXPECT_DOUBLE_EQ(theta[ProfileItem::kLocation], 0.143);
  EXPECT_DOUBLE_EQ(theta[ProfileItem::kEducation], 0.1393);
  EXPECT_DOUBLE_EQ(theta[ProfileItem::kWall], 0.1328);
  EXPECT_DOUBLE_EQ(theta[ProfileItem::kWork], 0.1321);
  // The paper's Table III ordering: hometown > friend > photo > location >
  // education > wall > work.
  EXPECT_GT(theta[ProfileItem::kHometown], theta[ProfileItem::kFriendList]);
  EXPECT_GT(theta[ProfileItem::kWall], theta[ProfileItem::kWork]);
}

TEST(ThetaWeightsTest, ValidateRejectsNegative) {
  ThetaWeights theta = ThetaWeights::Uniform();
  theta[ProfileItem::kWall] = -0.1;
  EXPECT_EQ(theta.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ThetaWeightsTest, ValidateRejectsAllZero) {
  ThetaWeights theta;
  theta.values.fill(0.0);
  EXPECT_EQ(theta.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ThetaWeightsTest, ValidateRejectsNonFinite) {
  for (double bad : {std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    ThetaWeights theta = ThetaWeights::Uniform();
    theta[ProfileItem::kPhoto] = bad;
    EXPECT_EQ(theta.Validate().code(), StatusCode::kInvalidArgument) << bad;
  }
  // Finite weights whose sum overflows.
  ThetaWeights theta;
  theta.values.fill(1e308);
  EXPECT_EQ(theta.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(BenefitModelTest, AllHiddenScoresZero) {
  VisibilityTable v;
  auto model = BenefitModel::Create(ThetaWeights::Uniform()).value();
  EXPECT_DOUBLE_EQ(model.Compute(v, 0), 0.0);
}

TEST(BenefitModelTest, AllVisibleAveragesTheta) {
  VisibilityTable v;
  v.SetMask(0, 0x7f);
  auto model = BenefitModel::Create(ThetaWeights::Uniform()).value();
  // (1/7) * sum of seven 1.0 thetas = 1.
  EXPECT_DOUBLE_EQ(model.Compute(v, 0), 1.0);
}

TEST(BenefitModelTest, PartialVisibilityWeightsByTheta) {
  VisibilityTable v;
  v.SetVisible(0, ProfileItem::kPhoto);
  v.SetVisible(0, ProfileItem::kWall);
  ThetaWeights theta;
  theta.values.fill(0.0);
  theta[ProfileItem::kPhoto] = 0.7;
  theta[ProfileItem::kWall] = 0.35;
  theta[ProfileItem::kWork] = 0.1;  // hidden -> no contribution
  auto model = BenefitModel::Create(theta).value();
  EXPECT_NEAR(model.Compute(v, 0), (0.7 + 0.35) / 7.0, 1e-12);
}

TEST(BenefitModelTest, MoreVisibilityNeverDecreasesBenefit) {
  VisibilityTable v;
  auto model = BenefitModel::Create(ThetaWeights::PaperTable3()).value();
  double previous = model.Compute(v, 0);
  for (ProfileItem item : kAllProfileItems) {
    v.SetVisible(0, item);
    double current = model.Compute(v, 0);
    EXPECT_GE(current, previous);
    previous = current;
  }
}

TEST(BenefitModelTest, ComputeBatchMatchesSingle) {
  VisibilityTable v;
  v.SetMask(0, 0x01);
  v.SetMask(1, 0x7f);
  auto model = BenefitModel::Create(ThetaWeights::Uniform()).value();
  auto batch = model.ComputeBatch(v, {0, 1, 2});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_DOUBLE_EQ(batch[0], model.Compute(v, 0));
  EXPECT_DOUBLE_EQ(batch[1], 1.0);
  EXPECT_DOUBLE_EQ(batch[2], 0.0);
}

TEST(BenefitModelTest, CreateRejectsInvalidTheta) {
  ThetaWeights theta;
  theta.values.fill(0.0);
  EXPECT_FALSE(BenefitModel::Create(theta).ok());
}

TEST(BenefitModelTest, NormalizedThetaKeepsBenefitInUnitInterval) {
  // With theta summing to ~1, benefit is within [0, max theta] <= 1.
  VisibilityTable v;
  v.SetMask(0, 0x7f);
  auto model = BenefitModel::Create(ThetaWeights::PaperTable3()).value();
  double b = model.Compute(v, 0);
  EXPECT_GT(b, 0.0);
  EXPECT_LT(b, 1.0);
}

}  // namespace
}  // namespace sight
