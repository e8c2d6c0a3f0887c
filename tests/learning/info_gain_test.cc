#include "learning/info_gain.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace sight {
namespace {

TEST(EntropyTest, UniformBinaryIsOneBit) {
  EXPECT_DOUBLE_EQ(EntropyFromCounts({5, 5}), 1.0);
}

TEST(EntropyTest, PureDistributionIsZero) {
  EXPECT_DOUBLE_EQ(EntropyFromCounts({10}), 0.0);
  EXPECT_DOUBLE_EQ(EntropyFromCounts({10, 0, 0}), 0.0);
}

TEST(EntropyTest, UniformTernary) {
  EXPECT_NEAR(EntropyFromCounts({3, 3, 3}), std::log2(3.0), 1e-12);
}

TEST(EntropyTest, EmptyCountsAreZero) {
  EXPECT_DOUBLE_EQ(EntropyFromCounts({}), 0.0);
  EXPECT_DOUBLE_EQ(EntropyFromCounts({0, 0}), 0.0);
}

TEST(EntropyTest, SkewedBinary) {
  // H(0.25) = 0.811278...
  EXPECT_NEAR(EntropyFromCounts({1, 3}), 0.8112781245, 1e-9);
}

TEST(LabelEntropyTest, MatchesCounts) {
  EXPECT_DOUBLE_EQ(LabelEntropy({1, 1, 2, 2}), 1.0);
  EXPECT_DOUBLE_EQ(LabelEntropy({3, 3, 3}), 0.0);
}

// Attribute columns are dictionary codes (graph/profile_codec.h): only
// their equality matters, so e.g. {1, 1, 2, 2} stands for a column like
// {"m", "m", "f", "f"}.
using Column = std::vector<uint32_t>;

TEST(InformationGainTest, PerfectPredictorGainsFullEntropy) {
  Column attr = {1, 1, 2, 2};
  std::vector<int> labels = {3, 3, 1, 1};
  EXPECT_DOUBLE_EQ(InformationGain(attr, labels).value(), 1.0);
}

TEST(InformationGainTest, IrrelevantAttributeGainsNothing) {
  Column attr = {1, 2, 1, 2};
  std::vector<int> labels = {3, 3, 1, 1};
  EXPECT_DOUBLE_EQ(InformationGain(attr, labels).value(), 0.0);
}

TEST(InformationGainTest, ConstantAttributeGainsNothing) {
  Column attr = {4, 4, 4, 4};
  std::vector<int> labels = {3, 3, 1, 1};
  EXPECT_DOUBLE_EQ(InformationGain(attr, labels).value(), 0.0);
}

TEST(InformationGainTest, PartialPredictor) {
  // Code 1 is pure, code 2 is mixed.
  Column attr = {1, 1, 2, 2};
  std::vector<int> labels = {1, 1, 1, 2};
  double gain = InformationGain(attr, labels).value();
  EXPECT_GT(gain, 0.0);
  EXPECT_LT(gain, LabelEntropy(labels));
}

TEST(InformationGainTest, RejectsBadInput) {
  EXPECT_FALSE(InformationGain(Column{1}, {1, 2}).ok());
  EXPECT_FALSE(InformationGain(Column{}, {}).ok());
}

TEST(SplitInformationTest, EntropyOfAttributeValues) {
  EXPECT_DOUBLE_EQ(SplitInformation(Column{1, 1, 2, 2}).value(), 1.0);
  EXPECT_DOUBLE_EQ(SplitInformation(Column{1, 1}).value(), 0.0);
  EXPECT_DOUBLE_EQ(SplitInformation(Column{7, 7, 9, 9}).value(), 1.0);
  EXPECT_FALSE(SplitInformation(Column{}).ok());
}

TEST(GainRatioTest, NormalizesBySplitInfo) {
  Column attr = {1, 1, 2, 2};
  std::vector<int> labels = {3, 3, 1, 1};
  // Gain 1 bit / split info 1 bit = 1.
  EXPECT_DOUBLE_EQ(GainRatio(attr, labels).value(), 1.0);
}

TEST(GainRatioTest, SingleValuedAttributeScoresZero) {
  Column attr = {5, 5, 5};
  std::vector<int> labels = {1, 2, 3};
  EXPECT_DOUBLE_EQ(GainRatio(attr, labels).value(), 0.0);
}

TEST(GainRatioTest, PenalizesHighArityAttributes) {
  // A unique-valued attribute perfectly "predicts" but has maximal split
  // info; gain ratio < 1 discourages it compared to a compact perfect
  // predictor.
  Column unique_attr = {1, 2, 3, 4};
  Column compact_attr = {1, 1, 2, 2};
  std::vector<int> labels = {1, 1, 3, 3};
  double unique_gr = GainRatio(unique_attr, labels).value();
  double compact_gr = GainRatio(compact_attr, labels).value();
  EXPECT_LT(unique_gr, compact_gr);
}

TEST(CorrectedGainRatioTest, StrongLowArityPredictorSurvives) {
  Column attr;
  std::vector<int> labels;
  for (int i = 0; i < 40; ++i) {
    attr.push_back(i % 2 == 0 ? 1 : 2);
    labels.push_back(i % 2 == 0 ? 3 : 1);
  }
  double corrected = CorrectedGainRatio(attr, labels).value();
  EXPECT_GT(corrected, 0.9);
}

TEST(CorrectedGainRatioTest, HighArityNoiseCollapsesToZero) {
  // A unique-valued attribute is a perfect "predictor" by accident; the
  // chance correction must wipe it out where the raw ratio does not.
  Column attr;
  std::vector<int> labels;
  for (int i = 0; i < 30; ++i) {
    attr.push_back(static_cast<uint32_t>(i + 1));
    labels.push_back(i % 3 + 1);
  }
  double raw = GainRatio(attr, labels).value();
  double corrected = CorrectedGainRatio(attr, labels).value();
  EXPECT_GT(raw, 0.1);
  // The asymptotic Miller-Madow term undercorrects slightly in the
  // singleton-partition extreme, but must remove the bulk of the chance
  // mass.
  EXPECT_LT(corrected, 0.05);
  EXPECT_LT(corrected, raw / 3.0);
}

TEST(CorrectedGainRatioTest, NeverNegative) {
  Column attr = {1, 2, 1, 2};
  std::vector<int> labels = {1, 1, 2, 2};  // attribute uninformative
  double corrected = CorrectedGainRatio(attr, labels).value();
  EXPECT_GE(corrected, 0.0);
}

TEST(CorrectedGainRatioTest, SingleValuedAttributeScoresZero) {
  Column attr = {5, 5, 5};
  std::vector<int> labels = {1, 2, 3};
  EXPECT_DOUBLE_EQ(CorrectedGainRatio(attr, labels).value(), 0.0);
}

TEST(CorrectedGainRatioTest, ApproachesRawRatioWithLargeSamples) {
  // The chance term shrinks as 1/N, so for large N corrected ~ raw.
  Column attr;
  std::vector<int> labels;
  for (int i = 0; i < 4000; ++i) {
    attr.push_back(i % 2 == 0 ? 1 : 2);
    labels.push_back(i % 2 == 0 ? 3 : 1);
  }
  double raw = GainRatio(attr, labels).value();
  double corrected = CorrectedGainRatio(attr, labels).value();
  EXPECT_NEAR(corrected, raw, 1e-3);
}

TEST(GainRatioTest, GenderLikePatternScoresHigh) {
  // The paper's Table I scenario: owner labels all males as riskier.
  Column gender;
  Column lastname;
  std::vector<int> labels;
  for (int i = 0; i < 20; ++i) {
    bool male = i % 2 == 0;
    gender.push_back(male ? 1 : 2);
    lastname.push_back(static_cast<uint32_t>(i % 7 + 1));
    labels.push_back(male ? 3 : 1);
  }
  double gender_gr = GainRatio(gender, labels).value();
  double lastname_gr = GainRatio(lastname, labels).value();
  EXPECT_GT(gender_gr, 0.9);
  EXPECT_LT(lastname_gr, gender_gr);
}

}  // namespace
}  // namespace sight
