#include "learning/multiclass_harmonic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "learning/similarity_matrix.h"

namespace sight {
namespace {

MulticlassHarmonicClassifier Make(bool cmn) {
  MulticlassHarmonicConfig config;
  config.class_mass_normalization = cmn;
  return MulticlassHarmonicClassifier::Create(config).value();
}

TEST(MulticlassHarmonicTest, CreateValidatesRange) {
  MulticlassHarmonicConfig config;
  config.label_min = 3;
  config.label_max = 1;
  EXPECT_FALSE(MulticlassHarmonicClassifier::Create(config).ok());
  EXPECT_TRUE(
      MulticlassHarmonicClassifier::Create(MulticlassHarmonicConfig{}).ok());
}

TEST(MulticlassHarmonicTest, RejectsNonIntegerLabels) {
  auto classifier = Make(true);
  SimilarityTriangle t(3);
  t.Set(0, 1, 1.0);
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.5);
  EXPECT_FALSE(classifier.Predict(w, labeled).ok());
  LabeledSet out_of_range;
  out_of_range.Add(0, 5.0);
  EXPECT_FALSE(classifier.Predict(w, out_of_range).ok());
  LabeledSet nan_label;
  nan_label.Add(0, std::nan(""));
  EXPECT_EQ(classifier.Predict(w, nan_label).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MulticlassHarmonicTest, LabeledNodesKeepExactValues) {
  auto classifier = Make(true);
  SimilarityTriangle t(3);
  t.Set(0, 2, 1.0);
  t.Set(1, 2, 1.0);
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(1, 3.0);
  auto f = classifier.Predict(w, labeled).value();
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], 3.0);
}

TEST(MulticlassHarmonicTest, BalancedNeighborsGiveMiddleScore) {
  auto classifier = Make(false);
  SimilarityTriangle t(3);
  t.Set(0, 2, 1.0);
  t.Set(1, 2, 1.0);
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(1, 3.0);
  auto f = classifier.Predict(w, labeled).value();
  EXPECT_NEAR(f[2], 2.0, 1e-5);
}

TEST(MulticlassHarmonicTest, ScoresStayWithinLabelRange) {
  auto classifier = Make(true);
  SimilarityTriangle t(6);
  t.Set(0, 2, 0.9);
  t.Set(1, 2, 0.3);
  t.Set(2, 3, 0.7);
  t.Set(3, 4, 0.2);
  t.Set(4, 5, 0.8);
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(1, 2.0);
  labeled.Add(5, 3.0);
  auto f = classifier.Predict(w, labeled).value();
  for (double v : f) {
    EXPECT_GE(v, 1.0 - 1e-9);
    EXPECT_LE(v, 3.0 + 1e-9);
  }
}

TEST(MulticlassHarmonicTest, AgreesWithOrdinalHarmonicOnTwoClasses) {
  // With only two classes {1, 3} the one-hot expectation and the ordinal
  // embedding coincide (without CMN) on a symmetric graph.
  MulticlassHarmonicConfig config;
  config.class_mass_normalization = false;
  auto multiclass = MulticlassHarmonicClassifier::Create(config).value();
  auto ordinal =
      HarmonicFunctionClassifier::Create(HarmonicConfig{}).value();

  SimilarityTriangle t(5);
  for (size_t i = 0; i + 1 < 5; ++i) t.Set(i, i + 1, 1.0);
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(4, 3.0);
  auto fm = multiclass.Predict(w, labeled).value();
  auto fo = ordinal.Predict(w, labeled).value();
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(fm[i], fo[i], 1e-3) << "node " << i;
  }
}

TEST(MulticlassHarmonicTest, CmnCorrectsClassImbalance) {
  // Star of unlabeled nodes around a hub equidistant from one class-1
  // and three class-3 labeled nodes: without CMN class 3 dominates by
  // sheer labeled mass; CMN rebalances by prior — but since the prior
  // *is* imbalanced here, build the opposite case: balanced priors with
  // imbalanced connectivity.
  SimilarityTriangle t(6);
  // Unlabeled node 5 connects strongly to class-3 labeled nodes 2-4 and
  // weakly to class-1 node 0; node 1 is class-1 too, disconnected from 5.
  t.Set(5, 0, 0.3);
  t.Set(5, 2, 0.3);
  t.Set(5, 3, 0.3);
  t.Set(5, 4, 0.3);
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(1, 1.0);
  labeled.Add(2, 3.0);
  labeled.Add(3, 3.0);
  labeled.Add(4, 3.0);
  auto raw = Make(false).Predict(w, labeled).value();
  auto cmn = Make(true).Predict(w, labeled).value();
  // Raw: hit probability 1/4 vs 3/4 -> score 2.5. CMN shifts mass toward
  // class 1 because class 1 holds 2/5 of the labeled prior but only 1/4
  // of the hit mass.
  EXPECT_GT(raw[5], 2.3);
  EXPECT_LT(cmn[5], raw[5]);
}

TEST(MulticlassHarmonicTest, ClassScoresSumToOneUnderCmnPriors) {
  // With CMN, the unlabeled mass of class c equals its prior, so summed
  // over classes the total unlabeled mass equals 1 per... (aggregate over
  // all unlabeled nodes equals 1 in expectation). Check aggregate.
  SimilarityTriangle t(5);
  for (size_t i = 0; i + 1 < 5; ++i) t.Set(i, i + 1, 0.7);
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(4, 2.0);
  auto classifier = Make(true);
  auto scores = classifier.ClassScores(w, labeled).value();
  double total_mass = 0.0;
  for (size_t u = 1; u <= 3; ++u) {
    for (double s : scores[u]) total_mass += s;
  }
  EXPECT_NEAR(total_mass, 1.0, 1e-6);
}

TEST(MulticlassHarmonicTest, Names) {
  EXPECT_EQ(Make(true).name(), "harmonic-cmn");
  EXPECT_EQ(Make(false).name(), "harmonic-multiclass");
}

}  // namespace
}  // namespace sight
