#include "learning/baselines.h"

#include <gtest/gtest.h>

#include <utility>

#include "learning/similarity_matrix.h"

namespace sight {
namespace {

TEST(KnnClassifierTest, CreateRejectsZeroK) {
  EXPECT_FALSE(KnnClassifier::Create(0).ok());
  EXPECT_TRUE(KnnClassifier::Create(3).ok());
}

TEST(KnnClassifierTest, NearestLabeledNeighborWins) {
  KnnClassifier knn = KnnClassifier::Create(1).value();
  SimilarityTriangle t(3);
  t.Set(2, 0, 0.9);
  t.Set(2, 1, 0.2);
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(1, 3.0);
  auto f = knn.Predict(w, labeled).value();
  EXPECT_DOUBLE_EQ(f[2], 1.0);  // k=1 picks node 0
}

TEST(KnnClassifierTest, WeightedAverageOverK) {
  KnnClassifier knn = KnnClassifier::Create(2).value();
  SimilarityTriangle t(3);
  t.Set(2, 0, 3.0);
  t.Set(2, 1, 1.0);
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(1, 3.0);
  auto f = knn.Predict(w, labeled).value();
  EXPECT_NEAR(f[2], (3.0 * 1.0 + 1.0 * 3.0) / 4.0, 1e-12);
}

TEST(KnnClassifierTest, DisconnectedFallsBackToMean) {
  KnnClassifier knn = KnnClassifier::Create(2).value();
  SimilarityMatrix w(3);
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(1, 3.0);
  auto f = knn.Predict(w, labeled).value();
  EXPECT_DOUBLE_EQ(f[2], 2.0);
}

TEST(KnnClassifierTest, LabeledKeepValues) {
  KnnClassifier knn = KnnClassifier::Create(2).value();
  SimilarityTriangle t(2);
  t.Set(0, 1, 1.0);
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 3.0);
  auto f = knn.Predict(w, labeled).value();
  EXPECT_DOUBLE_EQ(f[0], 3.0);
  EXPECT_DOUBLE_EQ(f[1], 3.0);
}

TEST(KnnClassifierTest, ValidatesLabeledSet) {
  KnnClassifier knn = KnnClassifier::Create(1).value();
  SimilarityMatrix w(2);
  LabeledSet empty;
  EXPECT_FALSE(knn.Predict(w, empty).ok());
  LabeledSet bad;
  bad.Add(5, 1.0);
  EXPECT_FALSE(knn.Predict(w, bad).ok());
}

TEST(MajorityClassifierTest, PredictsMostFrequentLabel) {
  MajorityClassifier majority;
  SimilarityMatrix w(5);
  LabeledSet labeled;
  labeled.Add(0, 2.0);
  labeled.Add(1, 2.0);
  labeled.Add(2, 3.0);
  auto f = majority.Predict(w, labeled).value();
  EXPECT_DOUBLE_EQ(f[3], 2.0);
  EXPECT_DOUBLE_EQ(f[4], 2.0);
}

TEST(MajorityClassifierTest, TieGoesToSmallerLabel) {
  MajorityClassifier majority;
  SimilarityMatrix w(3);
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(1, 3.0);
  auto f = majority.Predict(w, labeled).value();
  EXPECT_DOUBLE_EQ(f[2], 1.0);
}

TEST(MajorityClassifierTest, LabeledKeepValues) {
  MajorityClassifier majority;
  SimilarityMatrix w(3);
  LabeledSet labeled;
  labeled.Add(0, 3.0);
  labeled.Add(1, 1.0);
  labeled.Add(2, 1.0);
  auto f = majority.Predict(w, labeled).value();
  EXPECT_DOUBLE_EQ(f[0], 3.0);
}

TEST(ClassifierNamesTest, StableNames) {
  EXPECT_EQ(KnnClassifier::Create(1).value().name(), "knn");
  EXPECT_EQ(MajorityClassifier().name(), "majority");
}

}  // namespace
}  // namespace sight
