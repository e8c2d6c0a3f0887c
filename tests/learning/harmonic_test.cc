#include "learning/harmonic.h"

#include <gtest/gtest.h>

#include <utility>

#include "learning/similarity_matrix.h"

namespace sight {
namespace {

HarmonicFunctionClassifier Make(HarmonicSolver solver) {
  HarmonicConfig config;
  config.solver = solver;
  return HarmonicFunctionClassifier::Create(config).value();
}

class HarmonicSolverTest : public ::testing::TestWithParam<HarmonicSolver> {
 protected:
  HarmonicFunctionClassifier classifier() { return Make(GetParam()); }
};

TEST(HarmonicCreateTest, ValidatesConfig) {
  HarmonicConfig config;
  config.max_iterations = 0;
  EXPECT_FALSE(HarmonicFunctionClassifier::Create(config).ok());
  config = {};
  config.tolerance = 0.0;
  EXPECT_FALSE(HarmonicFunctionClassifier::Create(config).ok());
  EXPECT_TRUE(HarmonicFunctionClassifier::Create(HarmonicConfig{}).ok());
}

TEST_P(HarmonicSolverTest, EmptyLabeledSetRejected) {
  SimilarityMatrix w(3);
  LabeledSet labeled;
  EXPECT_FALSE(classifier().Predict(w, labeled).ok());
}

TEST_P(HarmonicSolverTest, OutOfRangeIndexRejected) {
  SimilarityMatrix w(3);
  LabeledSet labeled;
  labeled.Add(7, 2.0);
  EXPECT_EQ(classifier().Predict(w, labeled).status().code(),
            StatusCode::kOutOfRange);
  // Indices are checked in order: an out-of-range index ahead of a
  // duplicate decides the code.
  LabeledSet first;
  first.Add(9, 3.0);
  first.Add(1, 1.0);
  first.Add(1, 2.0);
  EXPECT_EQ(classifier().Predict(w, first).status().code(),
            StatusCode::kOutOfRange);
}

TEST_P(HarmonicSolverTest, DuplicateIndexRejected) {
  SimilarityMatrix w(3);
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(0, 2.0);
  EXPECT_EQ(classifier().Predict(w, labeled).status().code(),
            StatusCode::kInvalidArgument);
  // ... and a duplicate ahead of an out-of-range index decides it.
  LabeledSet first;
  first.Add(1, 1.0);
  first.Add(1, 2.0);
  first.Add(9, 3.0);
  EXPECT_EQ(classifier().Predict(w, first).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_P(HarmonicSolverTest, LabeledNodesKeepTheirValues) {
  SimilarityTriangle t(3);
  t.Set(0, 1, 1.0);
  t.Set(1, 2, 1.0);
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(2, 3.0);
  auto f = classifier().Predict(w, labeled).value();
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[2], 3.0);
}

TEST_P(HarmonicSolverTest, ChainInterpolates) {
  // Path 0-1-2 with equal weights: f(1) is the average of its neighbors.
  SimilarityTriangle t(3);
  t.Set(0, 1, 1.0);
  t.Set(1, 2, 1.0);
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(2, 3.0);
  auto f = classifier().Predict(w, labeled).value();
  EXPECT_NEAR(f[1], 2.0, 1e-5);
}

TEST_P(HarmonicSolverTest, LongChainLinearInterpolation) {
  // Path 0-1-2-3-4, ends labeled 1 and 3: harmonic solution is linear.
  const size_t n = 5;
  SimilarityTriangle t(n);
  for (size_t i = 0; i + 1 < n; ++i) t.Set(i, i + 1, 1.0);
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(4, 3.0);
  auto f = classifier().Predict(w, labeled).value();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(f[i], 1.0 + 0.5 * static_cast<double>(i), 1e-4);
  }
}

TEST_P(HarmonicSolverTest, WeightedNeighborsPullHarder) {
  // Node 2 connected to 0 (label 1, weight 3) and 1 (label 3, weight 1):
  // harmonic value = (3*1 + 1*3) / 4 = 1.5.
  SimilarityTriangle t(3);
  t.Set(2, 0, 3.0);
  t.Set(2, 1, 1.0);
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(1, 3.0);
  auto f = classifier().Predict(w, labeled).value();
  EXPECT_NEAR(f[2], 1.5, 1e-6);
}

TEST_P(HarmonicSolverTest, IsolatedUnlabeledNodeFallsBackToMean) {
  SimilarityTriangle t(3);
  t.Set(0, 1, 1.0);  // node 2 isolated
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(1, 3.0);
  auto f = classifier().Predict(w, labeled).value();
  EXPECT_NEAR(f[2], 2.0, 1e-5);
}

TEST_P(HarmonicSolverTest, PredictionsStayWithinLabelRange) {
  // Maximum principle: harmonic values lie inside [min label, max label].
  SimilarityTriangle t(6);
  t.Set(0, 2, 0.9);
  t.Set(1, 2, 0.3);
  t.Set(2, 3, 0.7);
  t.Set(3, 4, 0.2);
  t.Set(4, 5, 0.8);
  t.Set(1, 5, 0.4);
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(1, 3.0);
  auto f = classifier().Predict(w, labeled).value();
  for (double v : f) {
    EXPECT_GE(v, 1.0 - 1e-9);
    EXPECT_LE(v, 3.0 + 1e-9);
  }
}

TEST_P(HarmonicSolverTest, AllNodesLabeledReturnsLabels) {
  SimilarityTriangle t(2);
  t.Set(0, 1, 1.0);
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(1, 2.0);
  auto f = classifier().Predict(w, labeled).value();
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], 2.0);
}

TEST_P(HarmonicSolverTest, TwoCommunitiesSeparate) {
  // Two dense blobs with one labeled node each: members adopt their blob's
  // label.
  const size_t n = 8;  // 0-3 blob A, 4-7 blob B
  SimilarityTriangle t(n);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = i + 1; j < 4; ++j) t.Set(i, j, 1.0);
  }
  for (size_t i = 4; i < 8; ++i) {
    for (size_t j = i + 1; j < 8; ++j) t.Set(i, j, 1.0);
  }
  t.Set(3, 4, 0.05);  // weak bridge
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(7, 3.0);
  auto f = classifier().Predict(w, labeled).value();
  for (size_t i = 1; i < 4; ++i) EXPECT_LT(f[i], 1.7);
  for (size_t i = 4; i < 7; ++i) EXPECT_GT(f[i], 2.3);
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, HarmonicSolverTest,
    ::testing::Values(HarmonicSolver::kGaussSeidel,
                      HarmonicSolver::kConjugateGradient,
                      HarmonicSolver::kAuto),
    [](const auto& param_info) {
      switch (param_info.param) {
        case HarmonicSolver::kGaussSeidel:
          return "GaussSeidel";
        case HarmonicSolver::kConjugateGradient:
          return "ConjugateGradient";
        case HarmonicSolver::kAuto:
          return "Auto";
      }
      return "Unknown";
    });

TEST(HarmonicAutoTest, AutoMatchesBothSolversAcrossThreshold) {
  // Small system -> GS path; large -> CG path; both must agree with the
  // explicitly selected solver.
  for (size_t n : {16u, 200u}) {
    SimilarityTriangle t(n);
    uint64_t state = 7;
    auto next_unit = [&state]() {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<double>(state >> 11) * 0x1.0p-53;
    };
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (next_unit() < 0.1) t.Set(i, j, 0.2 + next_unit());
      }
    }
    SimilarityMatrix w = std::move(t).Compact();
    LabeledSet labeled;
    labeled.Add(0, 1.0);
    labeled.Add(n / 2, 2.0);
    labeled.Add(n - 1, 3.0);
    auto with_auto = Make(HarmonicSolver::kAuto).Predict(w, labeled).value();
    HarmonicSolver expected = n > 128 ? HarmonicSolver::kConjugateGradient
                                      : HarmonicSolver::kGaussSeidel;
    auto reference = Make(expected).Predict(w, labeled).value();
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(with_auto[i], reference[i], 1e-9) << "n=" << n;
    }
  }
}

TEST(HarmonicAgreementTest, SolversAgreeOnRandomGraph) {
  // Both solvers compute the same harmonic function.
  SimilarityTriangle t(12);
  uint64_t state = 99;
  auto next_unit = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  for (size_t i = 0; i < 12; ++i) {
    for (size_t j = i + 1; j < 12; ++j) {
      if (next_unit() < 0.4) t.Set(i, j, 0.1 + next_unit());
    }
  }
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(5, 2.0);
  labeled.Add(11, 3.0);
  auto gs = Make(HarmonicSolver::kGaussSeidel).Predict(w, labeled).value();
  auto cg =
      Make(HarmonicSolver::kConjugateGradient).Predict(w, labeled).value();
  ASSERT_EQ(gs.size(), cg.size());
  for (size_t i = 0; i < gs.size(); ++i) {
    EXPECT_NEAR(gs[i], cg[i], 1e-4) << "node " << i;
  }
}

TEST(HarmonicEdgeTest, SingleIterationStaysWithinLabelRange) {
  HarmonicConfig config;
  config.solver = HarmonicSolver::kGaussSeidel;
  config.max_iterations = 1;
  auto classifier = HarmonicFunctionClassifier::Create(config).value();
  SimilarityTriangle t(5);
  for (size_t i = 0; i + 1 < 5; ++i) t.Set(i, i + 1, 1.0);
  SimilarityMatrix w = std::move(t).Compact();
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(4, 3.0);
  auto f = classifier.Predict(w, labeled).value();
  for (double v : f) {
    EXPECT_GE(v, 1.0 - 1e-9);
    EXPECT_LE(v, 3.0 + 1e-9);
  }
}

TEST(HarmonicEdgeTest, SingleNodePool) {
  auto classifier =
      HarmonicFunctionClassifier::Create(HarmonicConfig{}).value();
  SimilarityMatrix w(1);
  LabeledSet labeled;
  labeled.Add(0, 2.0);
  auto f = classifier.Predict(w, labeled).value();
  ASSERT_EQ(f.size(), 1u);
  EXPECT_DOUBLE_EQ(f[0], 2.0);
}

TEST(HarmonicEdgeTest, ZeroWeightedGraphFallsBackToMeanEverywhere) {
  auto classifier =
      HarmonicFunctionClassifier::Create(HarmonicConfig{}).value();
  SimilarityMatrix w(4);  // no edges at all
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(1, 3.0);
  auto f = classifier.Predict(w, labeled).value();
  EXPECT_NEAR(f[2], 2.0, 1e-9);
  EXPECT_NEAR(f[3], 2.0, 1e-9);
}

TEST(RoundToLabelTest, RoundsAndClamps) {
  EXPECT_EQ(RoundToLabel(1.4, 1, 3), 1);
  EXPECT_EQ(RoundToLabel(1.6, 1, 3), 2);
  EXPECT_EQ(RoundToLabel(2.5, 1, 3), 3);  // lround half away from zero
  EXPECT_EQ(RoundToLabel(0.2, 1, 3), 1);
  EXPECT_EQ(RoundToLabel(9.0, 1, 3), 3);
}

}  // namespace
}  // namespace sight
