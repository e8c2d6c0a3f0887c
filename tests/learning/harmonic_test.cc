#include "learning/harmonic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "graph/profile.h"
#include "learning/pool_graph_testing.h"
#include "learning/similarity_matrix.h"
#include "similarity/profile_similarity.h"
#include "similarity/ps_kernels.h"

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

// Conjugate gradient on a CSR graph as the solver ran it before its
// product read the unlabeled block's own CSR: every product walks each
// unlabeled row's whole neighbor list, maps each neighbor through a
// position table and skips the labeled ones. The rest is the solver's
// arithmetic, step for step, so the two must agree bit for bit.
std::vector<double> PositionMappedCg(const SimilarityMatrix& w,
                                     const LabeledSet& labeled,
                                     const HarmonicConfig& config,
                                     size_t* iterations) {
  constexpr double kRidge = 1e-8;
  constexpr size_t kLabeled = static_cast<size_t>(-1);
  const size_t n = w.size();
  const double label_mean =
      std::accumulate(labeled.values.begin(), labeled.values.end(), 0.0) /
      static_cast<double>(labeled.size());
  std::vector<double> f(n, label_mean);
  std::vector<bool> is_labeled(n, false);
  for (size_t i = 0; i < labeled.size(); ++i) {
    is_labeled[labeled.indices[i]] = true;
    f[labeled.indices[i]] = labeled.values[i];
  }
  std::vector<size_t> nodes;
  std::vector<size_t> position(n, kLabeled);
  for (size_t i = 0; i < n; ++i) {
    if (is_labeled[i]) continue;
    position[i] = nodes.size();
    nodes.push_back(i);
  }
  const size_t m = nodes.size();
  *iterations = 0;
  if (m == 0) return f;
  std::vector<double> diag(m, kRidge);
  std::vector<double> b(m, kRidge * label_mean);
  for (size_t a = 0; a < m; ++a) {
    for (const Neighbor& nb : w.Neighbors(nodes[a])) {
      diag[a] += nb.weight;
      if (position[nb.index] == kLabeled) b[a] += nb.weight * f[nb.index];
    }
  }
  auto product = [&](const std::vector<double>& x, std::vector<double>* out) {
    for (size_t a = 0; a < m; ++a) {
      double acc = diag[a] * x[a];
      for (const Neighbor& nb : w.Neighbors(nodes[a])) {
        const size_t c = position[nb.index];
        if (c != kLabeled) acc -= nb.weight * x[c];
      }
      (*out)[a] = acc;
    }
  };
  std::vector<double> x(m);
  for (size_t a = 0; a < m; ++a) x[a] = f[nodes[a]];
  std::vector<double> ax(m);
  product(x, &ax);
  std::vector<double> r(m);
  for (size_t a = 0; a < m; ++a) r[a] = b[a] - ax[a];
  std::vector<double> p = r;
  std::vector<double> ap(m);
  const double b_norm =
      std::sqrt(std::inner_product(b.begin(), b.end(), b.begin(), 0.0));
  const double stop_threshold = config.tolerance * std::max(1.0, b_norm);
  double rs_old = std::inner_product(r.begin(), r.end(), r.begin(), 0.0);
  for (size_t iter = 0; iter < config.max_iterations && iter < m + 8;
       ++iter) {
    if (std::sqrt(rs_old) < stop_threshold) break;
    product(p, &ap);
    const double p_ap = std::inner_product(p.begin(), p.end(), ap.begin(), 0.0);
    if (p_ap <= 0.0) break;
    const double alpha = rs_old / p_ap;
    for (size_t a = 0; a < m; ++a) {
      x[a] += alpha * p[a];
      r[a] -= alpha * ap[a];
    }
    const double rs_new =
        std::inner_product(r.begin(), r.end(), r.begin(), 0.0);
    const double beta = rs_new / rs_old;
    for (size_t a = 0; a < m; ++a) p[a] = r[a] + beta * p[a];
    rs_old = rs_new;
    ++*iterations;
  }
  for (size_t a = 0; a < m; ++a) f[nodes[a]] = x[a];
  return f;
}

// The top-8 PS graph of RandomCodeRows(n, seed) with the first two rows
// all missing: PS 0 with everyone, so isolated.
SimilarityMatrix RandomTopKPsGraph(size_t n, uint64_t seed) {
  std::vector<uint32_t> rows = RandomCodeRows(n, seed);
  std::fill(rows.begin(), rows.begin() + 2 * kRandomAttributes, 0u);
  const ProfileSimilarity ps =
      ProfileSimilarity::Create(
          ProfileSchema::Create({"a", "b", "c", "d"}).value())
          .value();
  std::vector<PoolGraph> graphs =
      ps_kernels::BuildGraphs({{rows.data(), n}}, ps, /*top_k=*/8);
  return *graphs.at(0).csr();
}

// The solver's CG on a top-8 PS graph against the position-mapped CG,
// bit for bit, with the labeled share from one label to all but one
// node. Node 0 is isolated; one labeled set labels every neighbor of an
// unlabeled node.
TEST(HarmonicCsrBlockTest, CgMatchesPositionMappedProductBitwise) {
  const size_t n = 400;
  const SimilarityMatrix w = RandomTopKPsGraph(n, 17);
  ASSERT_TRUE(w.Neighbors(0).empty());
  HarmonicConfig config;
  config.solver = HarmonicSolver::kConjugateGradient;
  const HarmonicFunctionClassifier classifier =
      HarmonicFunctionClassifier::Create(config).value();

  std::vector<LabeledSet> sets;
  for (size_t count : {size_t{1}, size_t{2}, size_t{13}, n / 4, n / 2,
                       n - 2, n - 1}) {
    LabeledSet labeled;
    for (size_t t = 0; t < count; ++t) {
      const size_t i = 1 + (t * 7919) % (n - 1);  // never node 0
      labeled.Add(i, 1.0 + static_cast<double>((i * 5 + t) % 3));
    }
    sets.push_back(std::move(labeled));
  }
  // Every neighbor of node u labeled, u itself not.
  const size_t u = 200;
  ASSERT_FALSE(w.Neighbors(u).empty());
  LabeledSet around;
  for (const Neighbor& nb : w.Neighbors(u)) {
    around.Add(nb.index, 1.0 + static_cast<double>(nb.index % 3));
  }
  sets.push_back(std::move(around));

  for (const LabeledSet& labeled : sets) {
    const std::string label = std::to_string(labeled.size()) + " labeled";
    ASSERT_EQ(std::count(labeled.indices.begin(), labeled.indices.end(), 0),
              0)
        << label;
    SolveStats stats;
    const std::vector<double> got =
        classifier.PredictWithState(w, labeled, nullptr, &stats).value();
    size_t iterations = 0;
    const std::vector<double> want =
        PositionMappedCg(w, labeled, config, &iterations);
    EXPECT_EQ(stats.solver, "conjugate-gradient") << label;
    EXPECT_EQ(stats.iterations, iterations) << label;
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
                std::bit_cast<uint64_t>(want[i]))
          << label << " node " << i << ": " << got[i] << " vs " << want[i];
    }
  }
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
