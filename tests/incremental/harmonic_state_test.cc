// HarmonicSolveState: warm-started solves must reproduce the chained
// replay bit for bit — on a CSR graph and on a factored PS graph — and
// stale/foreign state must be rejected before it can corrupt a solve.

#include "learning/harmonic.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "learning/pool_graph_testing.h"
#include "learning/similarity_matrix.h"

namespace sight {
namespace {

HarmonicFunctionClassifier Make(HarmonicSolver solver) {
  HarmonicConfig config;
  config.solver = solver;
  return HarmonicFunctionClassifier::Create(config).value();
}

// Deterministic pseudo-random weights (no global RNG in tests).
SimilarityMatrix RandomGraph(size_t n, uint64_t seed, double density) {
  SimilarityTriangle t(n);
  uint64_t state = seed;
  auto next_unit = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (next_unit() < density) t.Set(i, j, 0.1 + next_unit());
    }
  }
  return std::move(t).Compact();
}

// Append-only label history: step k labels the first `sizes[k]` entries.
std::vector<LabeledSet> LabelChain(size_t n,
                                   const std::vector<size_t>& sizes) {
  std::vector<LabeledSet> chain;
  for (size_t s : sizes) {
    LabeledSet labeled;
    for (size_t k = 0; k < s; ++k) {
      size_t idx = (k * 7) % n;
      labeled.Add(idx, 1.0 + static_cast<double>(idx % 3));
    }
    chain.push_back(labeled);
  }
  return chain;
}

// The checks that run on both representations, each on graph `w`.

void CheckNullStateMatchesPredict(HarmonicSolver solver, const PoolGraph& w) {
  HarmonicFunctionClassifier classifier = Make(solver);
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(30, 3.0);
  auto plain = classifier.Predict(w, labeled).value();
  SolveStats stats;
  auto with_null =
      classifier.PredictWithState(w, labeled, nullptr, &stats).value();
  EXPECT_EQ(plain, with_null);
  EXPECT_FALSE(stats.warm);
  EXPECT_GT(stats.iterations, 0u);
}

void CheckWarmChainMatchesColdReplay(HarmonicSolver solver,
                                    const PoolGraph& w) {
  HarmonicFunctionClassifier classifier = Make(solver);
  const size_t n = w.size();
  std::vector<LabeledSet> chain = LabelChain(n, {4, 7, 10, 13});

  // Warm: one state carried across all steps.
  std::unique_ptr<ClassifierState> warm = classifier.MakeState();
  ASSERT_NE(warm, nullptr);
  std::vector<std::vector<double>> warm_steps;
  for (const LabeledSet& labeled : chain) {
    SolveStats stats;
    warm_steps.push_back(
        classifier.PredictWithState(w, labeled, warm.get(), &stats)
            .value());
    if (warm_steps.size() > 1) {
      EXPECT_TRUE(stats.warm);
    }
  }

  // Cold: for each step, replay the whole prefix into a fresh state.
  for (size_t k = 0; k < chain.size(); ++k) {
    std::unique_ptr<ClassifierState> replay = classifier.MakeState();
    std::vector<double> f;
    for (size_t q = 0; q <= k; ++q) {
      f = classifier.PredictWithState(w, chain[q], replay.get(), nullptr)
              .value();
    }
    EXPECT_EQ(warm_steps[k], f) << "chain step " << k;
  }
}

void CheckStateAccumulatesIterations(HarmonicSolver solver,
                                     const PoolGraph& w) {
  HarmonicFunctionClassifier classifier = Make(solver);
  const size_t n = w.size();
  std::vector<LabeledSet> chain = LabelChain(n, {4, 7});

  auto state = classifier.MakeState();
  auto* harmonic_state = dynamic_cast<HarmonicSolveState*>(state.get());
  ASSERT_NE(harmonic_state, nullptr);
  EXPECT_FALSE(harmonic_state->has_solution());

  size_t total = 0;
  for (const LabeledSet& labeled : chain) {
    SolveStats stats;
    ASSERT_TRUE(
        classifier.PredictWithState(w, labeled, state.get(), &stats).ok());
    total += stats.iterations;
    EXPECT_GT(stats.iterations, 0u);
  }
  EXPECT_TRUE(harmonic_state->has_solution());
  EXPECT_EQ(harmonic_state->total_iterations(), total);
  EXPECT_EQ(harmonic_state->labeled_fingerprint().size(),
            chain.back().size());
  EXPECT_EQ(harmonic_state->solution().size(), n);
}

void CheckSeedSolutionStartsTheChain(HarmonicSolver solver,
                                     const PoolGraph& w) {
  HarmonicFunctionClassifier classifier = Make(solver);
  const size_t n = w.size();
  LabeledSet labeled;
  labeled.Add(1, 1.0);
  labeled.Add(20, 3.0);

  // A seeded state accepts any labeled set (no fingerprint yet), and two
  // identically seeded states produce identical solves.
  auto a = classifier.MakeState();
  auto b = classifier.MakeState();
  std::vector<double> seed(n, 2.0);
  a->SeedSolution(seed);
  b->SeedSolution(seed);
  SolveStats stats;
  auto fa = classifier.PredictWithState(w, labeled, a.get(), &stats).value();
  auto fb = classifier.PredictWithState(w, labeled, b.get(), nullptr).value();
  EXPECT_TRUE(stats.warm);
  EXPECT_EQ(fa, fb);
}

class HarmonicStateTest : public ::testing::TestWithParam<HarmonicSolver> {};

TEST_P(HarmonicStateTest, NullStateMatchesPredictBitwise) {
  CheckNullStateMatchesPredict(GetParam(), RandomGraph(60, 7, 0.2));
}

TEST_P(HarmonicStateTest, WarmChainMatchesColdReplayBitwise) {
  CheckWarmChainMatchesColdReplay(GetParam(), RandomGraph(60, 11, 0.2));
}

TEST_P(HarmonicStateTest, StateAccumulatesIterations) {
  CheckStateAccumulatesIterations(GetParam(), RandomGraph(60, 13, 0.2));
}

TEST_P(HarmonicStateTest, RejectsPoolSizeMismatch) {
  HarmonicFunctionClassifier classifier = Make(GetParam());
  SimilarityMatrix small = RandomGraph(20, 3, 0.3);
  SimilarityMatrix big = RandomGraph(30, 3, 0.3);
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(5, 3.0);

  auto state = classifier.MakeState();
  ASSERT_TRUE(
      classifier.PredictWithState(small, labeled, state.get(), nullptr)
          .ok());
  auto mismatched =
      classifier.PredictWithState(big, labeled, state.get(), nullptr);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(HarmonicStateTest, RejectsShrunkLabeledSet) {
  HarmonicFunctionClassifier classifier = Make(GetParam());
  SimilarityMatrix w = RandomGraph(20, 5, 0.3);
  LabeledSet two;
  two.Add(0, 1.0);
  two.Add(5, 3.0);
  LabeledSet one;
  one.Add(0, 1.0);

  auto state = classifier.MakeState();
  ASSERT_TRUE(
      classifier.PredictWithState(w, two, state.get(), nullptr).ok());
  auto shrunk = classifier.PredictWithState(w, one, state.get(), nullptr);
  ASSERT_FALSE(shrunk.ok());
  EXPECT_EQ(shrunk.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(HarmonicStateTest, RejectsChangedLabeledEntry) {
  HarmonicFunctionClassifier classifier = Make(GetParam());
  SimilarityMatrix w = RandomGraph(20, 5, 0.3);
  LabeledSet first;
  first.Add(0, 1.0);
  first.Add(5, 3.0);

  auto state = classifier.MakeState();
  ASSERT_TRUE(
      classifier.PredictWithState(w, first, state.get(), nullptr).ok());

  LabeledSet changed_value = first;
  changed_value.values[1] = 2.0;
  EXPECT_FALSE(
      classifier.PredictWithState(w, changed_value, state.get(), nullptr)
          .ok());

  LabeledSet changed_index = first;
  changed_index.indices[1] = 6;
  EXPECT_FALSE(
      classifier.PredictWithState(w, changed_index, state.get(), nullptr)
          .ok());
}

TEST_P(HarmonicStateTest, RejectsForeignStateType) {
  class OtherState final : public ClassifierState {};
  HarmonicFunctionClassifier classifier = Make(GetParam());
  SimilarityMatrix w = RandomGraph(10, 5, 0.3);
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  OtherState other;
  auto result = classifier.PredictWithState(w, labeled, &other, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(HarmonicStateTest, SeedSolutionStartsTheChainWithoutHistory) {
  CheckSeedSolutionStartsTheChain(GetParam(), RandomGraph(40, 17, 0.25));
}

std::string SolverName(
    const ::testing::TestParamInfo<HarmonicSolver>& param_info) {
  switch (param_info.param) {
    case HarmonicSolver::kGaussSeidel:
      return "GaussSeidel";
    case HarmonicSolver::kConjugateGradient:
      return "ConjugateGradient";
    case HarmonicSolver::kAuto:
      return "Auto";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, HarmonicStateTest,
    ::testing::Values(HarmonicSolver::kGaussSeidel,
                      HarmonicSolver::kConjugateGradient,
                      HarmonicSolver::kAuto),
    SolverName);

// The same chains on a dense pool's factored PS graph. The 160-member
// graph puts kAuto on conjugate gradient; the 60-member one on
// Gauss-Seidel.
class FactoredHarmonicStateTest
    : public ::testing::TestWithParam<HarmonicSolver> {};

TEST_P(FactoredHarmonicStateTest, NullStateMatchesPredictBitwise) {
  CheckNullStateMatchesPredict(GetParam(), RandomFactoredGraph(60, 7));
}

TEST_P(FactoredHarmonicStateTest, WarmChainMatchesColdReplayBitwise) {
  CheckWarmChainMatchesColdReplay(GetParam(), RandomFactoredGraph(60, 11));
  CheckWarmChainMatchesColdReplay(GetParam(), RandomFactoredGraph(160, 19));
}

TEST_P(FactoredHarmonicStateTest, StateAccumulatesIterations) {
  CheckStateAccumulatesIterations(GetParam(), RandomFactoredGraph(60, 13));
}

TEST_P(FactoredHarmonicStateTest, SeedSolutionStartsTheChainWithoutHistory) {
  CheckSeedSolutionStartsTheChain(GetParam(), RandomFactoredGraph(40, 17));
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, FactoredHarmonicStateTest,
    ::testing::Values(HarmonicSolver::kGaussSeidel,
                      HarmonicSolver::kConjugateGradient,
                      HarmonicSolver::kAuto),
    SolverName);

TEST(HarmonicStatsTest, AutoReportsTheSolverActuallyUsed) {
  HarmonicFunctionClassifier classifier = Make(HarmonicSolver::kAuto);
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(1, 3.0);

  SimilarityMatrix small = RandomGraph(20, 21, 0.3);
  SolveStats stats;
  ASSERT_TRUE(
      classifier.PredictWithState(small, labeled, nullptr, &stats).ok());
  EXPECT_EQ(stats.solver, "gauss-seidel");

  SimilarityMatrix big = RandomGraph(200, 21, 0.1);
  ASSERT_TRUE(
      classifier.PredictWithState(big, labeled, nullptr, &stats).ok());
  EXPECT_EQ(stats.solver, "conjugate-gradient");
}

}  // namespace
}  // namespace sight
