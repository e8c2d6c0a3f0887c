// Warm-start vs cold-replay equivalence over full active-learning runs:
// flipping ActiveLearnerConfig::warm_start must not change a single bit
// of any round's predictions, and therefore must pin identical
// RoundRecord histories.

#include <gtest/gtest.h>

#include <vector>

#include "core/active_learner.h"
#include "learning/harmonic.h"
#include "learning/sampling.h"

namespace sight {
namespace {

// Deterministic oracle: label depends only on the stranger id.
class IdOracle : public LabelOracle {
 public:
  RiskLabel QueryLabel(UserId stranger, double similarity,
                       double benefit) override {
    (void)similarity;
    (void)benefit;
    return static_cast<RiskLabel>(1 + stranger % 3);
  }
};

SimilarityMatrix RandomWeights(size_t n, uint64_t seed) {
  SimilarityMatrix m(n);
  uint64_t state = seed;
  auto next_unit = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (next_unit() < 0.2) m.Set(i, j, 0.1 + next_unit());
    }
  }
  return m;
}

StrangerPool MakePool(size_t n) {
  StrangerPool pool;
  for (size_t i = 0; i < n; ++i) {
    pool.members.push_back(static_cast<UserId>(i + 100));
  }
  return pool;
}

struct RunResult {
  std::vector<RoundRecord> rounds;
  std::vector<double> predictions;
  PoolOutcome outcome = PoolOutcome::kRoundLimit;
};

RunResult RunOnce(HarmonicSolver solver, size_t n, size_t top_k,
                  bool warm_start,
                  const PoolLearner::KnownLabels* known_labels,
                  const PoolLearner::KnownLabels* prior_scores) {
  HarmonicConfig harmonic_config;
  harmonic_config.solver = solver;
  HarmonicFunctionClassifier classifier =
      HarmonicFunctionClassifier::Create(harmonic_config).value();
  RandomSampler sampler;
  ActiveLearnerConfig config;
  config.sparsify_top_k = top_k;
  config.warm_start = warm_start;

  StrangerPool pool = MakePool(n);
  PoolLearner learner =
      PoolLearner::Create(pool, RandomWeights(n, 77),
                          std::vector<double>(n, 0.5),
                          std::vector<double>(n, 0.5), config, &classifier,
                          &sampler, known_labels, prior_scores)
          .value();
  IdOracle oracle;
  Rng rng(1234);
  RunResult result;
  result.rounds = learner.RunToCompletion(&oracle, &rng).value();
  result.predictions = learner.predictions();
  result.outcome = learner.outcome();
  return result;
}

void ExpectIdenticalHistories(const RunResult& warm, const RunResult& cold) {
  // Bitwise-equal final predictions...
  EXPECT_EQ(warm.predictions, cold.predictions);
  EXPECT_EQ(warm.outcome, cold.outcome);
  // ...and an identical round-by-round record, including the solver used
  // and its iteration count (same chain, same arithmetic, same stats).
  ASSERT_EQ(warm.rounds.size(), cold.rounds.size());
  for (size_t r = 0; r < warm.rounds.size(); ++r) {
    const RoundRecord& a = warm.rounds[r];
    const RoundRecord& b = cold.rounds[r];
    EXPECT_EQ(a.round, b.round) << "round " << r;
    EXPECT_EQ(a.newly_labeled, b.newly_labeled) << "round " << r;
    EXPECT_EQ(a.rmse_valid, b.rmse_valid) << "round " << r;
    EXPECT_EQ(a.rmse, b.rmse) << "round " << r;
    EXPECT_EQ(a.unstabilized, b.unstabilized) << "round " << r;
    EXPECT_EQ(a.stabilized, b.stabilized) << "round " << r;
    EXPECT_EQ(a.solver, b.solver) << "round " << r;
    EXPECT_EQ(a.solve_iterations, b.solve_iterations) << "round " << r;
  }
}

struct EquivalenceCase {
  HarmonicSolver solver;
  size_t n;
  size_t top_k;
  const char* name;
};

class WarmColdEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(WarmColdEquivalenceTest, FullRunHistoriesMatch) {
  const EquivalenceCase& c = GetParam();
  RunResult warm = RunOnce(c.solver, c.n, c.top_k, true, nullptr, nullptr);
  RunResult cold = RunOnce(c.solver, c.n, c.top_k, false, nullptr, nullptr);
  ASSERT_GT(warm.rounds.size(), 1u);
  ExpectIdenticalHistories(warm, cold);
}

TEST_P(WarmColdEquivalenceTest, SeededRunHistoriesMatch) {
  const EquivalenceCase& c = GetParam();
  // Carry-over owner labels plus previous-tick scores, like a
  // RiskService::AssessSync second tick.
  PoolLearner::KnownLabels known_labels;
  known_labels[100] = 1.0;
  known_labels[101] = 3.0;
  known_labels[102] = 2.0;
  PoolLearner::KnownLabels prior_scores;
  for (size_t i = 0; i < c.n; ++i) {
    prior_scores[static_cast<UserId>(i + 100)] =
        1.0 + static_cast<double>((i * 13) % 200) / 100.0;
  }
  RunResult warm =
      RunOnce(c.solver, c.n, c.top_k, true, &known_labels, &prior_scores);
  RunResult cold =
      RunOnce(c.solver, c.n, c.top_k, false, &known_labels, &prior_scores);
  ExpectIdenticalHistories(warm, cold);
}

INSTANTIATE_TEST_SUITE_P(
    SolversAndGraphs, WarmColdEquivalenceTest,
    ::testing::Values(
        EquivalenceCase{HarmonicSolver::kGaussSeidel, 60, 0, "GsDense"},
        EquivalenceCase{HarmonicSolver::kGaussSeidel, 60, 8, "GsTopK8"},
        EquivalenceCase{HarmonicSolver::kConjugateGradient, 60, 0,
                        "CgDense"},
        EquivalenceCase{HarmonicSolver::kConjugateGradient, 60, 8,
                        "CgTopK8"},
        EquivalenceCase{HarmonicSolver::kAuto, 160, 8, "AutoTopK8"}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(WarmColdRecordTest, RoundRecordsNameTheSolverUsed) {
  // kAuto on a large pool starts on CG and may hand over to GS as the
  // unlabeled set shrinks below the threshold; every record must name a
  // concrete solver either way.
  RunResult run =
      RunOnce(HarmonicSolver::kAuto, 160, 8, true, nullptr, nullptr);
  ASSERT_FALSE(run.rounds.empty());
  EXPECT_EQ(run.rounds.front().solver, "conjugate-gradient");
  for (const RoundRecord& record : run.rounds) {
    EXPECT_TRUE(record.solver == "gauss-seidel" ||
                record.solver == "conjugate-gradient")
        << record.solver;
  }
}

}  // namespace
}  // namespace sight
