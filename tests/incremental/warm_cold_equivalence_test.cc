// Warm solve chain vs cold replay over full active-learning runs. A
// PoolLearner solves each round once, continuing from the previous
// round's state. After every round this test rebuilds the label chain the
// learner has seen, replays every solved prefix from a fresh classifier
// state, and requires the last replayed solve to equal the learner's
// predictions bit for bit, with the round's solver and iteration count —
// on random CSR graphs, dense and top-k, and on factored PS graphs.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/active_learner.h"
#include "core/risk_label.h"
#include "learning/harmonic.h"
#include "learning/pool_graph_testing.h"
#include "learning/sampling.h"

namespace sight {
namespace {

constexpr UserId kFirstMember = 100;

// Deterministic oracle: the label depends only on the stranger id. Every
// answer is recorded in query order, so the test can rebuild the chain.
class IdOracle : public LabelOracle {
 public:
  RiskLabel QueryLabel(UserId stranger, double similarity,
                       double benefit) override {
    (void)similarity;
    (void)benefit;
    RiskLabel label = static_cast<RiskLabel>(1 + stranger % 3);
    answers_.emplace_back(stranger, label);
    return label;
  }

  const std::vector<std::pair<UserId, RiskLabel>>& answers() const {
    return answers_;
  }

 private:
  std::vector<std::pair<UserId, RiskLabel>> answers_;
};

// A random graph; with top_k > 0 it is top-k sparsified, the graph
// ActiveLearner's streamed build would hand the learner. With `factored`
// it is instead a dense pool's factored PS graph over random code rows.
PoolGraph RandomWeights(size_t n, uint64_t seed, size_t top_k,
                        bool factored) {
  if (factored) return RandomFactoredGraph(n, seed);
  SimilarityTriangle t(n);
  uint64_t state = seed;
  auto next_unit = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (next_unit() < 0.2) t.Set(i, j, 0.1 + next_unit());
    }
  }
  if (top_k > 0) return t.SparsifyTopK(top_k);
  return std::move(t).Compact();
}

StrangerPool MakePool(size_t n) {
  StrangerPool pool;
  for (size_t i = 0; i < n; ++i) {
    pool.members.push_back(static_cast<UserId>(kFirstMember + i));
  }
  return pool;
}

LabeledSet Prefix(const LabeledSet& chain, size_t size) {
  LabeledSet prefix;
  for (size_t k = 0; k < size; ++k) {
    prefix.Add(chain.indices[k], chain.values[k]);
  }
  return prefix;
}

// Runs one learner to completion, checking every round against a cold
// replay of the chain so far; returns the round records.
std::vector<RoundRecord> RunAndReplay(
    HarmonicSolver solver, size_t n, size_t top_k, bool factored,
    const PoolLearner::KnownLabels* known_labels,
    const PoolLearner::KnownLabels* prior_scores) {
  HarmonicConfig harmonic_config;
  harmonic_config.solver = solver;
  HarmonicFunctionClassifier classifier =
      HarmonicFunctionClassifier::Create(harmonic_config).value();
  RandomSampler sampler;
  ActiveLearnerConfig config;

  const PoolGraph weights = RandomWeights(n, 77, top_k, factored);
  StrangerPool pool = MakePool(n);
  PoolLearner learner =
      PoolLearner::Create(pool, weights, std::vector<double>(n, 0.5),
                          std::vector<double>(n, 0.5), config, &classifier,
                          &sampler, known_labels, prior_scores)
          .value();

  // The chain: seeded labels first, in member order, then each round's
  // answers in query order. `steps` holds its size at every solve.
  LabeledSet chain;
  std::vector<size_t> steps;
  if (known_labels != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      auto it = known_labels->find(pool.members[i]);
      if (it != known_labels->end()) chain.Add(i, it->second);
    }
    if (chain.size() > 0) steps.push_back(chain.size());
  }
  // The cross-tick seed, as PoolLearner builds it when every member has
  // a prior score.
  std::vector<double> seed;
  if (prior_scores != nullptr) {
    for (UserId member : pool.members) {
      seed.push_back(prior_scores->at(member));
    }
  }

  IdOracle oracle;
  Rng rng(1234);
  std::vector<RoundRecord> rounds;
  size_t answered = 0;
  while (!learner.finished()) {
    RoundRecord record = learner.RunRound(&oracle, &rng).value();
    rounds.push_back(record);
    EXPECT_GT(record.newly_labeled, 0u) << "round " << record.round;
    for (; answered < oracle.answers().size(); ++answered) {
      const auto& [stranger, label] = oracle.answers()[answered];
      chain.Add(stranger - kFirstMember, RiskLabelValue(label));
    }
    steps.push_back(chain.size());

    std::unique_ptr<ClassifierState> state = classifier.MakeState();
    if (!seed.empty()) state->SeedSolution(seed);
    std::vector<double> replayed;
    SolveStats stats;
    for (size_t size : steps) {
      replayed = classifier
                     .PredictWithState(weights, Prefix(chain, size),
                                       state.get(), &stats)
                     .value();
    }
    EXPECT_EQ(replayed, learner.predictions()) << "round " << record.round;
    EXPECT_EQ(stats.solver, record.solver) << "round " << record.round;
    EXPECT_EQ(stats.iterations, record.solve_iterations)
        << "round " << record.round;
  }
  return rounds;
}

struct EquivalenceCase {
  HarmonicSolver solver;
  bool factored;  // a factored PS graph instead of a random CSR
  size_t n;
  size_t top_k;
  const char* name;
};

class WarmColdEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(WarmColdEquivalenceTest, FullRunHistoriesMatch) {
  const EquivalenceCase& c = GetParam();
  EXPECT_GT(
      RunAndReplay(c.solver, c.n, c.top_k, c.factored, nullptr, nullptr)
          .size(),
      1u);
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
    prior_scores[static_cast<UserId>(kFirstMember + i)] =
        1.0 + static_cast<double>((i * 13) % 200) / 100.0;
  }
  EXPECT_GT(
      RunAndReplay(c.solver, c.n, c.top_k, c.factored, &known_labels,
                   &prior_scores)
          .size(),
      0u);
}

INSTANTIATE_TEST_SUITE_P(
    SolversAndGraphs, WarmColdEquivalenceTest,
    ::testing::Values(
        EquivalenceCase{HarmonicSolver::kGaussSeidel, false, 60, 0,
                        "GsDense"},
        EquivalenceCase{HarmonicSolver::kGaussSeidel, false, 60, 8,
                        "GsTopK8"},
        EquivalenceCase{HarmonicSolver::kConjugateGradient, false, 60, 0,
                        "CgDense"},
        EquivalenceCase{HarmonicSolver::kConjugateGradient, false, 60, 8,
                        "CgTopK8"},
        EquivalenceCase{HarmonicSolver::kAuto, false, 160, 8, "AutoTopK8"},
        EquivalenceCase{HarmonicSolver::kGaussSeidel, true, 60, 0,
                        "GsFactored"},
        EquivalenceCase{HarmonicSolver::kConjugateGradient, true, 60, 0,
                        "CgFactored"},
        EquivalenceCase{HarmonicSolver::kAuto, true, 160, 0,
                        "AutoFactored"}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(WarmColdRecordTest, RoundRecordsNameTheSolverUsed) {
  // kAuto on a large pool starts on CG and may hand over to GS as the
  // unlabeled set shrinks below the threshold; every record must name a
  // concrete solver either way.
  std::vector<RoundRecord> rounds =
      RunAndReplay(HarmonicSolver::kAuto, 160, 8, false, nullptr, nullptr);
  ASSERT_FALSE(rounds.empty());
  EXPECT_EQ(rounds.front().solver, "conjugate-gradient");
  for (const RoundRecord& record : rounds) {
    EXPECT_TRUE(record.solver == "gauss-seidel" ||
                record.solver == "conjugate-gradient")
        << record.solver;
  }
}

}  // namespace
}  // namespace sight
