// Helpers shared by the tests of a dense pool's factored PS graph: a
// generated factored graph, and the checks that hold one against another
// build of the same pool — every pair bit for bit through Get(), and the
// harmonic solve within 1e-9 with the same rounded labels.

#ifndef SIGHT_TESTS_LEARNING_POOL_GRAPH_TESTING_H_
#define SIGHT_TESTS_LEARNING_POOL_GRAPH_TESTING_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "learning/classifier.h"
#include "learning/factored_ps_graph.h"
#include "learning/harmonic.h"
#include "learning/pool_graph.h"

namespace sight {

/// Both solves of a pair of graphs may differ by rounding only.
constexpr double kSolveTolerance = 1e-9;

/// `n` pseudo-random code rows over kRandomAttributes attributes with
/// 2-5 values each (codes 1..5; one value in eight missing, code 0), so
/// profiles repeat and PS values tie.
constexpr size_t kRandomAttributes = 4;
inline std::vector<uint32_t> RandomCodeRows(size_t n, uint64_t seed) {
  uint64_t state = seed;
  auto next = [&state](uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  std::vector<uint32_t> rows(n * kRandomAttributes);
  for (size_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < kRandomAttributes; ++a) {
      rows[i * kRandomAttributes + a] =
          next(8) == 0 ? 0 : static_cast<uint32_t>(1 + next(2 + a));
    }
  }
  return rows;
}

/// The factored PS graph of RandomCodeRows(n, seed), under uniform
/// weights and the rows' own value frequencies.
inline FactoredPsGraph RandomFactoredGraph(size_t n, uint64_t seed) {
  const std::vector<uint32_t> rows = RandomCodeRows(n, seed);
  std::vector<std::vector<double>> freq(
      kRandomAttributes, std::vector<double>(2 + kRandomAttributes));
  for (size_t a = 0; a < kRandomAttributes; ++a) {
    double present = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t code = rows[i * kRandomAttributes + a];
      if (code == 0) continue;
      freq[a][code] += 1.0;
      present += 1.0;
    }
    for (double& f : freq[a]) f = present > 0.0 ? f / present : 0.0;
  }
  const std::vector<double> weights(kRandomAttributes, 1.0 / kRandomAttributes);
  const std::vector<std::span<const double>> spans(freq.begin(), freq.end());
  return FactoredPsGraph(rows.data(), n, weights, spans);
}

/// Every pair (i, j) of `got` against `want` through Get(), bit for bit,
/// diagonal included. `Reference` is any type with size() and Get().
template <typename Reference>
void ExpectSamePairs(const PoolGraph& got, const Reference& want,
                     const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    for (size_t j = 0; j < got.size(); ++j) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got.Get(i, j)),
                std::bit_cast<uint64_t>(want.Get(i, j)))
          << label << " pair (" << i << ", " << j << ")";
    }
  }
}

/// A labeled set of `count` members spread over [0, n), labels 1-3.
inline LabeledSet SpreadLabels(size_t n, size_t count) {
  LabeledSet labeled;
  count = std::min(count, n);
  for (size_t k = 0; k < count; ++k) {
    const size_t i = k * n / count;
    labeled.Add(i, 1.0 + static_cast<double>((i * 7 + k) % 3));
  }
  return labeled;
}

/// The largest |a[i] - b[i]|; the vectors have one size.
inline double MaxAbsDiff(const std::vector<double>& a,
                         const std::vector<double>& b) {
  double diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::fabs(a[i] - b[i]));
  }
  return diff;
}

/// Gauss-Seidel, conjugate gradient and kAuto on `got` and on `want`
/// from the same labels: scores within kSolveTolerance, the same
/// rounded labels, and the same solver.
inline void ExpectSameSolves(const PoolGraph& got, const PoolGraph& want,
                             const LabeledSet& labeled,
                             const std::string& label) {
  for (HarmonicSolver solver :
       {HarmonicSolver::kGaussSeidel, HarmonicSolver::kConjugateGradient,
        HarmonicSolver::kAuto}) {
    HarmonicConfig config;
    config.solver = solver;
    const HarmonicFunctionClassifier classifier =
        HarmonicFunctionClassifier::Create(config).value();
    SolveStats got_stats;
    SolveStats want_stats;
    const std::vector<double> f =
        classifier.PredictWithState(got, labeled, nullptr, &got_stats)
            .value();
    const std::vector<double> g =
        classifier.PredictWithState(want, labeled, nullptr, &want_stats)
            .value();
    const std::string where =
        label + " solver " + std::to_string(static_cast<int>(solver));
    ASSERT_EQ(f.size(), g.size()) << where;
    EXPECT_EQ(got_stats.solver, want_stats.solver) << where;
    EXPECT_LE(MaxAbsDiff(f, g), kSolveTolerance) << where;
    for (size_t i = 0; i < f.size(); ++i) {
      ASSERT_EQ(RoundToLabel(f[i], 1, 3), RoundToLabel(g[i], 1, 3))
          << where << " node " << i << ": " << f[i] << " vs " << g[i];
    }
  }
}

}  // namespace sight

#endif  // SIGHT_TESTS_LEARNING_POOL_GRAPH_TESTING_H_
