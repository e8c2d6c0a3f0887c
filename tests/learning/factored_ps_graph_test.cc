// FactoredPsGraph against the pairwise PS it factors.
//
// Every pair it reads through Get() must be ProfileSimilarity::Compute's
// bits; its degrees and products W x must match a naive O(n^2) sum over
// those pairs within 1e-12 relative; and a harmonic solve on it must
// match the solve on the CSR of the same pool within 1e-9, with the same
// rounded labels. Pools run from 0 rows up to about 1,100, tie-heavy,
// with all-missing rows, a single-valued attribute and a member that
// shares no present attribute with anyone. Recoding a pool's dictionary
// must not change a single bit.

#include "learning/factored_ps_graph.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/profile.h"
#include "learning/baselines.h"
#include "learning/harmonic.h"
#include "learning/multiclass_harmonic.h"
#include "learning/pool_graph.h"
#include "learning/pool_graph_testing.h"
#include "similarity/profile_similarity.h"
#include "util/random.h"

namespace sight {
namespace {

constexpr size_t kAttributes = 5;

// One pool: row-major code rows (0 = missing), its PS and frequencies.
struct Pool {
  Pool(std::vector<uint32_t> codes, std::vector<double> weights)
      : rows(std::move(codes)),
        ps(ProfileSimilarity::Create(Schema(weights.size()), weights)
               .value()),
        freqs(ValueFrequencyTable::BuildFromCodes(
            rows.data(), rows.size() / ps.normalized_weights().size(),
            ps.normalized_weights().size())) {}

  static ProfileSchema Schema(size_t attributes) {
    std::vector<std::string> names;
    for (size_t a = 0; a < attributes; ++a) {
      names.push_back("a" + std::to_string(a));
    }
    return ProfileSchema::Create(names).value();
  }

  size_t attributes() const { return ps.normalized_weights().size(); }
  size_t size() const { return rows.size() / attributes(); }
  const uint32_t* row(size_t i) const { return rows.data() + i * attributes(); }

  FactoredPsGraph Factored() const {
    std::vector<std::span<const double>> frequencies;
    for (size_t a = 0; a < attributes(); ++a) {
      frequencies.emplace_back(
          freqs.FrequencyArray(static_cast<AttributeId>(a)));
    }
    return FactoredPsGraph(rows.data(), size(), ps.normalized_weights(),
                           frequencies);
  }

  // The naive O(n^2) reference: Compute per pair, compacted to CSR.
  SimilarityMatrix ReferenceCsr() const {
    SimilarityTriangle t(size());
    for (size_t i = 0; i < size(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        t.Set(i, j, ps.Compute(row(i), row(j), freqs));
      }
    }
    return std::move(t).Compact();
  }

  std::vector<uint32_t> rows;
  ProfileSimilarity ps;
  ValueFrequencyTable freqs;
};

const std::vector<double> kWeights = {0.35, 0.25, 0.2, 0.15, 0.05};

// n rows over kAttributes attributes with `distinct` values each
// (attribute 4 single-valued), so values and PS values tie often. About
// one row in eight is all missing, and one value in ten is missing.
std::vector<uint32_t> RandomRows(size_t n, uint64_t seed, int64_t distinct) {
  Rng rng(seed);
  std::vector<uint32_t> rows(n * kAttributes, 0);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(1.0 / 8.0)) continue;
    for (size_t a = 0; a < kAttributes; ++a) {
      if (rng.Bernoulli(0.1)) continue;
      const int64_t top =
          a == kAttributes - 1 ? 1 : distinct + static_cast<int64_t>(a);
      rows[i * kAttributes + a] =
          static_cast<uint32_t>(rng.UniformInt(1, top));
    }
  }
  return rows;
}

// Applies a per-attribute code bijection to every present code.
std::vector<uint32_t> Recode(std::vector<uint32_t> rows,
                             const std::vector<uint32_t>& map) {
  for (uint32_t& code : rows) {
    if (code != 0) code = map[code];
  }
  return rows;
}

// W x by the naive O(n^2) sum over Get(), and the sum of |W_ij x_j| per
// row: the scale a rounding error is measured against.
void NaiveApply(const FactoredPsGraph& g, const std::vector<double>& x,
                std::vector<double>* out, std::vector<double>* scale) {
  out->assign(g.size(), 0.0);
  scale->assign(g.size(), 0.0);
  for (size_t i = 0; i < g.size(); ++i) {
    for (size_t j = 0; j < g.size(); ++j) {
      const double w = g.Get(i, j);
      (*out)[i] += w * x[j];
      (*scale)[i] += std::fabs(w * x[j]);
    }
  }
}

void ExpectNear(const std::vector<double>& got,
                const std::vector<double>& want,
                const std::vector<double>& scale, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_LE(std::fabs(got[i] - want[i]), 1e-12 * std::max(1.0, scale[i]))
        << label << " member " << i;
  }
}

std::vector<double> RandomVector(size_t n, uint64_t seed, double lo,
                                 double hi) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = rng.UniformDouble(lo, hi);
  return x;
}

const size_t kSizes[] = {0, 1, 2, 3, 17, 60, 129, 300, 1100};

TEST(FactoredPsGraphTest, GetIsProfileSimilarityBitwise) {
  for (size_t n : kSizes) {
    Pool pool(RandomRows(n, 11 + n, 3), kWeights);
    const FactoredPsGraph g = pool.Factored();
    ASSERT_EQ(g.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(g.Get(i, i)),
                std::bit_cast<uint64_t>(0.0));
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        ASSERT_EQ(std::bit_cast<uint64_t>(g.Get(i, j)),
                  std::bit_cast<uint64_t>(
                      pool.ps.Compute(pool.row(i), pool.row(j), pool.freqs)))
            << "n=" << n << " pair (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(FactoredPsGraphTest, DegreesAndApplyMatchNaiveSums) {
  for (size_t n : kSizes) {
    for (int64_t distinct : {int64_t{2}, int64_t{40}}) {
      const std::string label =
          "n=" + std::to_string(n) + " distinct=" + std::to_string(distinct);
      Pool pool(RandomRows(n, 23 + n, distinct), kWeights);
      const FactoredPsGraph g = pool.Factored();
      std::vector<double> want;
      std::vector<double> scale;
      NaiveApply(g, std::vector<double>(n, 1.0), &want, &scale);
      ExpectNear(g.Degrees(), want, scale, label + " degrees");

      FactoredPsGraph::Scratch scratch;
      std::vector<double> got(n);
      for (auto [lo, hi] : {std::pair{1.0, 3.0}, std::pair{-2.0, 2.0}}) {
        const std::vector<double> x = RandomVector(n, 7 + n, lo, hi);
        g.Apply(x, got, &scratch);
        NaiveApply(g, x, &want, &scale);
        ExpectNear(got, want, scale, label + " W x");
      }
    }
  }
}

// Move() keeps Row() in step with x: after a run of single-member moves,
// every row reads what a fresh product of the moved x gives.
TEST(FactoredPsGraphTest, RunningProductFollowsMoves) {
  const size_t n = 300;
  Pool pool(RandomRows(n, 5, 4), kWeights);
  const FactoredPsGraph g = pool.Factored();
  std::vector<double> x = RandomVector(n, 9, 1.0, 3.0);
  FactoredPsGraph::RunningProduct running(g);
  running.Reset(x);
  Rng rng(13);
  for (int step = 0; step < 500; ++step) {
    const size_t u = static_cast<size_t>(rng.UniformInt(0, int64_t{n} - 1));
    const double delta = rng.UniformDouble(-1.0, 1.0);
    running.Move(u, delta);
    x[u] += delta;
  }
  std::vector<double> want;
  std::vector<double> scale;
  NaiveApply(g, x, &want, &scale);
  std::vector<double> got(n);
  for (size_t u = 0; u < n; ++u) got[u] = running.Row(u, x[u]);
  ExpectNear(got, want, scale, "running rows");
}

// Member 0 is present only on attribute 0, where everyone else is
// missing; member 1 has no values at all. Both degrees are exactly 0.
TEST(FactoredPsGraphTest, MemberSharingNoAttributeHasZeroDegree) {
  const size_t n = 40;
  std::vector<uint32_t> rows = RandomRows(n, 31, 3);
  for (size_t i = 0; i < n; ++i) rows[i * kAttributes] = 0;
  for (size_t a = 0; a < kAttributes; ++a) {
    rows[a] = 0;
    rows[kAttributes + a] = 0;
  }
  rows[0] = 2;
  for (size_t a = 1; a < kAttributes; ++a) rows[2 * kAttributes + a] = 1;
  Pool pool(rows, kWeights);
  const FactoredPsGraph g = pool.Factored();
  EXPECT_EQ(std::bit_cast<uint64_t>(g.Degrees()[0]),
            std::bit_cast<uint64_t>(0.0));
  EXPECT_EQ(std::bit_cast<uint64_t>(g.Degrees()[1]),
            std::bit_cast<uint64_t>(0.0));
  EXPECT_GT(g.Degrees()[2], 0.0);
  // An isolated node takes the label mean on both representations.
  const SimilarityMatrix csr = pool.ReferenceCsr();
  EXPECT_EQ(csr.Neighbors(0).size(), 0u);
  ExpectSameSolves(g, csr, SpreadLabels(n, 6), "isolated");
}

// An injective recoding of the pool's codes — a permuted dictionary, a
// reversed one — changes no degree, product or solve bit.
TEST(FactoredPsGraphTest, RecodingChangesNoBit) {
  const size_t n = 500;
  const std::vector<uint32_t> rows = RandomRows(n, 41, 6);
  const uint32_t max_code = *std::max_element(rows.begin(), rows.end());
  std::vector<uint32_t> reversed(max_code + 1);
  std::vector<uint32_t> permuted(max_code + 1);
  for (uint32_t c = 1; c <= max_code; ++c) {
    reversed[c] = max_code + 1 - c;
    permuted[c] = c;
  }
  Rng rng(43);
  std::vector<uint32_t> tail(permuted.begin() + 1, permuted.end());
  rng.Shuffle(&tail);
  std::copy(tail.begin(), tail.end(), permuted.begin() + 1);
  // Sparse codes too: a dictionary with gaps.
  std::vector<uint32_t> spread(max_code + 1);
  for (uint32_t c = 1; c <= max_code; ++c) spread[c] = 1000 - 37 * c;

  const Pool base(rows, kWeights);
  const FactoredPsGraph g = base.Factored();
  const std::vector<double> x = RandomVector(n, 47, 1.0, 3.0);
  FactoredPsGraph::Scratch scratch;
  std::vector<double> gx(n);
  g.Apply(x, gx, &scratch);
  const LabeledSet labeled = SpreadLabels(n, 12);
  for (const auto& [name, map] :
       {std::pair{"reversed", reversed}, std::pair{"permuted", permuted},
        std::pair{"spread", spread}}) {
    const Pool recoded(Recode(rows, map), kWeights);
    const FactoredPsGraph h = recoded.Factored();
    EXPECT_EQ(h.Degrees(), g.Degrees()) << name;
    std::vector<double> hx(n);
    h.Apply(x, hx, &scratch);
    EXPECT_EQ(hx, gx) << name;
    for (HarmonicSolver solver :
         {HarmonicSolver::kGaussSeidel, HarmonicSolver::kConjugateGradient}) {
      HarmonicConfig config;
      config.solver = solver;
      auto classifier = HarmonicFunctionClassifier::Create(config).value();
      EXPECT_EQ(classifier.Predict(h, labeled).value(),
                classifier.Predict(g, labeled).value())
          << name;
    }
  }
}

// Gauss-Seidel, conjugate gradient and kAuto on the factored graph
// against the CSR of the same pool.
TEST(FactoredPsGraphTest, SolvesMatchTheCsrSolves) {
  for (size_t n : {size_t{2}, size_t{17}, size_t{129}, size_t{300},
                   size_t{1100}}) {
    for (int64_t distinct : {int64_t{2}, int64_t{40}}) {
      Pool pool(RandomRows(n, 53 + n, distinct), kWeights);
      const std::string label =
          "n=" + std::to_string(n) + " distinct=" + std::to_string(distinct);
      ExpectSameSolves(pool.Factored(), pool.ReferenceCsr(),
                       SpreadLabels(n, std::max<size_t>(1, n / 25)), label);
    }
  }
}

TEST(FactoredPsGraphTest, KnnIsBitwiseOnBothRepresentations) {
  const size_t n = 300;
  Pool pool(RandomRows(n, 61, 3), kWeights);
  const LabeledSet labeled = SpreadLabels(n, 20);
  auto knn = KnnClassifier::Create(5).value();
  EXPECT_EQ(knn.Predict(pool.Factored(), labeled).value(),
            knn.Predict(pool.ReferenceCsr(), labeled).value());
}

TEST(FactoredPsGraphTest, ClassMassNormalizationMatchesTheCsr) {
  const size_t n = 300;
  Pool pool(RandomRows(n, 67, 3), kWeights);
  const LabeledSet labeled = SpreadLabels(n, 20);
  auto cmn =
      MulticlassHarmonicClassifier::Create(MulticlassHarmonicConfig{}).value();
  const std::vector<double> f = cmn.Predict(pool.Factored(), labeled).value();
  const std::vector<double> g =
      cmn.Predict(pool.ReferenceCsr(), labeled).value();
  EXPECT_LE(MaxAbsDiff(f, g), kSolveTolerance);
}

}  // namespace
}  // namespace sight
