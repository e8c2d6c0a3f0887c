// The code-keyed paths must reproduce independent string references —
// not approximately, but bitwise: PS values and end-to-end learner
// predictions against a naive string PS, Squeezer assignments against a
// naive string Squeezer, including all-missing profiles and values
// outside the pool the frequencies were built from. The one exception is
// a dense pool's solve: its graph is factored, and sums the same PS
// values in another order. There every pair the graph reads must still
// be the string PS bit for bit, the queries and labels must match
// exactly, and the scores within 1e-9.

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "clustering/squeezer.h"
#include "core/active_learner.h"
#include "core/pool_builder.h"
#include "graph/profile_codec.h"
#include "learning/harmonic.h"
#include "learning/pool_graph_testing.h"
#include "learning/sampling.h"
#include "sim/facebook_generator.h"
#include "similarity/profile_similarity.h"
#include "similarity/ps_kernels.h"

namespace sight {
namespace {

using sim::FacebookGenerator;
using sim::Gender;
using sim::GeneratorConfig;
using sim::Locale;
using sim::OwnerDataset;

OwnerDataset MakeDataset(uint64_t seed, size_t strangers = 150) {
  GeneratorConfig config;
  config.num_friends = 40;
  config.num_strangers = strangers;
  config.num_communities = 4;
  auto gen = FacebookGenerator::Create(config).value();
  Rng rng(seed);
  return gen.Generate({Gender::kFemale, Locale::kUS}, &rng).value();
}

// Appends users that stress the encoding edge cases: one with every value
// missing and one whose values appear nowhere else in the table.
std::vector<UserId> WithEdgeCaseUsers(ProfileTable* table,
                                      std::vector<UserId> users) {
  UserId all_missing = table->user_id_bound() + 1;
  UserId exotic = all_missing + 1;
  size_t n = table->schema().num_attributes();
  Profile exotic_profile;
  for (size_t a = 0; a < n; ++a) {
    exotic_profile.values.push_back("zz-novel-" + std::to_string(a));
  }
  EXPECT_TRUE(table->Set(exotic, std::move(exotic_profile)).ok());
  // `all_missing` is never Set: the table serves its all-missing default.
  users.push_back(all_missing);
  users.push_back(exotic);
  return users;
}

// String-only PS (Section III-C), kept deliberately naive as the
// reference for the code-indexed implementation: string compares, and
// per-attribute value counts over the pool in unordered_maps.
class NaiveStringPs {
 public:
  NaiveStringPs(const ProfileTable& table, const std::vector<UserId>& pool,
                std::vector<double> weights)
      : table_(table), weights_(std::move(weights)),
        counts_(weights_.size()), totals_(weights_.size(), 0) {
    for (UserId u : pool) {
      const Profile& profile = table.Get(u);
      for (AttributeId a = 0; a < weights_.size(); ++a) {
        if (profile.IsMissing(a)) continue;
        ++counts_[a][profile.value(a)];
        ++totals_[a];
      }
    }
  }

  double Compute(UserId u, UserId v) const {
    const Profile& a = table_.Get(u);
    const Profile& b = table_.Get(v);
    double total = 0.0;
    for (AttributeId attr = 0; attr < weights_.size(); ++attr) {
      if (a.IsMissing(attr) || b.IsMissing(attr)) continue;
      const std::string& va = a.value(attr);
      const std::string& vb = b.value(attr);
      double sim = va == vb ? 1.0
                            : std::min(Frequency(attr, va),
                                       Frequency(attr, vb));
      total += weights_[attr] * sim;
    }
    return total;
  }

 private:
  double Frequency(AttributeId attr, const std::string& value) const {
    auto it = counts_[attr].find(value);
    if (it == counts_[attr].end()) return 0.0;
    return static_cast<double>(it->second) /
           static_cast<double>(totals_[attr]);
  }

  const ProfileTable& table_;
  std::vector<double> weights_;
  std::vector<std::unordered_map<std::string, size_t>> counts_;
  std::vector<size_t> totals_;
};

TEST(EncodedEquivalenceTest, PairwiseSimilarityIsBitwiseIdentical) {
  OwnerDataset ds = MakeDataset(211);
  std::vector<UserId> pool =
      WithEdgeCaseUsers(&ds.profiles, ds.strangers);

  EncodedProfileTable enc = EncodedProfileTable::Build(ds.profiles, pool);
  ValueFrequencyTable freqs = ValueFrequencyTable::BuildFromCodes(
      enc.row(0), enc.num_rows(), enc.num_attributes());
  auto ps = ProfileSimilarity::Create(ds.profiles.schema()).value();
  NaiveStringPs reference(ds.profiles, pool, ps.normalized_weights());

  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = i + 1; j < pool.size(); ++j) {
      // EXPECT_EQ, not EXPECT_NEAR: the encoded path must reproduce the
      // exact same IEEE operations.
      EXPECT_EQ(reference.Compute(pool[i], pool[j]),
                ps.Compute(enc.row(i), enc.row(j), freqs))
          << "pair (" << pool[i] << ", " << pool[j] << ")";
    }
  }
}

TEST(EncodedEquivalenceTest, OutOfDictionaryValuesMatchStringPath) {
  OwnerDataset ds = MakeDataset(223);
  // Frequencies come from a pool that excludes the edge-case users, so
  // the exotic user's values are outside the frequency dictionary.
  std::vector<UserId> pool = ds.strangers;
  std::vector<UserId> all = WithEdgeCaseUsers(&ds.profiles, pool);

  // One table encodes the pool's rows first; the exotic user's novel
  // values then get codes past the frequency arrays built from the
  // pool's rows only (frequency 0, like a string-map miss).
  EncodedProfileTable enc = EncodedProfileTable::Build(ds.profiles, all);
  ValueFrequencyTable freqs = ValueFrequencyTable::BuildFromCodes(
      enc.row(0), pool.size(), enc.num_attributes());
  auto ps = ProfileSimilarity::Create(ds.profiles.schema()).value();
  NaiveStringPs reference(ds.profiles, pool, ps.normalized_weights());

  for (size_t i = pool.size(); i < all.size(); ++i) {
    for (size_t j = 0; j < all.size(); ++j) {
      if (i == j) continue;
      EXPECT_EQ(reference.Compute(all[i], all[j]),
                ps.Compute(enc.row(i), enc.row(j), freqs))
          << "pair (" << all[i] << ", " << all[j] << ")";
    }
  }
}

// String-only reimplementation of Squeezer's one-pass loop, kept
// deliberately naive (unordered_map supports, no codec) as the reference
// for the code-indexed implementation.
std::vector<size_t> NaiveSqueezerAssignments(const ProfileTable& table,
                                             const std::vector<UserId>& users,
                                             const std::vector<double>& weights,
                                             double threshold) {
  size_t n = table.schema().num_attributes();
  struct NaiveSummary {
    std::vector<std::unordered_map<std::string, size_t>> supports;
    std::vector<size_t> totals;
  };
  std::vector<NaiveSummary> clusters;
  std::vector<size_t> assignments;
  for (UserId u : users) {
    const Profile& profile = table.Get(u);
    double best_sim = -1.0;
    size_t best = 0;
    for (size_t c = 0; c < clusters.size(); ++c) {
      double sim = 0.0;
      for (AttributeId a = 0; a < n; ++a) {
        if (profile.IsMissing(a)) continue;
        size_t total = clusters[c].totals[a];
        if (total == 0) continue;
        auto it = clusters[c].supports[a].find(profile.value(a));
        size_t support = it == clusters[c].supports[a].end() ? 0 : it->second;
        sim += weights[a] * (static_cast<double>(support) /
                             static_cast<double>(total));
      }
      if (sim > best_sim) {
        best_sim = sim;
        best = c;
      }
    }
    if (clusters.empty() || best_sim < threshold) {
      clusters.push_back(
          {std::vector<std::unordered_map<std::string, size_t>>(n),
           std::vector<size_t>(n, 0)});
      best = clusters.size() - 1;
    }
    for (AttributeId a = 0; a < n; ++a) {
      if (profile.IsMissing(a)) continue;
      ++clusters[best].supports[a][profile.value(a)];
      ++clusters[best].totals[a];
    }
    assignments.push_back(best);
  }
  return assignments;
}

TEST(EncodedEquivalenceTest, SqueezerAssignmentsMatchNaiveStringReference) {
  OwnerDataset ds = MakeDataset(227, 250);
  std::vector<UserId> users = WithEdgeCaseUsers(&ds.profiles, ds.strangers);
  size_t n = ds.profiles.schema().num_attributes();
  std::vector<double> uniform(n, 1.0 / static_cast<double>(n));

  for (double threshold : {0.2, 0.4, 0.7}) {
    SqueezerConfig config;
    config.threshold = threshold;
    // IncrementalSqueezer with empty weights gets exactly 1/n per
    // attribute, matching the reference's weights bitwise.
    auto incremental =
        IncrementalSqueezer::Create(ds.profiles.schema(), config).value();
    std::vector<size_t> assignments =
        incremental.AddBatch(ds.profiles, users).value();
    std::vector<size_t> expected =
        NaiveSqueezerAssignments(ds.profiles, users, uniform, threshold);
    EXPECT_EQ(assignments, expected) << "threshold " << threshold;
  }
}

// Deterministic, stateless oracle so the encoded and string runs can
// share it without coupling their query sequences through hidden state.
class CyclicOracle : public LabelOracle {
 public:
  RiskLabel QueryLabel(UserId stranger, double, double) override {
    return static_cast<RiskLabel>(kRiskLabelMin +
                                  static_cast<int>(stranger % 3));
  }
};

// Runs the production ActiveLearner over `strategy` pools and replays the
// same pools on matrices from the naive string PS; expects identical
// queries and labels. With top_k > 0 the learner streams each pool's
// pairs into its top-k graph, the string side cuts its full triangle
// with SparsifyTopK, and the predictions must match bitwise. With
// top_k == 0 the learner solves on each pool's factored graph: every
// pair it reads must equal the string PS bit for bit, and the
// predictions the solves on the string side's CSR within 1e-9.
void ExpectLearnerMatchesStringPath(const OwnerDataset& ds,
                                    PoolStrategy strategy, size_t top_k) {
  PoolBuilderConfig pool_config;
  pool_config.strategy = strategy;
  auto builder = PoolBuilder::Create(pool_config).value();
  PoolSet pools = builder.Build(ds.graph, ds.profiles, ds.owner).value();
  std::vector<double> benefits(pools.strangers.size(), 0.5);

  auto classifier =
      HarmonicFunctionClassifier::Create(HarmonicConfig{}).value();
  RandomSampler sampler;
  ActiveLearnerConfig config;
  config.sparsify_top_k = top_k;

  // Encoded path: the production ActiveLearner (its matrix fill runs on
  // the dictionary-encoded view).
  auto learner = ActiveLearner::Create(pools, ds.profiles, benefits, config,
                                       &classifier, &sampler)
                     .value();
  CyclicOracle oracle;
  Rng rng(331);
  AssessmentResult encoded_result = learner.Run(&oracle, &rng).value();

  // String path: rebuild every pool's weight matrix with the naive
  // string PS, then drive identical PoolLearners through the same round
  // loop with a same-seeded Rng.
  std::unordered_map<UserId, size_t> position;
  for (size_t i = 0; i < pools.strangers.size(); ++i) {
    position[pools.strangers[i]] = i;
  }
  auto ps = ProfileSimilarity::Create(ds.profiles.schema()).value();
  std::vector<StrangerAssessment> string_strangers;
  size_t string_queries = 0;
  size_t largest_pool = 0;
  bool cut_dropped_edges = false;
  Rng string_rng(331);
  for (size_t p = 0; p < pools.pools.size(); ++p) {
    const StrangerPool& pool = pools.pools[p];
    size_t n = pool.members.size();
    NaiveStringPs reference(ds.profiles, pool.members,
                            ps.normalized_weights());
    SimilarityTriangle dense(n);
    std::vector<double> sims(n), bens(n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        dense.Set(i, j, reference.Compute(pool.members[i], pool.members[j]));
      }
      size_t pos = position.at(pool.members[i]);
      sims[i] = pools.network_similarities[pos];
      bens[i] = benefits[pos];
    }
    largest_pool = std::max(largest_pool, n);
    if (top_k == 0) {
      // The factored graph ActiveLearner builds for this pool.
      const EncodedProfileTable enc =
          EncodedProfileTable::Build(ds.profiles, pool.members);
      std::vector<PoolGraph> graphs = ps_kernels::BuildGraphs(
          {ps_kernels::PoolRows{enc.row(0), enc.num_rows()}}, ps, 0);
      ASSERT_NE(graphs.at(0).factored(), nullptr);
      ExpectSamePairs(graphs.at(0), dense, "pool " + std::to_string(p));
    }
    SimilarityMatrix weights;
    if (top_k > 0) {
      weights = dense.SparsifyTopK(top_k);
      cut_dropped_edges |= weights.NumEdges() < dense.NumEdges();
    } else {
      weights = std::move(dense).Compact();
    }
    auto pool_learner =
        PoolLearner::Create(pool, std::move(weights), std::move(sims),
                            std::move(bens), config, &classifier, &sampler)
            .value();
    ASSERT_TRUE(pool_learner.RunToCompletion(&oracle, &string_rng).ok());
    string_queries += pool_learner.num_queries();
    for (size_t i = 0; i < pool.members.size(); ++i) {
      StrangerAssessment sa;
      sa.stranger = pool.members[i];
      sa.predicted_score = pool_learner.predictions()[i];
      sa.predicted_label = pool_learner.PredictedLabel(i);
      sa.owner_labeled = pool_learner.IsOwnerLabeled(i);
      string_strangers.push_back(sa);
    }
  }

  // Identical weights mean identical sampling, identical queries, and
  // predictions that are bitwise identical on one representation and
  // differ by rounding only across the two.
  EXPECT_EQ(encoded_result.total_queries, string_queries);
  ASSERT_EQ(encoded_result.strangers.size(), string_strangers.size());
  for (size_t i = 0; i < string_strangers.size(); ++i) {
    const StrangerAssessment& a = encoded_result.strangers[i];
    const StrangerAssessment& b = string_strangers[i];
    EXPECT_EQ(a.stranger, b.stranger);
    if (top_k > 0) {
      EXPECT_EQ(a.predicted_score, b.predicted_score) << "stranger " << i;
    } else {
      EXPECT_NEAR(a.predicted_score, b.predicted_score, kSolveTolerance)
          << "stranger " << i;
    }
    EXPECT_EQ(a.predicted_label, b.predicted_label);
    EXPECT_EQ(a.owner_labeled, b.owner_labeled);
  }
  if (top_k > 0) {
    // Not vacuous: some pool is large enough for the cut to matter (and
    // it did drop edges), and some score comes from a solve rather than
    // an owner label.
    EXPECT_GT(largest_pool, top_k + 1);
    EXPECT_TRUE(cut_dropped_edges);
    EXPECT_TRUE(std::any_of(
        string_strangers.begin(), string_strangers.end(),
        [](const StrangerAssessment& sa) { return !sa.owner_labeled; }));
  }
}

TEST(EncodedEquivalenceTest, LearnerPredictionsMatchStringPath) {
  OwnerDataset ds = MakeDataset(229, 200);
  // Here the owner labels every member of the small NSG x Squeezer
  // pools, so only the NSG-only pools leave strangers whose predicted
  // scores depend on the matrices.
  for (PoolStrategy strategy :
       {PoolStrategy::kNetworkAndProfile, PoolStrategy::kNetworkOnly}) {
    SCOPED_TRACE(strategy == PoolStrategy::kNetworkOnly ? "NSG-only pools"
                                                        : "NSG x Squeezer");
    ExpectLearnerMatchesStringPath(ds, strategy, 0);
  }
  // Top-8 graphs: ActiveLearner streams the NSG-only pools through its
  // cross-pool stripe scheduler into compacted top-k graphs.
  SCOPED_TRACE("NSG-only pools, top-8");
  ExpectLearnerMatchesStringPath(ds, PoolStrategy::kNetworkOnly, 8);
}

}  // namespace
}  // namespace sight
