// Metric-level property sweeps over generated graphs: the axioms the
// similarity measures must satisfy on arbitrary realistic data, not just
// hand-built fixtures.

#include <gtest/gtest.h>

#include "graph/profile_codec.h"
#include "similarity/network_similarity.h"
#include "similarity/profile_similarity.h"
#include "sim/facebook_generator.h"

namespace sight {
namespace {

sim::OwnerDataset MakeDataset(uint64_t seed) {
  sim::GeneratorConfig config;
  config.num_friends = 30;
  config.num_strangers = 120;
  config.num_communities = 3;
  auto gen = sim::FacebookGenerator::Create(config).value();
  Rng rng(seed);
  return gen.Generate({sim::Gender::kMale, sim::Locale::kTR}, &rng).value();
}

class MetricProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricProperty, NetworkSimilarityAxioms) {
  sim::OwnerDataset ds = MakeDataset(GetParam());
  auto ns = NetworkSimilarity::Create(NetworkSimilarityConfig{}).value();
  for (size_t i = 0; i < ds.strangers.size(); i += 7) {
    UserId s = ds.strangers[i];
    double value = ns.Compute(ds.graph, ds.owner, s);
    // Bounds.
    EXPECT_GE(value, 0.0);
    EXPECT_LE(value, 1.0);
    // Symmetry.
    EXPECT_DOUBLE_EQ(value, ns.Compute(ds.graph, s, ds.owner));
    // Positivity iff mutual friends exist (all strangers have >= 1).
    EXPECT_GT(value, 0.0);
  }
  // Two users with no mutual friends score exactly zero.
  UserId isolated = ds.graph.AddUser();
  EXPECT_DOUBLE_EQ(ns.Compute(ds.graph, ds.owner, isolated), 0.0);
}

TEST_P(MetricProperty, NewMutualFriendNeverDecreasesNs) {
  sim::OwnerDataset ds = MakeDataset(GetParam() ^ 0x9999);
  auto ns = NetworkSimilarity::Create(NetworkSimilarityConfig{}).value();
  UserId s = ds.strangers[0];
  double before = ns.Compute(ds.graph, ds.owner, s);
  // Connect the stranger to a friend it does not know yet.
  for (UserId f : ds.friends) {
    if (!ds.graph.HasEdge(s, f)) {
      ASSERT_TRUE(ds.graph.AddEdge(s, f).ok());
      break;
    }
  }
  double after = ns.Compute(ds.graph, ds.owner, s);
  // A new mutual friend raises the count term; density may shift either
  // way, but with the default 0.7 count weight the sum must not drop by
  // more than the density weight — and for a fresh (degree-1-into-the-
  // community) friend it practically always rises. Assert the weaker,
  // always-true form plus the bound.
  EXPECT_GT(after, 0.0);
  EXPECT_GE(after, before - 0.3);  // density term weight bound
}

TEST_P(MetricProperty, ProfileSimilarityAxioms) {
  sim::OwnerDataset ds = MakeDataset(GetParam() ^ 0x5555);
  EncodedProfileTable enc =
      EncodedProfileTable::Build(ds.profiles, ds.strangers);
  ValueFrequencyTable freqs = ValueFrequencyTable::BuildFromCodes(
      enc.row(0), enc.num_rows(), enc.num_attributes());
  auto ps = ProfileSimilarity::Create(ds.profiles.schema()).value();
  for (size_t i = 0; i + 1 < enc.num_rows(); i += 9) {
    const uint32_t* a = enc.row(i);
    const uint32_t* b = enc.row(i + 1);
    double sim = ps.Compute(a, b, freqs);
    EXPECT_GE(sim, 0.0);
    EXPECT_LE(sim, 1.0 + 1e-12);
    // Symmetry.
    EXPECT_DOUBLE_EQ(sim, ps.Compute(b, a, freqs));
    // Self-similarity dominates pair similarity.
    double self_sim = ps.Compute(a, a, freqs);
    EXPECT_GE(self_sim + 1e-12, sim);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricProperty,
                         ::testing::Values<uint64_t>(3, 14, 159, 2653));

}  // namespace
}  // namespace sight
