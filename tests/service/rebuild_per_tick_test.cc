// The rebuild-per-tick single-owner flow: a one-shard RiskService with
// every cross-tick carry off, driven by AssessSync. Pools are rebuilt
// from scratch on every tick (so new strangers and changed similarities
// are reflected), but every owner answer ever given is remembered and
// re-seeded into the rebuilt pools — the oracle is never asked about the
// same stranger twice.

#include <limits>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "service/risk_service.h"
#include "sim/facebook_generator.h"
#include "sim/owner_model.h"

namespace sight {
namespace {

sim::OwnerDataset MakeDataset(uint64_t seed, size_t strangers = 200) {
  sim::GeneratorConfig config;
  config.num_friends = 40;
  config.num_strangers = strangers;
  config.num_communities = 4;
  auto gen = sim::FacebookGenerator::Create(config).value();
  Rng rng(seed);
  return gen.Generate({sim::Gender::kMale, sim::Locale::kTR}, &rng).value();
}

sim::OwnerModel MakeOracle(const sim::OwnerDataset& ds, uint64_t seed) {
  Rng attitude_rng(seed);
  sim::OwnerAttitude attitude = sim::SampleOwnerAttitude(&attitude_rng);
  return sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
      .value();
}

// Counts every query and forbids repeats.
class StrictOracle : public LabelOracle {
 public:
  explicit StrictOracle(sim::OwnerModel* model) : model_(model) {}

  RiskLabel QueryLabel(UserId stranger, double similarity,
                       double benefit) override {
    EXPECT_TRUE(asked_.insert(stranger).second)
        << "stranger " << stranger << " was asked twice";
    ++queries_;
    return model_->QueryLabel(stranger, similarity, benefit);
  }

  size_t queries() const { return queries_; }
  const std::set<UserId>& asked() const { return asked_; }

 private:
  sim::OwnerModel* model_;
  std::set<UserId> asked_;
  size_t queries_ = 0;
};

// A one-shard service with all three carries off and no owners yet.
std::unique_ptr<RiskService> EmptyRebuildPerTickService() {
  RiskServiceConfig config;
  config.engine.pools.attribute_weights = sim::PaperAttributeWeights();
  config.num_shards = 1;
  config.carry_learners = false;
  config.carry_pool_partition = false;
  config.carry_encoded_tables = false;
  return RiskService::Create(std::move(config)).value();
}

OwnerRegistration Registration(const sim::OwnerDataset& ds) {
  OwnerRegistration registration;
  registration.owner = ds.owner;
  registration.graph = &ds.graph;
  registration.profiles = &ds.profiles;
  registration.visibility = &ds.visibility;
  return registration;
}

// `ds.owner` registered on EmptyRebuildPerTickService(); no oracle, since
// AssessSync takes one per call.
std::unique_ptr<RiskService> RebuildPerTickService(
    const sim::OwnerDataset& ds) {
  auto service = EmptyRebuildPerTickService();
  EXPECT_TRUE(service->RegisterOwner(Registration(ds)).ok());
  return service;
}

std::vector<UserId> Slice(const std::vector<UserId>& all, size_t begin,
                          size_t end) {
  return std::vector<UserId>(all.begin() + static_cast<ptrdiff_t>(begin),
                             all.begin() + static_cast<ptrdiff_t>(end));
}

TEST(RebuildPerTickTest, CreateValidates) {
  sim::OwnerDataset ds = MakeDataset(1);
  auto service = EmptyRebuildPerTickService();

  OwnerRegistration no_graph = Registration(ds);
  no_graph.graph = nullptr;
  EXPECT_FALSE(service->RegisterOwner(no_graph).ok());

  OwnerRegistration bad_owner = Registration(ds);
  bad_owner.owner = 999999;
  EXPECT_FALSE(service->RegisterOwner(bad_owner).ok());

  EXPECT_TRUE(service->RegisterOwner(Registration(ds)).ok());
}

TEST(RebuildPerTickTest, AddStrangersValidatesAndDeduplicates) {
  sim::OwnerDataset ds = MakeDataset(2);
  auto service = RebuildPerTickService(ds);
  EXPECT_FALSE(service->AddStrangers(ds.owner, {ds.owner}).ok());
  EXPECT_FALSE(service->AddStrangers(ds.owner, {9999999}).ok());
  ASSERT_TRUE(
      service->AddStrangers(ds.owner, {ds.strangers[0], ds.strangers[1]})
          .ok());
  ASSERT_TRUE(
      service->AddStrangers(ds.owner, {ds.strangers[1], ds.strangers[2]})
          .ok());
  EXPECT_EQ(service->NumStrangers(ds.owner).value(), 3u);
}

TEST(RebuildPerTickTest, NeverAsksAboutTheSameStrangerTwice) {
  sim::OwnerDataset ds = MakeDataset(3);
  sim::OwnerModel model = MakeOracle(ds, 7);
  StrictOracle oracle(&model);
  auto service = RebuildPerTickService(ds);
  Rng rng(11);
  // Three discovery waves; StrictOracle fails the test on any repeat.
  size_t third = ds.strangers.size() / 3;
  for (size_t wave = 0; wave < 3; ++wave) {
    size_t begin = wave * third;
    size_t end = wave == 2 ? ds.strangers.size() : (wave + 1) * third;
    ASSERT_TRUE(
        service->AddStrangers(ds.owner, Slice(ds.strangers, begin, end))
            .ok());
    auto report = service->AssessSync(ds.owner, &oracle, &rng);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->assessment.strangers.size(), end);
  }
  EXPECT_EQ(service->NumKnownLabels(ds.owner).value(), oracle.queries());
}

TEST(RebuildPerTickTest, KnownLabelsPersistAcrossAssessments) {
  sim::OwnerDataset ds = MakeDataset(4);
  sim::OwnerModel model = MakeOracle(ds, 13);
  StrictOracle oracle(&model);
  auto service = RebuildPerTickService(ds);
  ASSERT_TRUE(service->DiscoverAllStrangers(ds.owner).ok());
  Rng rng(17);
  auto first = service->AssessSync(ds.owner, &oracle, &rng).value();
  size_t after_first = oracle.queries();
  EXPECT_EQ(first.assessment.total_queries, after_first);
  EXPECT_EQ(service->NumKnownLabels(ds.owner).value(), after_first);

  // Re-assessing with no new strangers is strictly cheaper than the first
  // run: labels carry over, and only the stopping rule's re-validation
  // rounds (Definition 4/5 need fresh labels per rebuilt pool) cost
  // queries — never a repeated stranger (StrictOracle enforces that).
  auto second = service->AssessSync(ds.owner, &oracle, &rng).value();
  size_t second_queries = oracle.queries() - after_first;
  EXPECT_EQ(second.assessment.total_queries, second_queries);
  EXPECT_LT(second_queries, after_first);
  EXPECT_EQ(second.assessment.strangers.size(), ds.strangers.size());
  // Nothing survived the first tick, so nothing was reused.
  EXPECT_EQ(second.assessment.pools_carried, 0u);
  EXPECT_FALSE(second.carry.partition_reused);
  EXPECT_EQ(second.carry.partition_new_strangers, 0u);
  EXPECT_FALSE(second.carry.encode_reused);
  EXPECT_EQ(second.carry.encode_rows_appended, 0u);
}

TEST(RebuildPerTickTest, CarriedLabelsAreReflectedInAssessments) {
  sim::OwnerDataset ds = MakeDataset(5, 120);
  sim::OwnerModel model = MakeOracle(ds, 19);
  StrictOracle oracle(&model);
  auto service = RebuildPerTickService(ds);
  ASSERT_TRUE(service->DiscoverAllStrangers(ds.owner).ok());
  Rng rng(23);
  ASSERT_TRUE(service->AssessSync(ds.owner, &oracle, &rng).ok());
  auto report = service->AssessSync(ds.owner, &oracle, &rng).value();
  const PoolLearner::KnownLabels& known =
      *service->KnownLabelsView(ds.owner).value();
  // Every stranger the oracle ever labeled is marked owner-labeled with
  // exactly that label.
  std::map<UserId, RiskLabel> by_id;
  for (const StrangerAssessment& sa : report.assessment.strangers) {
    by_id[sa.stranger] = sa.predicted_label;
    if (known.count(sa.stranger) > 0) {
      EXPECT_TRUE(sa.owner_labeled);
    }
  }
  for (const auto& [stranger, value] : known) {
    EXPECT_EQ(RiskLabelValue(by_id[stranger]), value);
  }
}

TEST(RebuildPerTickTest, IncrementalCostsNoMoreThanTwiceOneShot) {
  // Label economy: discovering in waves should not blow up total owner
  // effort versus assessing everything at once.
  sim::OwnerDataset ds = MakeDataset(6);

  auto run_waves = [&](size_t waves) {
    sim::OwnerModel model = MakeOracle(ds, 29);
    StrictOracle oracle(&model);
    auto service = RebuildPerTickService(ds);
    Rng rng(31);
    size_t per_wave = ds.strangers.size() / waves;
    for (size_t w = 0; w < waves; ++w) {
      size_t begin = w * per_wave;
      size_t end = w + 1 == waves ? ds.strangers.size() : begin + per_wave;
      EXPECT_TRUE(
          service->AddStrangers(ds.owner, Slice(ds.strangers, begin, end))
              .ok());
      EXPECT_TRUE(service->AssessSync(ds.owner, &oracle, &rng).ok());
    }
    return oracle.queries();
  };

  size_t one_shot = run_waves(1);
  size_t incremental = run_waves(4);
  EXPECT_LE(incremental, one_shot * 2 + 20);
}

TEST(RebuildPerTickTest, ImportLabelsSeedsAndDiscovers) {
  sim::OwnerDataset ds = MakeDataset(8, 100);
  sim::OwnerModel model = MakeOracle(ds, 43);
  StrictOracle oracle(&model);
  auto service = RebuildPerTickService(ds);
  // Import labels for three strangers before any discovery.
  PoolLearner::KnownLabels imported;
  imported[ds.strangers[0]] = 1.0;
  imported[ds.strangers[1]] = 3.0;
  imported[ds.strangers[2]] = 2.0;
  ASSERT_TRUE(service->ImportLabels(ds.owner, imported).ok());
  EXPECT_EQ(service->NumStrangers(ds.owner).value(), 3u);
  EXPECT_EQ(service->NumKnownLabels(ds.owner).value(), 3u);

  ASSERT_TRUE(service->DiscoverAllStrangers(ds.owner).ok());
  Rng rng(47);
  auto report = service->AssessSync(ds.owner, &oracle, &rng).value();
  // StrictOracle verifies the imported strangers were never re-asked.
  EXPECT_EQ(oracle.asked().count(ds.strangers[0]), 0u);
  EXPECT_EQ(oracle.asked().count(ds.strangers[1]), 0u);
  // Imported labels surface in the assessment.
  for (const StrangerAssessment& sa : report.assessment.strangers) {
    if (sa.stranger == ds.strangers[1]) {
      EXPECT_TRUE(sa.owner_labeled);
      EXPECT_EQ(sa.predicted_label, RiskLabel::kVeryRisky);
    }
  }
}

TEST(RebuildPerTickTest, ImportLabelsValidatesAtomically) {
  sim::OwnerDataset ds = MakeDataset(9, 60);
  auto service = RebuildPerTickService(ds);
  PoolLearner::KnownLabels bad;
  bad[ds.strangers[0]] = 2.0;
  bad[ds.strangers[1]] = 9.0;  // out of range
  EXPECT_FALSE(service->ImportLabels(ds.owner, bad).ok());
  EXPECT_EQ(service->NumKnownLabels(ds.owner).value(), 0u);
  EXPECT_EQ(service->NumStrangers(ds.owner).value(), 0u);

  // NaN fails every comparison, so only a NaN-safe range test rejects it.
  PoolLearner::KnownLabels nan_label;
  nan_label[ds.strangers[0]] = 2.0;
  nan_label[ds.strangers[1]] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(service->ImportLabels(ds.owner, nan_label).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(service->NumKnownLabels(ds.owner).value(), 0u);
  EXPECT_EQ(service->NumStrangers(ds.owner).value(), 0u);

  PoolLearner::KnownLabels unknown_user;
  unknown_user[999999] = 2.0;
  EXPECT_FALSE(service->ImportLabels(ds.owner, unknown_user).ok());
  PoolLearner::KnownLabels owner_label;
  owner_label[ds.owner] = 2.0;
  EXPECT_FALSE(service->ImportLabels(ds.owner, owner_label).ok());
}

TEST(RebuildPerTickTest, AssessWithNoStrangersIsEmptyReport) {
  sim::OwnerDataset ds = MakeDataset(7);
  auto service = RebuildPerTickService(ds);
  sim::OwnerModel model = MakeOracle(ds, 37);
  Rng rng(41);
  auto report = service->AssessSync(ds.owner, &model, &rng).value();
  EXPECT_EQ(report.assessment.strangers.size(), 0u);
  EXPECT_EQ(report.assessment.total_queries, 0u);
}

}  // namespace
}  // namespace sight
