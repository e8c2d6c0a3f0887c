#include "service/risk_service.h"

#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/risk_engine.h"
#include "graph/algorithms.h"
#include "sim/facebook_generator.h"
#include "sim/owner_model.h"
#include "util/thread_pool.h"

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

RiskServiceConfig ServiceConfig() {
  RiskServiceConfig config;
  config.engine.pools.attribute_weights = sim::PaperAttributeWeights();
  return config;
}

sim::OwnerModel MakeOracle(const sim::OwnerDataset& ds, uint64_t seed) {
  Rng attitude_rng(seed);
  sim::OwnerAttitude attitude = sim::SampleOwnerAttitude(&attitude_rng);
  return sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
      .value();
}

OwnerRegistration Registration(const sim::OwnerDataset& ds,
                               LabelOracle* oracle = nullptr,
                               uint64_t rng_seed = 0) {
  OwnerRegistration registration;
  registration.owner = ds.owner;
  registration.graph = &ds.graph;
  registration.profiles = &ds.profiles;
  registration.visibility = &ds.visibility;
  registration.oracle = oracle;
  registration.rng_seed = rng_seed;
  return registration;
}

// Exact (bitwise for the doubles) equality of two reports.
void ExpectReportsIdentical(const RiskReport& a, const RiskReport& b) {
  EXPECT_EQ(a.num_strangers, b.num_strangers);
  EXPECT_EQ(a.num_pools, b.num_pools);
  EXPECT_EQ(a.pool_sizes, b.pool_sizes);
  EXPECT_EQ(a.assessment.total_queries, b.assessment.total_queries);
  EXPECT_EQ(a.assessment.rounds.size(), b.assessment.rounds.size());
  ASSERT_EQ(a.assessment.strangers.size(), b.assessment.strangers.size());
  for (size_t i = 0; i < a.assessment.strangers.size(); ++i) {
    const StrangerAssessment& sa = a.assessment.strangers[i];
    const StrangerAssessment& sb = b.assessment.strangers[i];
    EXPECT_EQ(sa.stranger, sb.stranger);
    EXPECT_EQ(sa.pool_index, sb.pool_index);
    EXPECT_EQ(sa.network_similarity, sb.network_similarity);
    EXPECT_EQ(sa.benefit, sb.benefit);
    EXPECT_EQ(sa.predicted_score, sb.predicted_score);
    EXPECT_EQ(sa.predicted_label, sb.predicted_label);
    EXPECT_EQ(sa.owner_labeled, sb.owner_labeled);
  }
}

// Holds the sole worker of a 1-thread pool so queued drains cannot run
// until the test opens the gate.
class Gate {
 public:
  void Occupy(ThreadPool* pool) {
    pool->Submit([this] {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return open_; });
    });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(RiskServiceTest, CreateValidatesConfig) {
  RiskServiceConfig no_shards = ServiceConfig();
  no_shards.num_shards = 0;
  EXPECT_FALSE(RiskService::Create(std::move(no_shards)).ok());

  RiskServiceConfig no_queue = ServiceConfig();
  no_queue.queue_capacity = 0;
  EXPECT_FALSE(RiskService::Create(std::move(no_queue)).ok());

  // Sharing one pool between the service's drain tasks and the engine's
  // parallel phases would deadlock; the config is rejected up front.
  ThreadPool shared(2);
  RiskServiceConfig aliased = ServiceConfig();
  aliased.thread_pool = &shared;
  aliased.engine.thread_pool = &shared;
  EXPECT_FALSE(RiskService::Create(std::move(aliased)).ok());

  EXPECT_TRUE(RiskService::Create(ServiceConfig()).ok());
}

TEST(RiskServiceTest, RegisterOwnerValidates) {
  sim::OwnerDataset ds = MakeDataset(1);
  auto service = RiskService::Create(ServiceConfig()).value();

  OwnerRegistration no_graph = Registration(ds);
  no_graph.graph = nullptr;
  EXPECT_FALSE(service->RegisterOwner(no_graph).ok());

  OwnerRegistration bad_owner = Registration(ds);
  bad_owner.owner = 999999;
  EXPECT_FALSE(service->RegisterOwner(bad_owner).ok());

  ASSERT_TRUE(service->RegisterOwner(Registration(ds)).ok());
  EXPECT_EQ(service->RegisterOwner(Registration(ds)).code(),
            StatusCode::kAlreadyExists);
}

TEST(RiskServiceTest, UnknownOwnerIsNotFoundEverywhere) {
  auto service = RiskService::Create(ServiceConfig()).value();
  sim::OwnerDataset ds = MakeDataset(2, 40);
  sim::OwnerModel oracle = MakeOracle(ds, 3);
  Rng rng(5);
  OwnerEvent event;
  event.owner = 42;
  EXPECT_EQ(service->Submit(std::move(event)).code(), StatusCode::kNotFound);
  EXPECT_EQ(service->Poll(42), nullptr);
  EXPECT_EQ(service->WaitFor(42, 1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service->AssessNow(42, &oracle, &rng).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service->AssessSync(42, &oracle, &rng).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service->AddStrangers(42, {}).code(), StatusCode::kNotFound);
  EXPECT_EQ(service->NumStrangers(42).status().code(), StatusCode::kNotFound);
}

// The acceptance gate: the service's synchronous path is bitwise-equal
// to a cold batch RiskEngine run over the same inputs.
TEST(RiskServiceTest, AssessNowMatchesBatchEngineBitwise) {
  sim::OwnerDataset ds = MakeDataset(7);
  RiskServiceConfig config = ServiceConfig();

  auto engine = RiskEngine::Create(config.engine).value();
  sim::OwnerModel batch_oracle = MakeOracle(ds, 11);
  Rng batch_rng(55);
  auto batch = engine
                   .AssessOwner(ds.graph, ds.profiles, ds.visibility,
                                ds.owner, &batch_oracle, &batch_rng)
                   .value();

  auto service = RiskService::Create(std::move(config)).value();
  ASSERT_TRUE(service->RegisterOwner(Registration(ds)).ok());
  ASSERT_TRUE(service->DiscoverAllStrangers(ds.owner).ok());
  sim::OwnerModel service_oracle = MakeOracle(ds, 11);
  Rng service_rng(55);
  auto now =
      service->AssessNow(ds.owner, &service_oracle, &service_rng).value();

  ExpectReportsIdentical(batch, now);
  // AssessNow is a pure read-through: nothing was recorded.
  EXPECT_EQ(service->NumKnownLabels(ds.owner).value(), 0u);
  EXPECT_EQ(service->Poll(ds.owner), nullptr);
}

TEST(RiskServiceTest, SubmitPublishesVersionedSnapshots) {
  sim::OwnerDataset ds = MakeDataset(9, 120);
  sim::OwnerModel oracle = MakeOracle(ds, 13);
  auto service = RiskService::Create(ServiceConfig()).value();
  ASSERT_TRUE(service->RegisterOwner(Registration(ds, &oracle, 17)).ok());
  EXPECT_EQ(service->Poll(ds.owner), nullptr);

  size_t half = ds.strangers.size() / 2;
  OwnerEvent first;
  first.owner = ds.owner;
  first.discovered.assign(ds.strangers.begin(), ds.strangers.begin() + half);
  ASSERT_TRUE(service->Submit(std::move(first)).ok());
  auto snapshot = service->WaitFor(ds.owner, 1).value();
  EXPECT_EQ(snapshot->version, 1u);
  EXPECT_TRUE(snapshot->status.ok());
  EXPECT_EQ(snapshot->report.assessment.strangers.size(), half);

  OwnerEvent second;
  second.owner = ds.owner;
  second.discovered.assign(ds.strangers.begin() + half, ds.strangers.end());
  ASSERT_TRUE(service->Submit(std::move(second)).ok());
  auto next = service->WaitFor(ds.owner, snapshot->version + 1).value();
  EXPECT_GT(next->version, snapshot->version);
  EXPECT_EQ(next->report.assessment.strangers.size(), ds.strangers.size());
  // Poll returns the latest published snapshot.
  EXPECT_EQ(service->Poll(ds.owner)->version, next->version);
  // The first snapshot is immutable and still readable.
  EXPECT_EQ(snapshot->report.assessment.strangers.size(), half);

  service->Shutdown();
  EXPECT_EQ(service->stats().events_submitted, 2u);
  EXPECT_EQ(service->stats().assessments_run, 2u);
}

TEST(RiskServiceTest, MutateOnlyEventsDoNotPublish) {
  sim::OwnerDataset ds = MakeDataset(10, 80);
  sim::OwnerModel oracle = MakeOracle(ds, 19);
  auto service = RiskService::Create(ServiceConfig()).value();
  ASSERT_TRUE(service->RegisterOwner(Registration(ds, &oracle, 23)).ok());

  OwnerEvent mutate;
  mutate.owner = ds.owner;
  mutate.discovered = ds.strangers;
  mutate.assess = false;
  ASSERT_TRUE(service->Submit(std::move(mutate)).ok());
  ASSERT_TRUE(service->Flush().ok());
  EXPECT_EQ(service->Poll(ds.owner), nullptr);
  EXPECT_EQ(service->NumStrangers(ds.owner).value(), ds.strangers.size());

  OwnerEvent assess;
  assess.owner = ds.owner;
  ASSERT_TRUE(service->Submit(std::move(assess)).ok());
  auto snapshot = service->WaitFor(ds.owner, 1).value();
  EXPECT_EQ(snapshot->report.assessment.strangers.size(),
            ds.strangers.size());
}

TEST(RiskServiceTest, FullQueueRejectsUnderRejectPolicy) {
  sim::OwnerDataset ds = MakeDataset(11, 60);
  sim::OwnerModel oracle = MakeOracle(ds, 29);
  ThreadPool workers(1);
  Gate gate;
  gate.Occupy(&workers);

  RiskServiceConfig config = ServiceConfig();
  config.thread_pool = &workers;
  config.queue_capacity = 2;
  auto service = RiskService::Create(std::move(config)).value();
  ASSERT_TRUE(service->RegisterOwner(Registration(ds, &oracle, 31)).ok());

  auto discovery_event = [&](size_t i) {
    OwnerEvent event;
    event.owner = ds.owner;
    event.discovered = {ds.strangers[i]};
    return event;
  };
  // The drain task is queued behind the gate, so the queue fills.
  ASSERT_TRUE(service->Submit(discovery_event(0)).ok());
  ASSERT_TRUE(service->Submit(discovery_event(1)).ok());
  EXPECT_EQ(service->Submit(discovery_event(2)).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(service->stats().events_rejected, 1u);

  gate.Open();
  ASSERT_TRUE(service->Flush().ok());
  // Both accepted events were applied; the rejected one was dropped.
  EXPECT_EQ(service->NumStrangers(ds.owner).value(), 2u);
  // The two assess requests were coalesced into one run.
  auto snapshot = service->Poll(ds.owner);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version, 1u);
  EXPECT_EQ(snapshot->events_coalesced, 1u);
  EXPECT_EQ(service->stats().events_coalesced, 1u);
  service->Shutdown();
}

TEST(RiskServiceTest, ShutdownDrainsPendingEvents) {
  sim::OwnerDataset ds = MakeDataset(13, 80);
  sim::OwnerModel oracle = MakeOracle(ds, 43);
  ThreadPool workers(1);
  Gate gate;
  gate.Occupy(&workers);

  RiskServiceConfig config = ServiceConfig();
  config.thread_pool = &workers;
  auto service = RiskService::Create(std::move(config)).value();
  ASSERT_TRUE(service->RegisterOwner(Registration(ds, &oracle, 47)).ok());

  for (size_t i = 0; i < 4; ++i) {
    OwnerEvent event;
    event.owner = ds.owner;
    size_t quarter = ds.strangers.size() / 4;
    size_t begin = i * quarter;
    size_t end = i == 3 ? ds.strangers.size() : begin + quarter;
    event.discovered.assign(ds.strangers.begin() + begin,
                            ds.strangers.begin() + end);
    ASSERT_TRUE(service->Submit(std::move(event)).ok());
  }
  gate.Open();
  service->Shutdown();

  // Every queued event was applied before the workers stopped.
  auto snapshot = service->Poll(ds.owner);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(snapshot->status.ok());
  EXPECT_EQ(snapshot->report.assessment.strangers.size(),
            ds.strangers.size());
  // New work is refused after shutdown.
  OwnerEvent late;
  late.owner = ds.owner;
  EXPECT_EQ(service->Submit(std::move(late)).code(),
            StatusCode::kFailedPrecondition);
  sim::OwnerDataset other = MakeDataset(14, 20);
  EXPECT_EQ(service->RegisterOwner(Registration(other)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(RiskServiceTest, SubmitAssessWithoutOracleFails) {
  sim::OwnerDataset ds = MakeDataset(15, 40);
  auto service = RiskService::Create(ServiceConfig()).value();
  ASSERT_TRUE(service->RegisterOwner(Registration(ds)).ok());
  OwnerEvent assess;
  assess.owner = ds.owner;
  EXPECT_EQ(service->Submit(std::move(assess)).code(),
            StatusCode::kFailedPrecondition);
  // Mutate-only events are fine without an oracle.
  OwnerEvent mutate;
  mutate.owner = ds.owner;
  mutate.discovered = {ds.strangers[0]};
  mutate.assess = false;
  EXPECT_TRUE(service->Submit(std::move(mutate)).ok());
  ASSERT_TRUE(service->Flush().ok());
  EXPECT_EQ(service->NumStrangers(ds.owner).value(), 1u);
}

TEST(RiskServiceTest, NanImportedLabelIsRejectedNotStored) {
  sim::OwnerDataset ds = MakeDataset(16, 80);
  sim::OwnerModel oracle = MakeOracle(ds, 29);
  auto service = RiskService::Create(ServiceConfig()).value();
  ASSERT_TRUE(service->RegisterOwner(Registration(ds, &oracle, 31)).ok());

  // A stored NaN label would break every later solve of its pool (the
  // solve state's append-only check compares label values, and NaN never
  // equals itself), so the import must fail and store nothing.
  OwnerEvent poisoned;
  poisoned.owner = ds.owner;
  poisoned.discovered = ds.strangers;
  poisoned.imported_labels[ds.strangers[0]] =
      std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(service->Submit(std::move(poisoned)).ok());
  auto rejected = service->WaitFor(ds.owner, 1).value();
  EXPECT_EQ(rejected->status.code(), StatusCode::kOutOfRange)
      << rejected->status;
  EXPECT_EQ(service->NumKnownLabels(ds.owner).value(), 0u);

  OwnerEvent assess;
  assess.owner = ds.owner;
  ASSERT_TRUE(service->Submit(std::move(assess)).ok());
  auto next = service->WaitFor(ds.owner, 2).value();
  EXPECT_TRUE(next->status.ok()) << next->status;
  EXPECT_EQ(next->report.assessment.strangers.size(), ds.strangers.size());
}

TEST(RiskServiceTest, CarriedLearnersSkipStablePools) {
  sim::OwnerDataset ds = MakeDataset(16);

  auto run_two_waves = [&](bool carry) {
    RiskServiceConfig config = ServiceConfig();
    config.carry_learners = carry;
    auto service = RiskService::Create(std::move(config)).value();
    // AssessSync supplies the oracle per call; none registered.
    EXPECT_TRUE(service->RegisterOwner(Registration(ds)).ok());
    sim::OwnerModel oracle = MakeOracle(ds, 53);
    Rng rng(59);
    size_t half = ds.strangers.size() / 2;
    EXPECT_TRUE(service
                    ->AddStrangers(ds.owner,
                                   std::vector<UserId>(
                                       ds.strangers.begin(),
                                       ds.strangers.begin() + half))
                    .ok());
    RiskReport first = service->AssessSync(ds.owner, &oracle, &rng).value();
    EXPECT_EQ(first.assessment.pools_carried, 0u);
    EXPECT_TRUE(service
                    ->AddStrangers(ds.owner,
                                   std::vector<UserId>(
                                       ds.strangers.begin() + half,
                                       ds.strangers.end()))
                    .ok());
    RiskReport second = service->AssessSync(ds.owner, &oracle, &rng).value();
    EXPECT_EQ(service->Poll(ds.owner)->version, 2u);
    struct Outcome {
      RiskReport second;
      size_t total_queries;
      size_t pools_carried_stat;
    };
    return Outcome{second, oracle.num_queries(),
                   service->stats().pools_carried};
  };

  auto carried = run_two_waves(true);
  auto rebuilt = run_two_waves(false);

  // Pools whose membership a new discovery wave did not touch are served
  // by their carried learner: no rebuild, no extra validation queries.
  EXPECT_GT(carried.second.assessment.pools_carried, 0u);
  EXPECT_EQ(carried.pools_carried_stat,
            carried.second.assessment.pools_carried);
  EXPECT_EQ(rebuilt.second.assessment.pools_carried, 0u);
  EXPECT_LE(carried.total_queries, rebuilt.total_queries);
  // Both runs assess the full stranger set.
  EXPECT_EQ(carried.second.assessment.strangers.size(),
            ds.strangers.size());
  EXPECT_EQ(rebuilt.second.assessment.strangers.size(),
            ds.strangers.size());
}

TEST(RiskServiceTest, ResidentCachesAreBitwiseNeutral) {
  // The partition and encode carries are pure cost knobs: a trace of warm
  // ticks (learner carry ON in both arms — carried learners are part of
  // the warm semantics, not under test here) must produce bitwise the
  // same report every tick with the caches on and off, including across
  // an upstream profile edit that invalidates every fingerprint. The two
  // services run interleaved so each tick sees identical table state.
  sim::OwnerDataset ds = MakeDataset(18);

  RiskServiceConfig cached_config = ServiceConfig();
  cached_config.carry_pool_partition = true;
  cached_config.carry_encoded_tables = true;
  auto cached = RiskService::Create(std::move(cached_config)).value();
  RiskServiceConfig cold_config = ServiceConfig();
  cold_config.carry_pool_partition = false;
  cold_config.carry_encoded_tables = false;
  auto cold = RiskService::Create(std::move(cold_config)).value();
  ASSERT_TRUE(cached->RegisterOwner(Registration(ds)).ok());
  ASSERT_TRUE(cold->RegisterOwner(Registration(ds)).ok());

  sim::OwnerModel cached_oracle = MakeOracle(ds, 71);
  sim::OwnerModel cold_oracle = MakeOracle(ds, 71);
  Rng cached_rng(73);
  Rng cold_rng(73);
  size_t half = ds.strangers.size() / 2;
  size_t n = ds.strangers.size();

  auto tick = [&](const std::vector<UserId>& discovered) {
    if (!discovered.empty()) {
      ASSERT_TRUE(cached->AddStrangers(ds.owner, discovered).ok());
      ASSERT_TRUE(cold->AddStrangers(ds.owner, discovered).ok());
    }
    RiskReport a =
        cached->AssessSync(ds.owner, &cached_oracle, &cached_rng).value();
    RiskReport b = cold->AssessSync(ds.owner, &cold_oracle, &cold_rng).value();
    ExpectReportsIdentical(a, b);
    EXPECT_EQ(a.assessment.pools_carried, b.assessment.pools_carried);
  };

  std::vector<UserId> first_wave(ds.strangers.begin(),
                                 ds.strangers.begin() + half);
  std::vector<UserId> second_wave(ds.strangers.begin() + half,
                                  ds.strangers.end());
  tick(first_wave);   // cold start: both caches miss
  tick(second_wave);  // grown set: suffix-only reuse
  tick({});           // unchanged set: full reuse
  // Upstream edit: every fingerprint breaks; the next tick rebuilds cold
  // and both arms still agree.
  ASSERT_TRUE(ds.profiles.SetValue(ds.strangers[0], 0, "female").ok());
  tick({});

  RiskService::Stats cached_stats = cached->stats();
  EXPECT_EQ(cached_stats.partition_misses, 2u);  // first tick + post-edit
  EXPECT_EQ(cached_stats.partition_hits, 2u);    // grown + unchanged
  EXPECT_EQ(cached_stats.encode_misses, 2u);
  EXPECT_EQ(cached_stats.encode_hits, 2u);
  // half (cold) + (n - half) (suffix) + 0 (unchanged) + n (rebuild).
  EXPECT_EQ(cached_stats.encode_rows_appended, 2 * n);

  // The cold arm never exercises (or counts) the caches.
  RiskService::Stats cold_stats = cold->stats();
  EXPECT_EQ(cold_stats.partition_hits + cold_stats.partition_misses, 0u);
  EXPECT_EQ(cold_stats.encode_hits + cold_stats.encode_misses, 0u);
}

TEST(RiskServiceTest, AssessSyncRecordsLabelsAndNeverReasks) {
  sim::OwnerDataset ds = MakeDataset(17, 120);
  auto service = RiskService::Create(ServiceConfig()).value();
  ASSERT_TRUE(service->RegisterOwner(Registration(ds)).ok());
  ASSERT_TRUE(service->DiscoverAllStrangers(ds.owner).ok());

  sim::OwnerModel model = MakeOracle(ds, 61);
  std::set<UserId> asked;
  class NoRepeatOracle : public LabelOracle {
   public:
    NoRepeatOracle(sim::OwnerModel* model, std::set<UserId>* asked)
        : model_(model), asked_(asked) {}
    RiskLabel QueryLabel(UserId stranger, double similarity,
                         double benefit) override {
      EXPECT_TRUE(asked_->insert(stranger).second)
          << "stranger " << stranger << " asked twice";
      return model_->QueryLabel(stranger, similarity, benefit);
    }

   private:
    sim::OwnerModel* model_;
    std::set<UserId>* asked_;
  } oracle(&model, &asked);

  Rng rng(67);
  RiskReport first = service->AssessSync(ds.owner, &oracle, &rng).value();
  EXPECT_EQ(service->NumKnownLabels(ds.owner).value(), asked.size());
  EXPECT_EQ(first.assessment.total_queries, asked.size());
  // Second sync tick re-asks nobody (NoRepeatOracle enforces it).
  RiskReport second = service->AssessSync(ds.owner, &oracle, &rng).value();
  EXPECT_EQ(second.assessment.strangers.size(), ds.strangers.size());
  EXPECT_EQ(service->Poll(ds.owner)->version, 2u);
}

}  // namespace
}  // namespace sight
