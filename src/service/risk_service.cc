#include "service/risk_service.h"

#include <utility>

#include "graph/algorithms.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace sight {
namespace {

// Forwards queries to the caller's oracle and records every answer into
// the owner's label store, so the same stranger is never asked twice
// across ticks.
class RecordingOracle : public LabelOracle {
 public:
  RecordingOracle(LabelOracle* inner, PoolLearner::KnownLabels* store)
      : inner_(inner), store_(store) {}

  RiskLabel QueryLabel(UserId stranger, double similarity,
                       double benefit) override {
    RiskLabel label = inner_->QueryLabel(stranger, similarity, benefit);
    (*store_)[stranger] = RiskLabelValue(label);
    return label;
  }

 private:
  LabelOracle* inner_;
  PoolLearner::KnownLabels* store_;
};

}  // namespace

Status RiskServiceConfig::Validate() const {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  if (queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be positive");
  }
  if (thread_pool != nullptr && thread_pool == engine.thread_pool) {
    return Status::InvalidArgument(
        "service thread_pool must be distinct from engine.thread_pool: "
        "drain tasks run on the service pool, and the engine's parallel "
        "phases cannot wait on the pool they execute inside of");
  }
  return Status::OK();
}

RiskService::RiskService(RiskServiceConfig config, RiskEngine engine)
    : config_(std::move(config)), engine_(std::move(engine)) {
  shards_.reserve(config_.num_shards);
  for (size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

Result<std::unique_ptr<RiskService>> RiskService::Create(
    RiskServiceConfig config) {
  SIGHT_RETURN_IF_ERROR(config.Validate());
  SIGHT_ASSIGN_OR_RETURN(RiskEngine engine, RiskEngine::Create(config.engine));
  return std::unique_ptr<RiskService>(
      new RiskService(std::move(config), std::move(engine)));
}

RiskService::~RiskService() { Shutdown(); }

Status RiskService::RegisterOwner(const OwnerRegistration& registration) {
  if (!accepting_.load()) {
    return Status::FailedPrecondition("service is shut down");
  }
  if (registration.graph == nullptr || registration.profiles == nullptr ||
      registration.visibility == nullptr) {
    return Status::InvalidArgument(
        "graph, profiles and visibility are required");
  }
  if (!registration.graph->HasUser(registration.owner)) {
    return Status::InvalidArgument(
        StrFormat("unknown owner %u", registration.owner));
  }
  auto state = std::make_unique<OwnerState>();
  state->owner = registration.owner;
  state->graph = registration.graph;
  state->profiles = registration.profiles;
  state->visibility = registration.visibility;
  state->oracle = registration.oracle;
  state->rng = Rng(registration.rng_seed);

  std::lock_guard<std::mutex> lock(owners_mutex_);
  auto [it, inserted] =
      owners_.try_emplace(registration.owner, std::move(state));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists(
        StrFormat("owner %u is already registered", registration.owner));
  }
  return Status::OK();
}

RiskService::OwnerState* RiskService::FindOwner(UserId owner) const {
  std::lock_guard<std::mutex> lock(owners_mutex_);
  auto it = owners_.find(owner);
  return it == owners_.end() ? nullptr : it->second.get();
}

ThreadPool* RiskService::worker_pool() {
  if (config_.thread_pool != nullptr) return config_.thread_pool;
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (owned_pool_ == nullptr) {
    owned_pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }
  return owned_pool_.get();
}

Status RiskService::Submit(OwnerEvent event) {
  if (!accepting_.load()) {
    return Status::FailedPrecondition("service is shut down");
  }
  OwnerState* state = FindOwner(event.owner);
  if (state == nullptr) {
    return Status::NotFound(
        StrFormat("owner %u is not registered", event.owner));
  }
  if (event.assess && state->oracle == nullptr) {
    return Status::FailedPrecondition(
        StrFormat("owner %u has no registered oracle; background "
                  "assessment needs one (or use AssessSync)",
                  event.owner));
  }
  size_t shard_index = static_cast<size_t>(event.owner) % shards_.size();
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.queue.size() >= config_.queue_capacity) {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.events_rejected;
    return Status::ResourceExhausted(
        StrFormat("shard %zu queue is full (%zu events)", shard_index,
                  config_.queue_capacity));
  }
  shard.queue.push_back(std::move(event));
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.events_submitted;
  }
  // ThreadPool::Submit only enqueues the drain task — it pushes onto the
  // pool's queue and returns, never waiting for completion — so holding
  // shard.mutex across the schedule cannot deadlock.
  // SIGHT_ANALYZER_OK(lock-discipline): Submit enqueues without blocking.
  ScheduleDrainLocked(shard_index);
  return Status::OK();
}

void RiskService::ScheduleDrainLocked(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  if (shard.drain_scheduled || shard.queue.empty()) return;
  shard.drain_scheduled = true;
  worker_pool()->Submit([this, shard_index] { DrainShard(shard_index); });
}

void RiskService::DrainShard(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  for (;;) {
    std::deque<OwnerEvent> batch;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      if (shard.queue.empty()) {
        shard.drain_scheduled = false;
        shard.idle.notify_all();
        return;
      }
      batch.swap(shard.queue);
    }

    // Group per owner, preserving submission order within an owner and
    // first-appearance order across owners.
    std::vector<UserId> order;
    std::unordered_map<UserId, std::vector<OwnerEvent>> by_owner;
    for (OwnerEvent& event : batch) {
      auto [it, inserted] = by_owner.try_emplace(event.owner);
      if (inserted) order.push_back(event.owner);
      it->second.push_back(std::move(event));
    }
    for (UserId owner : order) {
      OwnerState* state = FindOwner(owner);
      if (state == nullptr) continue;  // validated at Submit
      ApplyOwnerBatch(state, std::move(by_owner[owner]));
    }
  }
}

void RiskService::ApplyOwnerBatch(OwnerState* state,
                                  std::vector<OwnerEvent> events) {
  std::lock_guard<std::mutex> lock(state->mutex);
  Status mutation_status;
  size_t assess_requests = 0;
  for (OwnerEvent& event : events) {
    if (!event.discovered.empty()) {
      mutation_status.Update(AddStrangersLocked(state, event.discovered));
    }
    if (!event.imported_labels.empty()) {
      mutation_status.Update(ImportLabelsLocked(state, event.imported_labels));
    }
    if (event.assess) ++assess_requests;
  }
  if (assess_requests == 0) {
    if (!mutation_status.ok()) {
      // Surface the mutation error to pollers instead of dropping it.
      AssessmentSnapshot snapshot;
      snapshot.status = std::move(mutation_status);
      PublishLocked(state, std::move(snapshot));
    }
    return;
  }
  AssessmentSnapshot snapshot;
  snapshot.events_coalesced = assess_requests - 1;
  if (mutation_status.ok()) {
    // The assessment fans out on the engine's pool, which
    // RiskServiceConfig::Validate guarantees is distinct from the
    // service's drain pool, so the drain task holding state->mutex never
    // waits on the pool it runs inside.
    // SIGHT_ANALYZER_OK(lock-discipline): engine pool is distinct by
    Result<RiskReport> report =
        AssessLocked(state, state->oracle, &state->rng);
    if (report.ok()) {
      snapshot.report = std::move(report).value();
    } else {
      snapshot.status = report.status();
    }
  } else {
    snapshot.status = std::move(mutation_status);
  }
  if (assess_requests > 1) {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.events_coalesced += assess_requests - 1;
  }
  PublishLocked(state, std::move(snapshot));
}

Status RiskService::AddStrangersLocked(OwnerState* state,
                                       const std::vector<UserId>& discovered) {
  for (UserId s : discovered) {
    if (!state->graph->HasUser(s)) {
      return Status::InvalidArgument(
          StrFormat("stranger %u is not a known user", s));
    }
    if (s == state->owner) {
      return Status::InvalidArgument("the owner is not a stranger");
    }
  }
  for (UserId s : discovered) {
    if (state->discovered.insert(s).second) state->strangers.push_back(s);
  }
  return Status::OK();
}

Status RiskService::ImportLabelsLocked(OwnerState* state,
                                       const PoolLearner::KnownLabels& labels) {
  // Validate everything before mutating any state.
  std::vector<UserId> to_discover;
  for (const auto& [stranger, value] : labels) {
    if (!(value >= kRiskLabelMin && value <= kRiskLabelMax)) {
      return Status::OutOfRange(
          StrFormat("label %f for stranger %u outside [%d, %d]", value,
                    stranger, kRiskLabelMin, kRiskLabelMax));
    }
    if (!state->graph->HasUser(stranger) || stranger == state->owner) {
      return Status::InvalidArgument(
          StrFormat("labeled stranger %u is not a valid user", stranger));
    }
    if (state->discovered.count(stranger) == 0) to_discover.push_back(stranger);
  }
  SIGHT_RETURN_IF_ERROR(AddStrangersLocked(state, to_discover));
  for (const auto& [stranger, value] : labels) {
    state->known_labels[stranger] = value;
  }
  return Status::OK();
}

Result<RiskReport> RiskService::AssessLocked(OwnerState* state,
                                             LabelOracle* oracle, Rng* rng) {
  RecordingOracle recording(oracle, &state->known_labels);
  const PoolLearner::KnownLabels* prior =
      state->last_scores.empty() ? nullptr : &state->last_scores;
  Result<RiskReport> report = engine_.AssessIncremental(
      *state->graph, *state->profiles, *state->visibility, state->owner,
      state->strangers, &recording, rng, &state->known_labels, prior,
      &state->carry);
  // The carry knobs decide only what survives the tick: a cache the
  // config does not carry is dropped now, so the next tick rebuilds it
  // cold, and it reports no telemetry.
  if (!config_.carry_learners) state->carry.learners.Clear();
  if (!config_.carry_pool_partition) state->carry.partition.Clear();
  if (!config_.carry_encoded_tables) state->carry.encode.Clear();
  if (!report.ok()) return report;
  CarryTelemetry& telemetry = report->carry;
  if (!config_.carry_pool_partition) {
    telemetry.partition_reused = false;
    telemetry.partition_new_strangers = 0;
  }
  if (!config_.carry_encoded_tables) {
    telemetry.encode_reused = false;
    telemetry.encode_rows_appended = 0;
  }
  // Remember this tick's converged scores so the next tick seeds its
  // solves from them instead of the label mean. They are overwritten in
  // place: the stranger list only grows and every stranger is in the
  // report, so the keys stay exactly the report's strangers.
  for (const StrangerAssessment& sa : report.value().assessment.strangers) {
    state->last_scores[sa.stranger] = sa.predicted_score;
  }
  SIGHT_DCHECK(state->last_scores.size() ==
               report.value().assessment.strangers.size());
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.assessments_run;
    stats_.pools_carried += report->assessment.pools_carried;
    if (config_.carry_pool_partition) {
      if (telemetry.partition_reused) {
        ++stats_.partition_hits;
      } else {
        ++stats_.partition_misses;
      }
    }
    if (config_.carry_encoded_tables) {
      if (telemetry.encode_reused) {
        ++stats_.encode_hits;
      } else {
        ++stats_.encode_misses;
      }
      stats_.encode_rows_appended += telemetry.encode_rows_appended;
    }
  }
  return report;
}

void RiskService::PublishLocked(OwnerState* state,
                                AssessmentSnapshot snapshot) {
  snapshot.version = state->next_version++;
  state->snapshot =
      std::make_shared<const AssessmentSnapshot>(std::move(snapshot));
  state->snapshot_published.notify_all();
}

std::shared_ptr<const AssessmentSnapshot> RiskService::Poll(
    UserId owner) const {
  OwnerState* state = FindOwner(owner);
  if (state == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(state->mutex);
  return state->snapshot;
}

Result<std::shared_ptr<const AssessmentSnapshot>> RiskService::WaitFor(
    UserId owner, uint64_t min_version) const {
  OwnerState* state = FindOwner(owner);
  if (state == nullptr) {
    return Status::NotFound(StrFormat("owner %u is not registered", owner));
  }
  std::unique_lock<std::mutex> lock(state->mutex);
  state->snapshot_published.wait(lock, [&] {
    return (state->snapshot != nullptr &&
            state->snapshot->version >= min_version) ||
           shut_down_.load();
  });
  if (state->snapshot != nullptr && state->snapshot->version >= min_version) {
    return state->snapshot;
  }
  return Status::FailedPrecondition(
      "service shut down before the requested version was published");
}

Status RiskService::Flush() {
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::unique_lock<std::mutex> lock(shard.mutex);
    shard.idle.wait(
        lock, [&] { return shard.queue.empty() && !shard.drain_scheduled; });
  }
  return Status::OK();
}

void RiskService::Shutdown() {
  if (shut_down_.exchange(true)) return;
  accepting_.store(false);
  Flush().IgnoreError();
  // Snapshot the pool pointer under the lock but Wait() outside it: a
  // drain task that finishes while we block must not find pool_mutex_
  // held (worker_pool() takes it), and owned_pool_ is never reset after
  // creation so the raw pointer stays valid.
  ThreadPool* pool = nullptr;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    pool = owned_pool_.get();
  }
  if (pool != nullptr) pool->Wait();
  // Wake WaitFor callers that will never see their version now.
  std::lock_guard<std::mutex> lock(owners_mutex_);
  for (auto& [owner, state] : owners_) {
    (void)owner;
    std::lock_guard<std::mutex> owner_lock(state->mutex);
    state->snapshot_published.notify_all();
  }
}

Result<RiskReport> RiskService::AssessNow(UserId owner, LabelOracle* oracle,
                                          Rng* rng) const {
  if (oracle == nullptr || rng == nullptr) {
    return Status::InvalidArgument("oracle and rng are required");
  }
  OwnerState* state = FindOwner(owner);
  if (state == nullptr) {
    return Status::NotFound(StrFormat("owner %u is not registered", owner));
  }
  std::lock_guard<std::mutex> lock(state->mutex);
  // Cold read-through: identical inputs to a batch
  // RiskEngine::AssessStrangers call, whose stages run on fresh caches
  // rather than the owner's carry, no warm seed, and no recording — the
  // owner's state is untouched. The engine fans out on
  // its own pool, which RiskServiceConfig::Validate guarantees is
  // distinct from the service's drain pool.
  // SIGHT_ANALYZER_OK(lock-discipline): engine pool distinct by Validate.
  return engine_.AssessStrangers(
      *state->graph, *state->profiles, *state->visibility, owner,
      state->strangers, oracle, rng,
      state->known_labels.empty() ? nullptr : &state->known_labels,
      /*prior_scores=*/nullptr);
}

Result<RiskReport> RiskService::AssessSync(UserId owner, LabelOracle* oracle,
                                           Rng* rng) {
  if (oracle == nullptr || rng == nullptr) {
    return Status::InvalidArgument("oracle and rng are required");
  }
  OwnerState* state = FindOwner(owner);
  if (state == nullptr) {
    return Status::NotFound(StrFormat("owner %u is not registered", owner));
  }
  std::lock_guard<std::mutex> lock(state->mutex);
  // SIGHT_ANALYZER_OK(lock-discipline): engine pool distinct by Validate.
  SIGHT_ASSIGN_OR_RETURN(RiskReport report, AssessLocked(state, oracle, rng));
  AssessmentSnapshot snapshot;
  snapshot.report = report;
  PublishLocked(state, std::move(snapshot));
  return report;
}

Status RiskService::AddStrangers(UserId owner,
                                 const std::vector<UserId>& discovered) {
  OwnerState* state = FindOwner(owner);
  if (state == nullptr) {
    return Status::NotFound(StrFormat("owner %u is not registered", owner));
  }
  std::lock_guard<std::mutex> lock(state->mutex);
  return AddStrangersLocked(state, discovered);
}

Status RiskService::DiscoverAllStrangers(UserId owner) {
  OwnerState* state = FindOwner(owner);
  if (state == nullptr) {
    return Status::NotFound(StrFormat("owner %u is not registered", owner));
  }
  SIGHT_ASSIGN_OR_RETURN(std::vector<UserId> all,
                         TwoHopStrangers(*state->graph, owner));
  std::lock_guard<std::mutex> lock(state->mutex);
  return AddStrangersLocked(state, all);
}

Status RiskService::ImportLabels(UserId owner,
                                 const PoolLearner::KnownLabels& labels) {
  OwnerState* state = FindOwner(owner);
  if (state == nullptr) {
    return Status::NotFound(StrFormat("owner %u is not registered", owner));
  }
  std::lock_guard<std::mutex> lock(state->mutex);
  return ImportLabelsLocked(state, labels);
}

Result<size_t> RiskService::NumStrangers(UserId owner) const {
  OwnerState* state = FindOwner(owner);
  if (state == nullptr) {
    return Status::NotFound(StrFormat("owner %u is not registered", owner));
  }
  std::lock_guard<std::mutex> lock(state->mutex);
  return state->strangers.size();
}

Result<size_t> RiskService::NumKnownLabels(UserId owner) const {
  OwnerState* state = FindOwner(owner);
  if (state == nullptr) {
    return Status::NotFound(StrFormat("owner %u is not registered", owner));
  }
  std::lock_guard<std::mutex> lock(state->mutex);
  return state->known_labels.size();
}

Result<const PoolLearner::KnownLabels*> RiskService::KnownLabelsView(
    UserId owner) const {
  OwnerState* state = FindOwner(owner);
  if (state == nullptr) {
    return Status::NotFound(StrFormat("owner %u is not registered", owner));
  }
  const PoolLearner::KnownLabels* view = &state->known_labels;
  return view;
}

RiskService::Stats RiskService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace sight
