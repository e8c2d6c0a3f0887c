// RiskService: the resident, owner-sharded front door of the Sight
// library.
//
// RiskEngine is a batch object: every assessment rebuilds pool codecs,
// frequency tables, and learners from scratch for one owner. A crawler
// serving many owners wants the opposite shape —
// one long-lived server object that carries per-owner state
// (ProfileCodecs, EncodedProfileTables, PoolLearners, and their
// HarmonicSolveStates) across ticks, accepts events from any thread,
// and assesses in the background:
//
//   RiskServiceConfig config;                     // engine defaults
//   auto service = RiskService::Create(std::move(config)).value();
//   service->RegisterOwner({owner, &graph, &profiles, &visibility,
//                           &oracle, /*rng_seed=*/42});
//   // Crawler thread(s): fire-and-forget.
//   OwnerEvent event;
//   event.owner = owner;
//   event.discovered = new_batch;
//   SIGHT_CHECK(service->Submit(std::move(event)).ok());
//   // Reader thread(s): versioned snapshots, swapped atomically.
//   auto snap = service->Poll(owner);              // latest or nullptr
//   auto next = service->WaitFor(owner, /*min_version=*/1).value();
//
// Owners are sharded (owner id modulo num_shards); each shard has a
// bounded MPSC event queue drained by a self-rescheduling task on the
// service's ThreadPool, so independent shards assess concurrently while
// events for one owner are applied in submission order. Consecutive
// queued assess requests for the same owner are coalesced into one run.
// A full queue rejects the event (Status::ResourceExhausted); Submit never
// blocks.
//
// The synchronous paths remain: `AssessNow` is a pure read-through that
// is bitwise-identical to a cold batch `RiskEngine::AssessStrangers`
// call over the owner's current state, and `AssessSync` is the warm
// in-place tick (records labels, seeds next solves, reuses carried
// learners). A one-shard service with every carry off, driven by
// AssessSync, is the rebuild-per-tick single-owner flow. See DESIGN.md
// §13 for the architecture and the old->new API map.

#ifndef SIGHT_SERVICE_RISK_SERVICE_H_
#define SIGHT_SERVICE_RISK_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/active_learner.h"
#include "core/risk_engine.h"
#include "graph/profile.h"
#include "graph/social_graph.h"
#include "graph/types.h"
#include "graph/visibility.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sight {

struct RiskServiceConfig {
  /// Pipeline configuration shared by every owner (one RiskEngine is
  /// instantiated and reused for all assessments).
  RiskEngineConfig engine;
  /// Owner shards. Events for owners in different shards drain
  /// concurrently; within a shard, in submission order.
  size_t num_shards = 8;
  /// Bounded per-shard event queue capacity. Submit rejects an event
  /// for a full shard queue.
  size_t queue_capacity = 256;
  /// Background workers draining shard queues. 0 = hardware
  /// concurrency. The pool is created lazily on the first Submit, so
  /// purely synchronous users (AssessSync/AssessNow only) never spawn a
  /// thread.
  /// Ignored when `thread_pool` is set.
  size_t num_threads = 1;
  /// Optional caller-owned worker pool (non-owning; must outlive the
  /// service). Must be distinct from `engine.thread_pool`: drain tasks
  /// run on this pool and the engine's ParallelFor phases must not wait
  /// on the pool they run inside of.
  ThreadPool* thread_pool = nullptr;
  /// The three carry knobs decide only which of the owner's caches
  /// survive a tick (DESIGN.md §14); every tick runs the same stages on
  /// them, and a cache not carried is dropped after the tick and
  /// reports no CarryTelemetry. They apply to background drains and
  /// AssessSync; AssessNow always runs on fresh caches.
  ///
  /// Keep finished PoolLearners for pools whose member list and owner
  /// labels are unchanged (skips the graph/round rebuild for them).
  /// Stale carried state is rejected by fingerprint checks, never
  /// silently reused. The one knob that changes which questions are
  /// asked.
  bool carry_learners = true;
  /// Keep the NS/NSG/Squeezer pool partition: an unchanged stranger set
  /// reuses it outright, a grown one routes only the new suffix through
  /// the carried per-group squeezers. Fingerprinted on the owner's
  /// tables; any mismatch rebuilds cold. Bitwise-identical either way.
  bool carry_pool_partition = true;
  /// Keep the owner-level encoded stranger table: each tick encodes only
  /// newly discovered strangers. Same fingerprint/fallback rules;
  /// bitwise-identical either way.
  bool carry_encoded_tables = true;

  [[nodiscard]] Status Validate() const;
};

/// One owner joining the service. The pointed-to tables must outlive
/// the service (or the owner's use of it) and may grow between events.
struct OwnerRegistration {
  UserId owner = kInvalidUser;
  const SocialGraph* graph = nullptr;
  const ProfileTable* profiles = nullptr;
  const VisibilityTable* visibility = nullptr;
  /// Answers label queries during background assessments. May be null
  /// for owners only ever assessed synchronously (AssessNow/AssessSync
  /// take the oracle per call); Submit of an assess event then fails.
  LabelOracle* oracle = nullptr;
  /// Seed of the owner's resident sampling Rng (background drains).
  uint64_t rng_seed = 0;
};

/// One unit of crawler progress for one owner.
struct OwnerEvent {
  UserId owner = kInvalidUser;
  /// Newly discovered strangers (duplicates ignored).
  std::vector<UserId> discovered;
  /// Labels collected elsewhere, merged before assessing.
  PoolLearner::KnownLabels imported_labels;
  /// Run an assessment after applying the mutations above. false =
  /// mutate only (batch several discovery events, assess on the last).
  bool assess = true;
};

/// Immutable result of one background/sync assessment, published under
/// a monotonically increasing per-owner version.
struct AssessmentSnapshot {
  /// 1-based; 0 never appears (WaitFor(owner, 0) returns immediately
  /// once any snapshot exists).
  uint64_t version = 0;
  /// Assess events folded into this run beyond the first.
  size_t events_coalesced = 0;
  /// Error of the background run, OK on success. On error `report` is
  /// default-constructed.
  Status status;
  RiskReport report;
};

class RiskService {
 public:
  [[nodiscard]] static Result<std::unique_ptr<RiskService>> Create(
      RiskServiceConfig config);

  /// Drains pending events (Shutdown) before releasing owner state.
  ~RiskService();

  RiskService(const RiskService&) = delete;
  RiskService& operator=(const RiskService&) = delete;

  /// Errors: InvalidArgument (null tables / owner not in graph),
  /// AlreadyExists (owner registered twice).
  [[nodiscard]] Status RegisterOwner(const OwnerRegistration& registration);

  /// Enqueues an event onto the owner's shard. Thread-safe, never
  /// blocks. Errors: NotFound (unregistered owner), ResourceExhausted
  /// (the owner's shard queue is full; the event is dropped),
  /// FailedPrecondition (no registered oracle for an assess event, or
  /// the service is shut down).
  [[nodiscard]] Status Submit(OwnerEvent event);

  /// Latest published snapshot for `owner`, or nullptr when none exists
  /// yet (or the owner is unknown). Thread-safe, non-blocking; the
  /// returned snapshot is immutable and safe to read indefinitely.
  [[nodiscard]] std::shared_ptr<const AssessmentSnapshot> Poll(
      UserId owner) const;

  /// Blocks until a snapshot with version >= min_version is published
  /// and returns it. Errors: NotFound (unregistered owner).
  [[nodiscard]] Result<std::shared_ptr<const AssessmentSnapshot>> WaitFor(
      UserId owner, uint64_t min_version) const;

  /// Blocks until every event submitted before the call has drained.
  [[nodiscard]] Status Flush();

  /// Stops accepting events, drains what was already queued, and joins
  /// the owned worker pool. Idempotent; called by the destructor.
  void Shutdown();

  /// Synchronous cold assessment of the owner's current stranger set:
  /// bitwise-identical to RiskEngine::AssessStrangers over the same
  /// strangers/known labels/oracle/rng — fresh caches instead of the
  /// owner's carry, no score seeding, and no state mutation (answers are
  /// NOT recorded; use AssessSync or Submit for that). Blocks new events
  /// for this owner while it runs.
  [[nodiscard]] Result<RiskReport> AssessNow(UserId owner, LabelOracle* oracle,
                                             Rng* rng) const;

  /// Synchronous warm tick: assesses with the owner's accumulated
  /// labels and prior scores, records every new oracle answer, seeds
  /// the next tick, reuses the carried caches (per config), and
  /// publishes a snapshot.
  [[nodiscard]] Result<RiskReport> AssessSync(UserId owner, LabelOracle* oracle,
                                              Rng* rng);

  /// Synchronous mutators (the Submit path applies the same operations
  /// from the background). AddStrangers ignores duplicates and rejects
  /// unknown users and the owner itself; DiscoverAllStrangers adds the
  /// owner's current two-hop set. ImportLabels also discovers labeled
  /// strangers not yet known; on an out-of-range label or an invalid
  /// user it changes nothing.
  [[nodiscard]] Status AddStrangers(UserId owner,
                                    const std::vector<UserId>& discovered);
  [[nodiscard]] Status DiscoverAllStrangers(UserId owner);
  [[nodiscard]] Status ImportLabels(UserId owner,
                                    const PoolLearner::KnownLabels& labels);

  [[nodiscard]] Result<size_t> NumStrangers(UserId owner) const;
  [[nodiscard]] Result<size_t> NumKnownLabels(UserId owner) const;
  /// Stable pointer to the owner's label store (lives as long as the
  /// owner's registration). NOT synchronized with background drains —
  /// read it only after Flush() or in single-threaded use.
  [[nodiscard]] Result<const PoolLearner::KnownLabels*> KnownLabelsView(
      UserId owner) const;

  struct Stats {
    size_t events_submitted = 0;
    size_t events_rejected = 0;
    /// Assess requests folded into an already-running batch.
    size_t events_coalesced = 0;
    size_t assessments_run = 0;
    /// Sum of RiskReport.assessment.pools_carried across runs.
    size_t pools_carried = 0;
    /// Warm assessments whose carried pool partition was reused /
    /// rebuilt cold (only counted while carry_pool_partition is on).
    size_t partition_hits = 0;
    size_t partition_misses = 0;
    /// Warm assessments whose carried encode was appended to / rebuilt
    /// cold (only counted while carry_encoded_tables is on).
    size_t encode_hits = 0;
    size_t encode_misses = 0;
    /// Stranger rows the encode stage actually encoded across runs.
    size_t encode_rows_appended = 0;
  };
  [[nodiscard]] Stats stats() const;

  const RiskServiceConfig& config() const { return config_; }

 private:
  struct OwnerState {
    mutable std::mutex mutex;
    mutable std::condition_variable snapshot_published;
    UserId owner = kInvalidUser;
    const SocialGraph* graph = nullptr;
    const ProfileTable* profiles = nullptr;
    const VisibilityTable* visibility = nullptr;
    LabelOracle* oracle = nullptr;
    Rng rng{0};
    std::vector<UserId> strangers;  // discovery order, duplicate-free
    std::unordered_set<UserId> discovered;
    PoolLearner::KnownLabels known_labels;
    /// Previous tick's predicted scores: the warm-start solve seed.
    PoolLearner::KnownLabels last_scores;
    /// Resident cross-tick caches: finished learners, the pool
    /// partition, and the owner-level encoded stranger table
    /// (DESIGN.md §14). Those the config does not carry are cleared
    /// after every tick.
    AssessCarry carry;
    uint64_t next_version = 1;
    std::shared_ptr<const AssessmentSnapshot> snapshot;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable idle;
    std::deque<OwnerEvent> queue;
    /// A drain task is queued or running on the worker pool.
    bool drain_scheduled = false;
  };

  explicit RiskService(RiskServiceConfig config, RiskEngine engine);

  Shard& shard_of(UserId owner) const {
    return *shards_[static_cast<size_t>(owner) % shards_.size()];
  }
  /// Owner lookup; null when unregistered.
  OwnerState* FindOwner(UserId owner) const;
  /// The worker pool, creating the owned one on first use.
  ThreadPool* worker_pool();
  /// Schedules a drain task for the shard if none is in flight.
  /// Requires shard.mutex held.
  void ScheduleDrainLocked(size_t shard_index);
  /// Drains the shard queue until empty (the worker-pool task body).
  void DrainShard(size_t shard_index);
  /// Applies `events` (all for one owner, submission order) and runs at
  /// most one assessment. Publishes a snapshot if any event assessed.
  void ApplyOwnerBatch(OwnerState* state, std::vector<OwnerEvent> events);
  /// AddStrangers/ImportLabels bodies; require state->mutex held.
  [[nodiscard]] Status AddStrangersLocked(
      OwnerState* state, const std::vector<UserId>& discovered);
  [[nodiscard]] Status ImportLabelsLocked(
      OwnerState* state, const PoolLearner::KnownLabels& labels);
  /// One warm assessment over current state; requires state->mutex
  /// held. Records labels, updates last_scores, maintains the carry.
  [[nodiscard]] Result<RiskReport> AssessLocked(OwnerState* state,
                                               LabelOracle* oracle, Rng* rng);
  /// Publishes `snapshot` for the owner; requires state->mutex held.
  void PublishLocked(OwnerState* state, AssessmentSnapshot snapshot);

  RiskServiceConfig config_;
  RiskEngine engine_;

  mutable std::mutex owners_mutex_;
  std::unordered_map<UserId, std::unique_ptr<OwnerState>> owners_;

  std::vector<std::unique_ptr<Shard>> shards_;

  std::mutex pool_mutex_;
  std::unique_ptr<ThreadPool> owned_pool_;

  std::atomic<bool> accepting_{true};
  std::atomic<bool> shut_down_{false};

  mutable std::mutex stats_mutex_;
  Stats stats_;
};

}  // namespace sight

#endif  // SIGHT_SERVICE_RISK_SERVICE_H_
