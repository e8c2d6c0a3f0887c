// RiskEngine: the batch assessment core of the Sight library.
//
// Wires together the full pipeline of the paper: two-hop stranger
// enumeration -> network similarity -> Definition 1/3 pools -> benefit
// computation -> active learning with a graph-based classifier -> a risk
// label for every stranger of the owner.
//
// DEPRECATED as a front door: constructing a RiskEngine per owner (or
// per crawler tick) rebuilds codecs, frequency tables, and learners
// from scratch every call. New code should go through the resident
// `RiskService` (service/risk_service.h), which shards owner state,
// carries learners across ticks, and exposes async Submit/Poll as well
// as a bitwise-identical synchronous path. See DESIGN.md §13 for the
// old->new API map. RiskEngine remains the internal execution core the
// service drives.
//
//   RiskEngineConfig config;                    // paper defaults
//   auto engine = RiskEngine::Create(config).value();
//   auto report = engine.AssessOwner(graph, profiles, visibility,
//                                    owner, &oracle, &rng).value();
//   for (const auto& sa : report.assessment.strangers) { ... }

#ifndef SIGHT_CORE_RISK_ENGINE_H_
#define SIGHT_CORE_RISK_ENGINE_H_

#include <memory>
#include <vector>

#include "core/active_learner.h"
#include "core/benefit.h"
#include "core/pool_builder.h"
#include "graph/profile.h"
#include "graph/social_graph.h"
#include "graph/visibility.h"
#include "learning/baselines.h"
#include "learning/harmonic.h"
#include "learning/multiclass_harmonic.h"
#include "learning/sampling.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sight {

enum class ClassifierKind {
  /// Zhu et al. harmonic functions, ordinal embedding (the paper's
  /// choice, compact form).
  kHarmonic,
  /// Zhu et al.'s full multiclass formulation with Class Mass
  /// Normalization (one harmonic solve per risk class).
  kHarmonicCmn,
  /// Weighted kNN baseline.
  kKnn,
  /// Majority-label baseline.
  kMajority,
};

enum class SamplerKind {
  /// Uniform pool sampling (the paper's choice).
  kRandom,
  /// Maximum-ambiguity sampling (extension).
  kUncertainty,
};

struct RiskEngineConfig {
  PoolBuilderConfig pools;
  ActiveLearnerConfig learner;
  /// Owner-assigned benefit coefficients (paper Table III averages by
  /// default).
  ThetaWeights theta = ThetaWeights::PaperTable3();
  ClassifierKind classifier = ClassifierKind::kHarmonic;
  HarmonicConfig harmonic;
  size_t knn_k = 5;
  SamplerKind sampler = SamplerKind::kRandom;
  /// Worker threads for the parallel pipeline phases: the NS batches
  /// and the per-class harmonic (CMN) solves. The similarity-graph
  /// build runs on the calling thread (ps_kernels::BuildGraphs).
  /// 1 = fully serial, no pool at all (the default);
  /// 0 = hardware concurrency. Ignored when `thread_pool` is set.
  /// Assessments are deterministic and identical at every setting.
  size_t num_threads = 1;
  /// Optional caller-owned pool shared across engines/owners (non-owning;
  /// must outlive the engine). Overrides `num_threads`.
  ThreadPool* thread_pool = nullptr;
};

/// What the resident caches did for one assessment (all zero/false on
/// cold calls, whose caches are fresh and die with the call).
struct CarryTelemetry {
  /// The carried pool partition was reused (identical or grown set).
  bool partition_reused = false;
  /// Strangers routed through the carried squeezers this tick (the
  /// whole list on a partition rebuild).
  size_t partition_new_strangers = 0;
  /// The carried owner-level encode was reused (rows appended, not
  /// rebuilt).
  bool encode_reused = false;
  /// Rows the encode stage actually encoded this tick.
  size_t encode_rows_appended = 0;
};

/// Everything produced by one owner assessment.
struct RiskReport {
  AssessmentResult assessment;
  /// Sizes of the pools the learner ran on.
  std::vector<size_t> pool_sizes;
  size_t num_strangers = 0;
  size_t num_pools = 0;
  CarryTelemetry carry;
};

/// Cross-tick carry bundle for one owner (the resident-service flow,
/// DESIGN.md §14): the finished PoolLearners of the previous tick, the
/// carried NS/NSG/Squeezer pool partition, and the owner-level encoded
/// profile table. Every assessment runs its stages on one — a cold call
/// on a fresh bundle of its own. Each layer fingerprints its own inputs
/// and falls back to a cold rebuild independently; on top of that, the
/// engine drops the learner carry whenever the graph, profile, or
/// visibility tables mutated since the carry was filled (their
/// fingerprints cannot see upstream edits that keep pool membership
/// stable).
struct AssessCarry {
  LearnerCarry learners;
  PoolPartitionCache partition;
  StrangerEncodeCache encode;

  /// Drops the learner carry when any upstream table's version
  /// (graph/table_version.h) changed since the last call; records the
  /// current versions either way. Called by the engine at the top of
  /// every incremental assessment.
  void InvalidateOnUpstreamChange(const SocialGraph& graph,
                                  const ProfileTable& profiles,
                                  const VisibilityTable& visibility);

 private:
  TableVersion graph_version_;
  TableVersion profiles_version_;
  TableVersion visibility_version_;
};

class RiskEngine {
 public:
  /// Validates the configuration and instantiates classifier + sampler.
  [[nodiscard]] static Result<RiskEngine> Create(RiskEngineConfig config);

  RiskEngine(RiskEngine&&) = default;
  RiskEngine& operator=(RiskEngine&&) = default;

  /// Runs the full pipeline for `owner`. The oracle is queried
  /// labels_per_round strangers per pool per round until every pool meets
  /// the Section III-D stopping condition.
  [[nodiscard]]
  Result<RiskReport> AssessOwner(const SocialGraph& graph,
                                 const ProfileTable& profiles,
                                 const VisibilityTable& visibility,
                                 UserId owner, LabelOracle* oracle,
                                 Rng* rng) const;

  /// Variant over an explicit stranger set (incremental-crawler flow).
  /// Each stranger must be a user of `graph` other than `owner`, listed
  /// once; otherwise the call is InvalidArgument and asks nothing.
  /// Strangers in `known_labels` (optional) start out owner-labeled; the
  /// oracle is only queried for the rest. Strangers in `prior_scores`
  /// (optional) seed the pools' first solves with the previous tick's
  /// predicted scores (warm start across ticks). RiskService manages
  /// both maps automatically. Runs AssessIncremental's stages on a fresh
  /// carry that dies with the call.
  [[nodiscard]]
  Result<RiskReport> AssessStrangers(
      const SocialGraph& graph, const ProfileTable& profiles,
      const VisibilityTable& visibility, UserId owner,
      std::vector<UserId> strangers, LabelOracle* oracle, Rng* rng,
      const PoolLearner::KnownLabels* known_labels = nullptr,
      const PoolLearner::KnownLabels* prior_scores = nullptr) const;

  /// AssessStrangers plus cross-tick reuse of the carry bundle:
  /// finished PoolLearners stashed in `carry` by a previous call are
  /// resumed when their pool's member list and owner labels are
  /// unchanged (stale state is rejected by those fingerprint checks),
  /// the pool partition is carried so an unchanged/grown stranger set
  /// skips the NS/NSG/Squeezer rebuild, and the owner-level encode is
  /// carried so only newly discovered strangers are re-encoded. After
  /// the run, the new learners are harvested back into `carry` for the
  /// next tick. `carry` may be empty but not null; pass distinct
  /// carries for distinct owners. Drives RiskService's warm path;
  /// results are bitwise-identical to AssessStrangers.
  [[nodiscard]]
  Result<RiskReport> AssessIncremental(
      const SocialGraph& graph, const ProfileTable& profiles,
      const VisibilityTable& visibility, UserId owner,
      std::vector<UserId> strangers, LabelOracle* oracle, Rng* rng,
      const PoolLearner::KnownLabels* known_labels,
      const PoolLearner::KnownLabels* prior_scores, AssessCarry* carry) const;

  const RiskEngineConfig& config() const { return config_; }

 private:
  explicit RiskEngine(RiskEngineConfig config);

  [[nodiscard]]
  Result<RiskReport> AssessImpl(const SocialGraph& graph,
                                const ProfileTable& profiles,
                                const VisibilityTable& visibility, UserId owner,
                                std::vector<UserId> strangers,
                                LabelOracle* oracle, Rng* rng,
                                const PoolLearner::KnownLabels* known_labels,
                                const PoolLearner::KnownLabels* prior_scores,
                                AssessCarry* carry) const;

  /// The pool the pipeline phases run on: the caller's, else the engine's
  /// own (num_threads != 1), else null (serial).
  ThreadPool* effective_pool() const {
    return config_.thread_pool != nullptr ? config_.thread_pool
                                          : owned_pool_.get();
  }

  RiskEngineConfig config_;
  std::unique_ptr<ThreadPool> owned_pool_;
  std::unique_ptr<GraphClassifier> classifier_;
  std::unique_ptr<Sampler> sampler_;
};

}  // namespace sight

#endif  // SIGHT_CORE_RISK_ENGINE_H_
