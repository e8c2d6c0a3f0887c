#include "core/risk_engine.h"

#include "graph/algorithms.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace sight {

void AssessCarry::InvalidateOnUpstreamChange(
    const SocialGraph& graph, const ProfileTable& profiles,
    const VisibilityTable& visibility) {
  // Carried learners bake in profile-similarity matrices (profiles),
  // display similarities (graph) and display benefits (visibility);
  // their CanResume fingerprint only sees pool membership and labels, so
  // any upstream edit drops them here. The partition and encode caches
  // re-check their own fingerprints per build and need no help.
  bool changed = graph_version_ != graph.version() ||
                 profiles_version_ != profiles.version() ||
                 visibility_version_ != visibility.version();
  if (changed) learners.Clear();
  graph_version_ = graph.version();
  profiles_version_ = profiles.version();
  visibility_version_ = visibility.version();
}

RiskEngine::RiskEngine(RiskEngineConfig config)
    : config_(std::move(config)) {}

Result<RiskEngine> RiskEngine::Create(RiskEngineConfig config) {
  SIGHT_RETURN_IF_ERROR(config.learner.Validate());
  SIGHT_RETURN_IF_ERROR(config.theta.Validate());
  RiskEngine engine(std::move(config));

  // The pool must exist before the classifiers so kHarmonicCmn can run
  // its per-class solves on it.
  if (engine.config_.thread_pool == nullptr &&
      engine.config_.num_threads != 1) {
    engine.owned_pool_ =
        std::make_unique<ThreadPool>(engine.config_.num_threads);
  }

  switch (engine.config_.classifier) {
    case ClassifierKind::kHarmonic: {
      SIGHT_ASSIGN_OR_RETURN(
          HarmonicFunctionClassifier harmonic,
          HarmonicFunctionClassifier::Create(engine.config_.harmonic));
      engine.classifier_ =
          std::make_unique<HarmonicFunctionClassifier>(std::move(harmonic));
      break;
    }
    case ClassifierKind::kHarmonicCmn: {
      MulticlassHarmonicConfig mc_config;
      mc_config.solver = engine.config_.harmonic;
      mc_config.label_min = kRiskLabelMin;
      mc_config.label_max = kRiskLabelMax;
      mc_config.thread_pool = engine.effective_pool();
      SIGHT_ASSIGN_OR_RETURN(
          MulticlassHarmonicClassifier multiclass,
          MulticlassHarmonicClassifier::Create(mc_config));
      engine.classifier_ = std::make_unique<MulticlassHarmonicClassifier>(
          std::move(multiclass));
      break;
    }
    case ClassifierKind::kKnn: {
      SIGHT_ASSIGN_OR_RETURN(KnnClassifier knn,
                             KnnClassifier::Create(engine.config_.knn_k));
      engine.classifier_ = std::make_unique<KnnClassifier>(std::move(knn));
      break;
    }
    case ClassifierKind::kMajority:
      engine.classifier_ = std::make_unique<MajorityClassifier>();
      break;
  }

  switch (engine.config_.sampler) {
    case SamplerKind::kRandom:
      engine.sampler_ = std::make_unique<RandomSampler>();
      break;
    case SamplerKind::kUncertainty:
      engine.sampler_ = std::make_unique<UncertaintySampler>();
      break;
  }
  return engine;
}

Result<RiskReport> RiskEngine::AssessOwner(const SocialGraph& graph,
                                           const ProfileTable& profiles,
                                           const VisibilityTable& visibility,
                                           UserId owner, LabelOracle* oracle,
                                           Rng* rng) const {
  SIGHT_ASSIGN_OR_RETURN(std::vector<UserId> strangers,
                         TwoHopStrangers(graph, owner));
  return AssessStrangers(graph, profiles, visibility, owner,
                         std::move(strangers), oracle, rng);
}

Result<RiskReport> RiskEngine::AssessStrangers(
    const SocialGraph& graph, const ProfileTable& profiles,
    const VisibilityTable& visibility, UserId owner,
    std::vector<UserId> strangers, LabelOracle* oracle, Rng* rng,
    const PoolLearner::KnownLabels* known_labels,
    const PoolLearner::KnownLabels* prior_scores) const {
  return AssessImpl(graph, profiles, visibility, owner, std::move(strangers),
                    oracle, rng, known_labels, prior_scores,
                    /*carry=*/nullptr);
}

Result<RiskReport> RiskEngine::AssessIncremental(
    const SocialGraph& graph, const ProfileTable& profiles,
    const VisibilityTable& visibility, UserId owner,
    std::vector<UserId> strangers, LabelOracle* oracle, Rng* rng,
    const PoolLearner::KnownLabels* known_labels,
    const PoolLearner::KnownLabels* prior_scores, AssessCarry* carry) const {
  SIGHT_CHECK(carry != nullptr);
  return AssessImpl(graph, profiles, visibility, owner, std::move(strangers),
                    oracle, rng, known_labels, prior_scores, carry);
}

Result<RiskReport> RiskEngine::AssessImpl(
    const SocialGraph& graph, const ProfileTable& profiles,
    const VisibilityTable& visibility, UserId owner,
    std::vector<UserId> strangers, LabelOracle* oracle, Rng* rng,
    const PoolLearner::KnownLabels* known_labels,
    const PoolLearner::KnownLabels* prior_scores, AssessCarry* carry) const {
  // Every stranger is a user of the graph other than the owner, listed
  // once; anything else is rejected before the oracle hears a question.
  std::vector<bool> listed(graph.NumUsers(), false);
  for (UserId stranger : strangers) {
    if (!graph.HasUser(stranger) || stranger == owner) {
      return Status::InvalidArgument(StrFormat(
          "stranger %u is not a user of the graph other than the owner",
          stranger));
    }
    if (listed[stranger]) {
      return Status::InvalidArgument(
          StrFormat("stranger %u is listed twice", stranger));
    }
    listed[stranger] = true;
  }

  RiskReport report;
  // One path for every call: the stages always run on an AssessCarry.
  // Without the caller's, they run on fresh caches that die with the
  // call, so nothing is harvested and the telemetry stays all zero.
  AssessCarry fresh;
  AssessCarry* stages = carry != nullptr ? carry : &fresh;
  stages->InvalidateOnUpstreamChange(graph, profiles, visibility);

  PoolBuilderConfig pool_config = config_.pools;
  pool_config.thread_pool = effective_pool();
  SIGHT_ASSIGN_OR_RETURN(PoolBuilder builder,
                         PoolBuilder::Create(std::move(pool_config)));
  size_t known = stages->partition.num_strangers();
  size_t total = strangers.size();
  size_t misses_before = stages->partition.stats().misses;
  SIGHT_ASSIGN_OR_RETURN(
      PoolSet pools,
      builder.BuildForStrangersCached(graph, profiles, owner,
                                      std::move(strangers),
                                      &stages->partition));

  SIGHT_ASSIGN_OR_RETURN(BenefitModel benefit,
                         BenefitModel::Create(config_.theta));
  std::vector<double> benefits =
      benefit.ComputeBatch(visibility, pools.strangers);

  StrangerEncodeCache::RefreshResult refreshed =
      stages->encode.Refresh(profiles, pools.strangers);
  if (carry != nullptr) {
    // The cache's own counters are the ground truth: a cold rebuild of
    // an already-full cache leaves num_strangers() unchanged and would
    // otherwise masquerade as a reuse.
    report.carry.partition_reused =
        carry->partition.stats().misses == misses_before;
    report.carry.partition_new_strangers =
        report.carry.partition_reused ? total - known : total;
    report.carry.encode_reused = refreshed.reused;
    report.carry.encode_rows_appended = refreshed.rows_appended;
  }

  SIGHT_ASSIGN_OR_RETURN(
      ActiveLearner learner,
      ActiveLearner::Create(pools, profiles, std::move(benefits),
                            config_.learner, classifier_.get(), sampler_.get(),
                            known_labels, prior_scores, &stages->learners,
                            &stages->encode));

  SIGHT_ASSIGN_OR_RETURN(report.assessment, learner.Run(oracle, rng));
  if (carry != nullptr) learner.HarvestInto(&carry->learners);
  report.num_strangers = pools.TotalStrangers();
  report.num_pools = pools.pools.size();
  report.pool_sizes.reserve(pools.pools.size());
  for (const StrangerPool& pool : pools.pools) {
    report.pool_sizes.push_back(pool.members.size());
  }
  return report;
}

}  // namespace sight
