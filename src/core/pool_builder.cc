#include "core/pool_builder.h"

#include "graph/algorithms.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace sight {

void PoolPartitionCache::Clear() {
  valid_ = false;
  graph_version_ = {};
  profiles_version_ = {};
  owner_ = kInvalidUser;
  strangers_.clear();
  ns_.clear();
  group_members_.clear();
  squeezers_.clear();
}

Result<PoolBuilder> PoolBuilder::Create(PoolBuilderConfig config) {
  if (config.alpha == 0) {
    return Status::InvalidArgument("alpha must be positive");
  }
  if (!(config.beta >= 0.0 && config.beta <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("beta %f not in [0, 1]", config.beta));
  }
  SIGHT_RETURN_IF_ERROR(config.ns_config.Validate());
  return PoolBuilder(std::move(config));
}

Result<PoolSet> PoolBuilder::Build(const SocialGraph& graph,
                                   const ProfileTable& profiles,
                                   UserId owner) const {
  SIGHT_ASSIGN_OR_RETURN(std::vector<UserId> strangers,
                         TwoHopStrangers(graph, owner));
  return BuildForStrangers(graph, profiles, owner, std::move(strangers));
}

Result<PoolSet> PoolBuilder::BuildForStrangers(
    const SocialGraph& graph, const ProfileTable& profiles, UserId owner,
    std::vector<UserId> strangers) const {
  PoolPartitionCache fresh;
  return BuildForStrangersCached(graph, profiles, owner, std::move(strangers),
                                 &fresh);
}

Result<PoolSet> PoolBuilder::BuildForStrangersCached(
    const SocialGraph& graph, const ProfileTable& profiles, UserId owner,
    std::vector<UserId> strangers, PoolPartitionCache* cache) const {
  SIGHT_CHECK(cache != nullptr);
  bool reuse =
      cache->valid_ && cache->graph_version_ == graph.version() &&
      cache->profiles_version_ == profiles.version() &&
      cache->owner_ == owner && cache->alpha_ == config_.alpha &&
      cache->beta_ == config_.beta && cache->strategy_ == config_.strategy &&
      cache->attribute_weights_ == config_.attribute_weights &&
      cache->ns_config_.mutual_weight == config_.ns_config.mutual_weight &&
      cache->ns_config_.saturation == config_.ns_config.saturation &&
      cache->strangers_.size() <= strangers.size();
  if (reuse) {
    // Discovery is append-only in the serving flow; any reordering or
    // removal breaks the prefix and rebuilds cold.
    for (size_t i = 0; i < cache->strangers_.size(); ++i) {
      if (cache->strangers_[i] != strangers[i]) {
        reuse = false;
        break;
      }
    }
  }

  size_t start = 0;
  if (!reuse) {
    cache->Clear();
    cache->group_members_.assign(config_.alpha, {});
    cache->squeezers_.resize(config_.alpha);
    cache->graph_version_ = graph.version();
    cache->profiles_version_ = profiles.version();
    cache->owner_ = owner;
    cache->alpha_ = config_.alpha;
    cache->beta_ = config_.beta;
    cache->strategy_ = config_.strategy;
    cache->attribute_weights_ = config_.attribute_weights;
    cache->ns_config_ = config_.ns_config;
    ++cache->stats_.misses;
  } else {
    // Invalid until the suffix lands: an error below must not leave a
    // half-applied partition marked reusable.
    cache->valid_ = false;
    start = cache->strangers_.size();
    if (start == strangers.size()) {
      ++cache->stats_.hits_identical;
    } else {
      ++cache->stats_.hits_grown;
    }
  }

  if (start < strangers.size()) {
    std::vector<UserId> suffix(
        strangers.begin() + static_cast<ptrdiff_t>(start), strangers.end());
    SIGHT_ASSIGN_OR_RETURN(NetworkSimilarity ns,
                           NetworkSimilarity::Create(config_.ns_config));
    std::vector<double> suffix_ns =
        ns.ComputeBatch(graph, owner, suffix, config_.thread_pool);
    std::optional<Squeezer> squeezer;
    if (config_.strategy == PoolStrategy::kNetworkAndProfile) {
      SqueezerConfig sq_config;
      sq_config.threshold = config_.beta;
      sq_config.weights = config_.attribute_weights;
      SIGHT_ASSIGN_OR_RETURN(Squeezer created,
                             Squeezer::Create(profiles.schema(), sq_config));
      squeezer.emplace(std::move(created));
    }
    for (size_t k = 0; k < suffix.size(); ++k) {
      SIGHT_ASSIGN_OR_RETURN(
          size_t x,
          NetworkSimilarityGroups::GroupOf(suffix_ns[k], config_.alpha));
      cache->group_members_[x].push_back(suffix[k]);
      if (squeezer.has_value()) {
        if (!cache->squeezers_[x].has_value()) {
          SIGHT_ASSIGN_OR_RETURN(IncrementalSqueezer incremental,
                                 squeezer->MakeIncremental(profiles.schema()));
          cache->squeezers_[x].emplace(std::move(incremental));
        }
        SIGHT_RETURN_IF_ERROR(
            cache->squeezers_[x]->Add(profiles, suffix[k]).status());
      }
      cache->strangers_.push_back(suffix[k]);
      cache->ns_.push_back(suffix_ns[k]);
    }
  }
  cache->valid_ = true;

  // Materialize the pool set in Definition 3 order: groups in ascending
  // NSG order, clusters in creation order, members in insertion order —
  // report ordering and the shared learner Rng stream depend on it.
  PoolSet result;
  result.strangers = cache->strangers_;
  result.network_similarities = cache->ns_;
  for (size_t x = 0; x < config_.alpha; ++x) {
    if (config_.strategy == PoolStrategy::kNetworkOnly) {
      if (cache->group_members_[x].empty()) continue;
      StrangerPool pool;
      pool.members = cache->group_members_[x];
      pool.nsg_index = x;
      pool.cluster_index = 0;
      result.pools.push_back(std::move(pool));
      continue;
    }
    if (!cache->squeezers_[x].has_value()) continue;
    const Clustering& clustering = cache->squeezers_[x]->clustering();
    for (size_t c = 0; c < clustering.num_clusters(); ++c) {
      StrangerPool pool;
      pool.members = clustering.clusters[c];
      pool.nsg_index = x;
      pool.cluster_index = c;
      result.pools.push_back(std::move(pool));
    }
  }
  return result;
}

}  // namespace sight
