// Network and profile based pools (the paper's Definition 3).
//
// Pools are the sampling units of the active learner. The paper builds
// them in two levels: Definition 1 partitions strangers into alpha network
// similarity groups (NSG); within each group, Squeezer (Definition 2, with
// threshold beta) splits strangers by profile similarity. The union of all
// profile clusters over all groups is the pool set P_st ("NPP"). The
// evaluation also uses the NSG-only pools ("NSP") as the comparison point
// of Figs. 5-6.

#ifndef SIGHT_CORE_POOL_BUILDER_H_
#define SIGHT_CORE_POOL_BUILDER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "clustering/squeezer.h"
#include "core/nsg.h"
#include "graph/profile.h"
#include "graph/social_graph.h"
#include "graph/types.h"
#include "similarity/network_similarity.h"
#include "util/status.h"

namespace sight {

/// One disjoint pool of strangers.
struct StrangerPool {
  std::vector<UserId> members;
  /// Which network similarity group the pool came from.
  size_t nsg_index = 0;
  /// Profile-cluster index within the group (0 for NSG-only pools).
  size_t cluster_index = 0;
};

/// The pool set for one owner plus the data used to derive it.
struct PoolSet {
  std::vector<StrangerPool> pools;
  /// All strangers, in TwoHopStrangers order.
  std::vector<UserId> strangers;
  /// NS(owner, s) parallel to `strangers`.
  std::vector<double> network_similarities;

  size_t TotalStrangers() const { return strangers.size(); }
};

enum class PoolStrategy {
  /// Definition 3: NSG x Squeezer (the paper's proposal).
  kNetworkAndProfile,
  /// NSG only (the paper's comparison baseline of Figs. 5-6).
  kNetworkOnly,
};

struct PoolBuilderConfig {
  /// Number of network similarity groups (paper: 10).
  size_t alpha = 10;
  /// Squeezer new-cluster threshold (paper: 0.4).
  double beta = 0.4;
  /// Attribute weights for Squeezer; empty = uniform.
  std::vector<double> attribute_weights;
  NetworkSimilarityConfig ns_config;
  PoolStrategy strategy = PoolStrategy::kNetworkAndProfile;
  /// Optional worker pool for the per-stranger NS batch (non-owning; must
  /// outlive the builder). Null = serial; pools are identical either way.
  ThreadPool* thread_pool = nullptr;
};

/// Resident partition stage of the serving flow (DESIGN.md §14): the
/// NS values, NSG bins, and per-group IncrementalSqueezer summaries of
/// one owner's stranger list, carried across crawler ticks. Because
/// Squeezer is one-pass (Squeezer::Cluster literally delegates to
/// IncrementalSqueezer::AddBatch), clustering a carried prefix and then
/// feeding only the newly discovered suffix yields bitwise the same
/// partition as re-clustering the whole list — so an unchanged stranger
/// set reuses the partition outright and a grown one pays only for its
/// suffix. A fingerprint (graph/profile table versions, owner, builder
/// configuration) guards staleness; any mismatch falls back to a cold
/// rebuild through the same per-element path.
///
/// One cache serves one owner under one builder configuration. Not
/// thread-safe; the service keys it under the owner's state mutex.
class PoolPartitionCache {
 public:
  struct Stats {
    /// Refreshes that reused the carried partition with no new strangers.
    size_t hits_identical = 0;
    /// Refreshes that reused it and routed a suffix of new strangers
    /// through the carried squeezers.
    size_t hits_grown = 0;
    /// Cold rebuilds (first use, fingerprint mismatch, broken prefix).
    size_t misses = 0;
  };

  PoolPartitionCache() = default;
  PoolPartitionCache(PoolPartitionCache&&) = default;
  PoolPartitionCache& operator=(PoolPartitionCache&&) = default;

  const Stats& stats() const { return stats_; }
  size_t num_strangers() const { return strangers_.size(); }

  /// Drops the carried partition; the next build is a cold rebuild.
  void Clear();

 private:
  friend class PoolBuilder;

  bool valid_ = false;
  // Fingerprint of the inputs the carried partition was derived from.
  TableVersion graph_version_;
  TableVersion profiles_version_;
  UserId owner_ = kInvalidUser;
  size_t alpha_ = 0;
  double beta_ = 0.0;
  PoolStrategy strategy_ = PoolStrategy::kNetworkAndProfile;
  std::vector<double> attribute_weights_;
  NetworkSimilarityConfig ns_config_;
  // Carried state, parallel prefixes of the owner's stranger list.
  std::vector<UserId> strangers_;
  std::vector<double> ns_;
  std::vector<std::vector<UserId>> group_members_;          // [alpha]
  std::vector<std::optional<IncrementalSqueezer>> squeezers_;  // [alpha], NPP
  Stats stats_;
};

/// Builds the Definition 3 pool set for an owner.
class PoolBuilder {
 public:
  [[nodiscard]] static Result<PoolBuilder> Create(PoolBuilderConfig config);

  /// Enumerates the owner's strangers, computes NS, groups them, and
  /// (for kNetworkAndProfile) clusters each group with Squeezer. Pools are
  /// disjoint and cover every stranger.
  [[nodiscard]]
  Result<PoolSet> Build(const SocialGraph& graph, const ProfileTable& profiles,
                        UserId owner) const;

  /// Same, but over a caller-provided stranger set (used by the
  /// incremental crawler flow where discovery is partial): a
  /// BuildForStrangersCached on a fresh cache that dies with the call.
  [[nodiscard]]
  Result<PoolSet> BuildForStrangers(const SocialGraph& graph,
                                    const ProfileTable& profiles, UserId owner,
                                    std::vector<UserId> strangers) const;

  /// The partition stage itself, through a carried partition: when
  /// `cache` still fingerprints to (graph, profiles, owner, this config)
  /// and its carried strangers are a prefix of `strangers`, only the new
  /// suffix is NS-scored, binned, and squeezed; otherwise the cache is
  /// rebuilt from scratch. Because Squeezer is one-pass, the returned
  /// PoolSet is bitwise-identical on every path to a build on a fresh
  /// cache — pools materialize in the same (group, cluster) order with
  /// members in the same insertion order. On error the cache is
  /// invalidated (next call rebuilds).
  [[nodiscard]]
  Result<PoolSet> BuildForStrangersCached(const SocialGraph& graph,
                                          const ProfileTable& profiles,
                                          UserId owner,
                                          std::vector<UserId> strangers,
                                          PoolPartitionCache* cache) const;

  const PoolBuilderConfig& config() const { return config_; }

 private:
  explicit PoolBuilder(PoolBuilderConfig config)
      : config_(std::move(config)) {}

  PoolBuilderConfig config_;
};

}  // namespace sight

#endif  // SIGHT_CORE_POOL_BUILDER_H_
