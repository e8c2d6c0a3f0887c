// Squeezer: one-pass clustering of categorical data (He, Xu, Deng 2002),
// adapted to OSN profiles as in the risk paper's Definition 2.
//
// The algorithm makes a single pass over the input. The first record forms
// the first cluster; each further record s is compared against every
// existing cluster c with
//
//   Sim(s, c) = sum_i w_i * Sup(s.pa_i) / sum_{x in VAL_i(c)} Sup(x)
//
// where Sup(x) is the number of members of c whose attribute i equals x.
// s joins the most similar cluster if that similarity reaches the threshold
// beta, otherwise it starts a new cluster. Weights w_i let callers emphasize
// attributes (the paper mines them via information gain ratio).
//
// Sim(s, c) needs only whether two values are equal, so the squeezer
// dictionary-encodes each arriving profile once, on entry (Cluster, Add,
// AddBatch), through its own ProfileCodec. Cluster summaries and the
// similarity below them see only code rows: a support lookup is a
// code-indexed array load.

#ifndef SIGHT_CLUSTERING_SQUEEZER_H_
#define SIGHT_CLUSTERING_SQUEEZER_H_

#include <cstdint>
#include <vector>

#include "graph/profile.h"
#include "graph/profile_codec.h"
#include "graph/types.h"
#include "util/status.h"

namespace sight {

/// Incremental per-cluster value supports (the "cluster summary" of the
/// Squeezer paper): for each attribute, value -> member count, stored as
/// code-indexed vectors.
class ClusterSummary {
 public:
  explicit ClusterSummary(size_t num_attributes)
      : supports_(num_attributes), totals_(num_attributes, 0) {}

  /// Adds one member's code row (num_attributes codes; missing values
  /// skipped).
  void AddCodes(const uint32_t* codes);

  /// Sup() by dictionary code: members of this cluster with that value.
  /// Codes this summary never saw (including ProfileCodec::kUnknownValue)
  /// read as 0.
  size_t SupportByCode(AttributeId attr, uint32_t code) const {
    if (attr >= supports_.size()) return 0;
    const std::vector<size_t>& s = supports_[attr];
    return code < s.size() ? s[code] : 0;
  }

  /// Sum of supports over all values of `attr` (= members with a
  /// non-missing value for attr).
  size_t TotalSupport(AttributeId attr) const;

  size_t size() const { return size_; }

 private:
  std::vector<std::vector<size_t>> supports_;  // [attr][code]
  std::vector<size_t> totals_;
  size_t size_ = 0;
};

/// Result of a clustering run: cluster id per input position plus member
/// lists.
struct Clustering {
  /// assignments[i] = cluster of users[i].
  std::vector<size_t> assignments;
  /// clusters[c] = user ids in cluster c, in insertion order.
  std::vector<std::vector<UserId>> clusters;

  size_t num_clusters() const { return clusters.size(); }
};

/// Squeezer configuration.
struct SqueezerConfig {
  /// Similarity threshold beta in [0, 1] for joining an existing cluster
  /// (the paper uses 0.4).
  double threshold = 0.4;
  /// Per-attribute weights; empty = uniform. Normalized to sum 1 by
  /// NormalizeAttributeWeights, which rejects non-finite weights.
  std::vector<double> weights;
};

class IncrementalSqueezer;

/// One-pass categorical clusterer.
class Squeezer {
 public:
  [[nodiscard]]
  static Result<Squeezer> Create(const ProfileSchema& schema,
                                 SqueezerConfig config);

  /// out[c] = Definition 2 similarity of the code row `codes` to the
  /// cluster summarized by summaries[c], for c in [0, count); in [0, 1]
  /// since the weights sum to 1, and 0 for an empty cluster. Runs
  /// attribute-outer so the row's missing-value skips and weight loads
  /// are hoisted out of the per-cluster loop; each out[c] still sums its
  /// contributions in ascending attribute order.
  void SimilarityBatch(const uint32_t* codes, const ClusterSummary* summaries,
                       size_t count, double* out) const;

  /// Clusters `users` (profiles from `table`) in the given order.
  [[nodiscard]]
  Result<Clustering> Cluster(const ProfileTable& table,
                             const std::vector<UserId>& users) const;

  /// An empty IncrementalSqueezer configured exactly as Cluster()'s
  /// internal one (same threshold, same weight-normalization chain), so
  /// feeding it a sequence in batches yields the clustering Cluster()
  /// computes for the whole sequence, bitwise — the carried-partition
  /// arrangement of the serving flow (DESIGN.md §14).
  [[nodiscard]]
  Result<IncrementalSqueezer> MakeIncremental(
      const ProfileSchema& schema) const;

  double threshold() const { return threshold_; }
  const std::vector<double>& normalized_weights() const { return weights_; }

 private:
  friend class IncrementalSqueezer;

  Squeezer(double threshold, std::vector<double> weights)
      : threshold_(threshold), weights_(std::move(weights)) {}

  double threshold_;
  std::vector<double> weights_;
};

/// Stateful Squeezer for incrementally arriving data (the crawler flow):
/// cluster summaries stay alive between batches, so a stranger discovered
/// next week joins the cluster its profile matches today — assignments
/// never change retroactively, exactly the one-pass semantics of the
/// batch algorithm stretched over time. The squeezer's dictionary grows
/// with the data; codes once assigned never change, so summaries stay
/// valid.
class IncrementalSqueezer {
 public:
  [[nodiscard]]
  static Result<IncrementalSqueezer> Create(const ProfileSchema& schema,
                                            SqueezerConfig config);

  /// Assigns `user` (profile from `table`) to the best cluster, creating
  /// a new one below the threshold; returns the cluster index.
  [[nodiscard]] Result<size_t> Add(const ProfileTable& table, UserId user);

  /// Adds users in order; returns their cluster indices.
  [[nodiscard]]
  Result<std::vector<size_t>> AddBatch(const ProfileTable& table,
                                       const std::vector<UserId>& users);

  /// Assignments/membership of everything added so far.
  const Clustering& clustering() const { return clustering_; }
  size_t num_clusters() const { return summaries_.size(); }
  size_t num_points() const { return clustering_.assignments.size(); }

 private:
  IncrementalSqueezer(Squeezer squeezer, size_t num_attributes)
      : squeezer_(std::move(squeezer)), num_attributes_(num_attributes),
        codec_(num_attributes), code_buf_(num_attributes) {}

  Squeezer squeezer_;
  size_t num_attributes_;
  ProfileCodec codec_;
  std::vector<uint32_t> code_buf_;  // scratch row for the profile at hand
  std::vector<double> sim_buf_;     // scratch per-cluster similarities
  std::vector<ClusterSummary> summaries_;
  Clustering clustering_;
};

}  // namespace sight

#endif  // SIGHT_CLUSTERING_SQUEEZER_H_
