// Network Similarity Groups (the paper's Definition 1).
//
// Strangers are partitioned into alpha disjoint groups by their NS value
// with the owner: group x (1-based in the paper, 0-based here) holds the
// strangers with NS in [x/alpha, (x+1)/alpha), the last group including 1.

#ifndef SIGHT_CORE_NSG_H_
#define SIGHT_CORE_NSG_H_

#include <vector>

#include "graph/types.h"
#include "util/status.h"

namespace sight {

/// The alpha groups of Definition 1 for one owner.
class NetworkSimilarityGroups {
 public:
  /// Builds groups from parallel vectors of strangers and their NS values
  /// (each in [0, 1]).
  [[nodiscard]]
  static Result<NetworkSimilarityGroups> Build(
      size_t alpha, const std::vector<UserId>& strangers,
      const std::vector<double>& similarities);

  /// The Definition 1 bin of one NS value among `alpha` > 0 groups.
  /// OutOfRange for a value outside [0, 1], NaN included.
  [[nodiscard]] static Result<size_t> GroupOf(double ns, size_t alpha);

  size_t alpha() const { return groups_.size(); }

  /// Strangers in group x (ascending NS ranges as x grows).
  const std::vector<UserId>& group(size_t x) const { return groups_[x]; }

  /// Group index of the i-th input stranger.
  size_t group_of(size_t stranger_position) const {
    return assignment_[stranger_position];
  }

  /// Member count per group (the Fig. 4 series).
  std::vector<size_t> GroupSizes() const;

  /// Index of the highest non-empty group, or SIZE_MAX when all empty.
  size_t HighestNonEmptyGroup() const;

 private:
  std::vector<std::vector<UserId>> groups_;
  std::vector<size_t> assignment_;
};

}  // namespace sight

#endif  // SIGHT_CORE_NSG_H_
