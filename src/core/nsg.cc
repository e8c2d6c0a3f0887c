#include "core/nsg.h"

#include "util/string_util.h"

namespace sight {

Result<NetworkSimilarityGroups> NetworkSimilarityGroups::Build(
    size_t alpha, const std::vector<UserId>& strangers,
    const std::vector<double>& similarities) {
  if (alpha == 0) {
    return Status::InvalidArgument("alpha must be positive");
  }
  if (strangers.size() != similarities.size()) {
    return Status::InvalidArgument(
        StrFormat("strangers/similarities size mismatch: %zu vs %zu",
                  strangers.size(), similarities.size()));
  }
  NetworkSimilarityGroups result;
  result.groups_.resize(alpha);
  result.assignment_.reserve(strangers.size());
  for (size_t i = 0; i < strangers.size(); ++i) {
    SIGHT_ASSIGN_OR_RETURN(size_t x, GroupOf(similarities[i], alpha));
    result.groups_[x].push_back(strangers[i]);
    result.assignment_.push_back(x);
  }
  return result;
}

Result<size_t> NetworkSimilarityGroups::GroupOf(double ns, size_t alpha) {
  // Negated so NaN, which fails every comparison, is rejected too.
  if (!(ns >= 0.0 && ns <= 1.0)) {
    return Status::OutOfRange(
        StrFormat("network similarity %f outside [0, 1]", ns));
  }
  size_t x = static_cast<size_t>(ns * static_cast<double>(alpha));
  return x < alpha ? x : alpha - 1;  // ns == 1 goes to the last group
}

std::vector<size_t> NetworkSimilarityGroups::GroupSizes() const {
  std::vector<size_t> sizes;
  sizes.reserve(groups_.size());
  for (const auto& g : groups_) sizes.push_back(g.size());
  return sizes;
}

size_t NetworkSimilarityGroups::HighestNonEmptyGroup() const {
  for (size_t x = groups_.size(); x-- > 0;) {
    if (!groups_[x].empty()) return x;
  }
  return SIZE_MAX;
}

}  // namespace sight
