#include "similarity/network_similarity.h"

#include "graph/algorithms.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace sight {

Status NetworkSimilarityConfig::Validate() const {
  if (!(mutual_weight >= 0.0 && mutual_weight <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("mutual_weight %f not in [0, 1]", mutual_weight));
  }
  if (!(saturation > 0.0)) {
    return Status::InvalidArgument(
        StrFormat("saturation %f must be positive", saturation));
  }
  return Status::OK();
}

Result<NetworkSimilarity> NetworkSimilarity::Create(
    NetworkSimilarityConfig config) {
  SIGHT_RETURN_IF_ERROR(config.Validate());
  return NetworkSimilarity(config);
}

double NetworkSimilarity::Compute(const SocialGraph& graph, UserId owner,
                                  UserId stranger) const {
  std::vector<UserId> mutual = MutualFriends(graph, owner, stranger);
  if (mutual.empty()) return 0.0;
  double m = static_cast<double>(mutual.size());
  double count_term = m / (m + config_.saturation);
  double density_term = InducedDensity(graph, mutual);
  return config_.mutual_weight * count_term +
         (1.0 - config_.mutual_weight) * density_term;
}

std::vector<double> NetworkSimilarity::ComputeBatch(
    const SocialGraph& graph, UserId owner,
    const std::vector<UserId>& strangers, ThreadPool* pool) const {
  std::vector<double> result(strangers.size(), 0.0);
  ParallelFor(pool, strangers.size(), [&](size_t i) {
    result[i] = Compute(graph, owner, strangers[i]);
  });
  return result;
}

}  // namespace sight
