// Structural graph algorithms used by the risk pipeline.
//
// Everything here operates on a const SocialGraph. The heavy hitters are
// MutualFriends (sorted-list intersection) and TwoHopStrangers (the paper's
// stranger set: friends-of-friends that are neither the owner nor a direct
// friend).

#ifndef SIGHT_GRAPH_ALGORITHMS_H_
#define SIGHT_GRAPH_ALGORITHMS_H_

#include <cstdint>
#include <vector>

#include "graph/social_graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace sight {

/// Sorted intersection of the two users' neighbor lists.
std::vector<UserId> MutualFriends(const SocialGraph& graph, UserId a,
                                  UserId b);

/// Number of mutual friends without materializing the set.
size_t MutualFriendCount(const SocialGraph& graph, UserId a, UserId b);

/// Number of edges of `graph` whose endpoints are both in `users`.
/// `users` must be strictly increasing (sorted, no duplicates); debug
/// builds check it. Ids the graph does not have add no edges. Each pair
/// is one binary search in the lower id's neighbor list, so m users of
/// degree d cost O(m^2 log d).
size_t InducedEdgeCount(const SocialGraph& graph,
                        const std::vector<UserId>& users);

/// Edge density of the induced subgraph: edges / (n choose 2).
/// Defined as 0 for fewer than two vertices.
double InducedDensity(const SocialGraph& graph,
                      const std::vector<UserId>& users);

/// The paper's strangers of `owner`: every user at exactly distance 2
/// (a friend of a friend that is neither the owner nor one of the owner's
/// friends). Sorted ascending. Error for unknown owner.
[[nodiscard]]
Result<std::vector<UserId>> TwoHopStrangers(const SocialGraph& graph,
                                            UserId owner);

/// BFS hop distances from `source`; unreachable = SIZE_MAX.
[[nodiscard]]
Result<std::vector<size_t>> BfsDistances(const SocialGraph& graph,
                                         UserId source);

/// Local clustering coefficient of `u` (0 for degree < 2).
double LocalClusteringCoefficient(const SocialGraph& graph, UserId u);

/// Mean local clustering coefficient over all users (0 for empty graph).
double AverageClusteringCoefficient(const SocialGraph& graph);

/// Degree of each user, indexed by id.
std::vector<size_t> DegreeSequence(const SocialGraph& graph);

/// Number of connected components.
size_t CountConnectedComponents(const SocialGraph& graph);

}  // namespace sight

#endif  // SIGHT_GRAPH_ALGORITHMS_H_
