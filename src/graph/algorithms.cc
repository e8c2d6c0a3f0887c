#include "graph/algorithms.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>

#include "util/logging.h"
#include "util/string_util.h"

namespace sight {

std::vector<UserId> MutualFriends(const SocialGraph& graph, UserId a,
                                  UserId b) {
  std::vector<UserId> result;
  if (!graph.HasUser(a) || !graph.HasUser(b)) return result;
  const auto& na = graph.Neighbors(a);
  const auto& nb = graph.Neighbors(b);
  result.reserve(std::min(na.size(), nb.size()));
  std::set_intersection(na.begin(), na.end(), nb.begin(), nb.end(),
                        std::back_inserter(result));
  return result;
}

size_t MutualFriendCount(const SocialGraph& graph, UserId a, UserId b) {
  if (!graph.HasUser(a) || !graph.HasUser(b)) return 0;
  const auto& na = graph.Neighbors(a);
  const auto& nb = graph.Neighbors(b);
  size_t count = 0;
  auto ia = na.begin();
  auto ib = nb.begin();
  while (ia != na.end() && ib != nb.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++count;
      ++ia;
      ++ib;
    }
  }
  return count;
}

size_t InducedEdgeCount(const SocialGraph& graph,
                        const std::vector<UserId>& users) {
  SIGHT_DCHECK(std::adjacent_find(users.begin(), users.end(),
                                  std::greater_equal<UserId>()) ==
               users.end());
  // Each pair u < v is one search in u's neighbor list. NS passes a
  // stranger's few mutual friends, who have hundreds of friends each, so
  // checking pairs beats scanning every neighbor list.
  size_t edges = 0;
  for (size_t i = 0; i < users.size(); ++i) {
    if (!graph.HasUser(users[i])) continue;
    const std::vector<UserId>& neighbors = graph.Neighbors(users[i]);
    for (size_t j = i + 1; j < users.size(); ++j) {
      if (std::binary_search(neighbors.begin(), neighbors.end(), users[j])) {
        ++edges;
      }
    }
  }
  return edges;
}

double InducedDensity(const SocialGraph& graph,
                      const std::vector<UserId>& users) {
  size_t n = users.size();
  if (n < 2) return 0.0;
  double possible = static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  return static_cast<double>(InducedEdgeCount(graph, users)) / possible;
}

Result<std::vector<UserId>> TwoHopStrangers(const SocialGraph& graph,
                                            UserId owner) {
  if (!graph.HasUser(owner)) {
    return Status::InvalidArgument(StrFormat("unknown owner %u", owner));
  }
  const auto& friends = graph.Neighbors(owner);
  std::vector<UserId> strangers;
  for (UserId f : friends) {
    for (UserId fof : graph.Neighbors(f)) {
      if (fof == owner) continue;
      strangers.push_back(fof);
    }
  }
  std::sort(strangers.begin(), strangers.end());
  strangers.erase(std::unique(strangers.begin(), strangers.end()),
                  strangers.end());
  // Remove direct friends (both lists sorted).
  std::vector<UserId> result;
  result.reserve(strangers.size());
  std::set_difference(strangers.begin(), strangers.end(), friends.begin(),
                      friends.end(), std::back_inserter(result));
  return result;
}

Result<std::vector<size_t>> BfsDistances(const SocialGraph& graph,
                                         UserId source) {
  if (!graph.HasUser(source)) {
    return Status::InvalidArgument(StrFormat("unknown source %u", source));
  }
  std::vector<size_t> dist(graph.NumUsers(),
                           std::numeric_limits<size_t>::max());
  std::deque<UserId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    UserId u = queue.front();
    queue.pop_front();
    for (UserId v : graph.Neighbors(u)) {
      if (dist[v] != std::numeric_limits<size_t>::max()) continue;
      dist[v] = dist[u] + 1;
      queue.push_back(v);
    }
  }
  return dist;
}

double LocalClusteringCoefficient(const SocialGraph& graph, UserId u) {
  if (!graph.HasUser(u)) return 0.0;
  const auto& neighbors = graph.Neighbors(u);
  size_t k = neighbors.size();
  if (k < 2) return 0.0;
  size_t links = InducedEdgeCount(graph, neighbors);
  double possible = static_cast<double>(k) * static_cast<double>(k - 1) / 2.0;
  return static_cast<double>(links) / possible;
}

double AverageClusteringCoefficient(const SocialGraph& graph) {
  if (graph.NumUsers() == 0) return 0.0;
  double sum = 0.0;
  for (UserId u = 0; u < graph.NumUsers(); ++u) {
    sum += LocalClusteringCoefficient(graph, u);
  }
  return sum / static_cast<double>(graph.NumUsers());
}

std::vector<size_t> DegreeSequence(const SocialGraph& graph) {
  std::vector<size_t> degrees(graph.NumUsers());
  for (UserId u = 0; u < graph.NumUsers(); ++u) degrees[u] = graph.Degree(u);
  return degrees;
}

size_t CountConnectedComponents(const SocialGraph& graph) {
  size_t components = 0;
  std::vector<bool> visited(graph.NumUsers(), false);
  std::deque<UserId> queue;
  for (UserId start = 0; start < graph.NumUsers(); ++start) {
    if (visited[start]) continue;
    ++components;
    visited[start] = true;
    queue.push_back(start);
    while (!queue.empty()) {
      UserId u = queue.front();
      queue.pop_front();
      for (UserId v : graph.Neighbors(u)) {
        if (!visited[v]) {
          visited[v] = true;
          queue.push_back(v);
        }
      }
    }
  }
  return components;
}

}  // namespace sight
