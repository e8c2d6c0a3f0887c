// Undirected friendship graph with dense user ids.
//
// The graph is the substrate for every structural computation in Sight:
// mutual friends, two-hop stranger enumeration, network similarity. It is a
// dynamic adjacency-list structure whose neighbor sets are kept sorted so
// membership queries are O(log degree) and set intersections are linear.

#ifndef SIGHT_GRAPH_SOCIAL_GRAPH_H_
#define SIGHT_GRAPH_SOCIAL_GRAPH_H_

#include <cstdint>
#include <vector>

#include "graph/table_version.h"
#include "graph/types.h"
#include "util/status.h"

namespace sight {

/// Undirected simple graph (no self-loops, no parallel edges).
///
/// Users are created densely: AddUser() returns consecutive ids starting at
/// 0. Edges are symmetric; AddEdge(a, b) is the same as AddEdge(b, a).
class SocialGraph {
 public:
  SocialGraph() = default;

  /// Constructs a graph with `num_users` isolated users.
  explicit SocialGraph(size_t num_users) : adjacency_(num_users) {}

  /// Adds a new isolated user and returns its id.
  UserId AddUser();

  /// Adds `count` users; returns the first new id.
  UserId AddUsers(size_t count);

  /// Adds the undirected edge {a, b}.
  ///
  /// Errors: InvalidArgument for self-loops or unknown ids; AlreadyExists
  /// if the edge is present.
  [[nodiscard]] Status AddEdge(UserId a, UserId b);

  /// Adds the edge if absent; returns true when a new edge was inserted.
  /// Errors only on invalid ids / self-loops.
  [[nodiscard]] Result<bool> AddEdgeIfAbsent(UserId a, UserId b);

  /// Removes the undirected edge {a, b}; NotFound if absent.
  [[nodiscard]] Status RemoveEdge(UserId a, UserId b);

  bool HasUser(UserId u) const { return u < adjacency_.size(); }

  /// True iff the edge exists (false for unknown ids).
  bool HasEdge(UserId a, UserId b) const;

  /// Sorted neighbor list. Precondition: HasUser(u).
  const std::vector<UserId>& Neighbors(UserId u) const;

  size_t Degree(UserId u) const;
  size_t NumUsers() const { return adjacency_.size(); }
  size_t NumEdges() const { return num_edges_; }

  // SIGHT_ANALYZER_OK(epoch-discipline): reserve only grows capacity;
  // no observable state changes, so carried caches stay valid.
  void Reserve(size_t num_users) { adjacency_.reserve(num_users); }

  /// Identity of the current contents (graph/table_version.h): the epoch
  /// is bumped by every successful structural mutation (user or edge
  /// insertion/removal). Caches derived from the graph (carried pool
  /// partitions) record the version they were built at and fall back to
  /// a cold rebuild when it no longer matches.
  TableVersion version() const { return {stamp_.id(), mutation_epoch_}; }

 private:
  std::vector<std::vector<UserId>> adjacency_;
  size_t num_edges_ = 0;
  uint64_t mutation_epoch_ = 0;
  VersionStamp stamp_;
};

}  // namespace sight

#endif  // SIGHT_GRAPH_SOCIAL_GRAPH_H_
