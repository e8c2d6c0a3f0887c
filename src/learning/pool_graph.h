// The classifier graph of one pool, in the representation its build chose.
//
// ps_kernels::BuildGraphs (similarity/ps_kernels.h) gives a dense pool a
// FactoredPsGraph — its PS graph as per-attribute factors, no pair scored
// — and a top-k pool the CSR SimilarityMatrix of its surviving edges.
// Classifiers and PoolLearner take this one handle; the harmonic solvers
// run on either representation, and everything else reads edges through
// Get(). A SimilarityMatrix converts to it, so any CSR graph (a test's,
// a bench's) can be handed to a classifier as is.

#ifndef SIGHT_LEARNING_POOL_GRAPH_H_
#define SIGHT_LEARNING_POOL_GRAPH_H_

#include <cstddef>
#include <utility>
#include <variant>

#include "learning/factored_ps_graph.h"
#include "learning/similarity_matrix.h"

namespace sight {

class PoolGraph {
 public:
  /// 0 nodes.
  PoolGraph() = default;
  PoolGraph(SimilarityMatrix csr)  // NOLINT(runtime/explicit)
      : graph_(std::move(csr)) {}
  PoolGraph(FactoredPsGraph factored)  // NOLINT(runtime/explicit)
      : graph_(std::move(factored)) {}

  size_t size() const {
    return std::visit([](const auto& g) { return g.size(); }, graph_);
  }

  /// w(i, j), 0 on the diagonal and for pairs without an edge.
  double Get(size_t i, size_t j) const {
    return std::visit([i, j](const auto& g) { return g.Get(i, j); }, graph_);
  }

  /// The CSR graph, or null when the graph is factored.
  const SimilarityMatrix* csr() const {
    return std::get_if<SimilarityMatrix>(&graph_);
  }
  /// The factored graph, or null when the graph is CSR.
  const FactoredPsGraph* factored() const {
    return std::get_if<FactoredPsGraph>(&graph_);
  }

 private:
  std::variant<SimilarityMatrix, FactoredPsGraph> graph_;
};

}  // namespace sight

#endif  // SIGHT_LEARNING_POOL_GRAPH_H_
