// The CSR representation of a pool's classifier graph, and the dense
// triangle a pairwise fill writes before it becomes one.
//
//  * SimilarityMatrix is a symmetric weighted graph over a pool's
//    members, held as compressed sparse rows — per-row (index, weight)
//    lists of the positive edges, sorted by neighbor index — so solvers
//    iterate O(degree) neighbors per node and a carried learner keeps
//    only its edges resident. It has no writers; ps_kernels::BuildGraphs
//    (similarity/ps_kernels.h) builds a top-k pool's graph in this form.
//    A dense pool's graph is a FactoredPsGraph instead
//    (learning/factored_ps_graph.h); learning/pool_graph.h holds either.
//  * SimilarityTriangle is a dense packed lower triangle, the simplest
//    write target while pairs are being computed (Set / SetRow). It
//    becomes a graph through Compact() (every positive entry) or
//    SparsifyTopK(k) (each node's strongest edges; learning/
//    top_k_selection.h owns that rule). No assessment fills one: it is
//    the dense reference the tests and bench/perf_pipeline hold the
//    factored and streamed top-k graphs against.
//
// A streamed top-k build never holds a triangle: TopKSelection emits its
// survivors straight into a graph.

#ifndef SIGHT_LEARNING_SIMILARITY_MATRIX_H_
#define SIGHT_LEARNING_SIMILARITY_MATRIX_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace sight {

/// One directed CSR entry: the neighbor's pool index and the edge weight.
struct Neighbor {
  size_t index;
  double weight;
};

/// Symmetric n x n weight matrix with a zero diagonal (no self-edges),
/// stored as the CSR rows of its positive entries.
class SimilarityMatrix {
 public:
  /// n nodes, no edges.
  explicit SimilarityMatrix(size_t n = 0) : n_(n), row_offsets_(n + 1, 0) {}

  size_t size() const { return n_; }

  /// w(i, j): a binary search of row i that reads 0 for pairs without a
  /// positive edge.
  double Get(size_t i, size_t j) const;

  /// Number of edges (each unordered pair once).
  size_t NumEdges() const { return neighbors_.size() / 2; }

  /// Row i: its neighbors, sorted by index.
  std::span<const Neighbor> Neighbors(size_t i) const;

 private:
  friend class SimilarityTriangle;
  friend class TopKSelection;

  /// A graph over CSR arrays in Neighbors()' layout: `offsets` has n + 1
  /// entries, and row i of `neighbors` is [offsets[i], offsets[i+1]).
  static SimilarityMatrix FromCsr(size_t n, std::vector<size_t> offsets,
                                  std::vector<Neighbor> neighbors);

  size_t n_;
  std::vector<size_t> row_offsets_;  // n + 1 entries
  std::vector<Neighbor> neighbors_;  // both directions of every edge
};

/// The strictly-lower triangle of a symmetric n x n weight matrix,
/// packed row by row; every entry starts at zero.
class SimilarityTriangle {
 public:
  explicit SimilarityTriangle(size_t n) : n_(n), data_(n * (n + 1) / 2, 0.0) {}

  size_t size() const { return n_; }

  /// Sets w(i, j) = w(j, i) = value. Diagonal writes are ignored.
  void Set(size_t i, size_t j, double value);

  /// Sets w(i, j) = values[j] for every j < i: row i of the strictly
  /// lower triangle, one contiguous run of the packed store, with one
  /// bounds check per row instead of per pair.
  void SetRow(size_t i, const double* values);

  double Get(size_t i, size_t j) const;

  /// Number of positive off-diagonal entries (each unordered pair once).
  size_t NumEdges() const;

  /// The graph of every positive entry, built in two O(n^2) passes. The
  /// triangle's store is released before the graph is returned, and this
  /// object is left an empty triangle.
  SimilarityMatrix Compact() &&;

  /// The graph of each node's k strongest edges (an edge survives if it
  /// is in the top-k of either endpoint; see learning/top_k_selection.h
  /// for the tie rule). k = 0 gives no edges.
  SimilarityMatrix SparsifyTopK(size_t k) const;

 private:
  size_t Index(size_t i, size_t j) const {
    if (i < j) std::swap(i, j);
    return i * (i + 1) / 2 + j;  // lower triangle, i >= j
  }

  size_t n_;
  std::vector<double> data_;  // packed lower triangle, diagonal unused
};

}  // namespace sight

#endif  // SIGHT_LEARNING_SIMILARITY_MATRIX_H_
