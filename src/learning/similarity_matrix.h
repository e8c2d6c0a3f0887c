// Symmetric similarity (edge-weight) matrix for a pool of instances:
// the weighted graph Zhu's harmonic classifier solves on.
//
// A matrix lives in one of two states:
//
//  * Building: a dense packed lower triangle, the simplest write target
//    while pairs are being computed (Set / SetRowSpan), with an optional
//    top-k sparsification that keeps only each node's strongest edges
//    (learning/top_k_selection.h owns that rule).
//  * Compacted: compressed sparse rows only. Compact() materializes the
//    per-row (index, weight) lists of the positive entries, sorted by
//    neighbor index, and releases the triangle, so solvers iterate
//    O(degree) neighbors per node and a carried learner keeps only its
//    edges resident. Get() becomes a binary search of the row; writes
//    are checked errors.
//
// A streamed top-k build (similarity/ps_kernels.h) never has a building
// state: TopKSelection emits its survivors straight into a compacted
// matrix.

#ifndef SIGHT_LEARNING_SIMILARITY_MATRIX_H_
#define SIGHT_LEARNING_SIMILARITY_MATRIX_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "util/status.h"

namespace sight {

/// One directed CSR entry: the neighbor's pool index and the edge weight.
struct Neighbor {
  size_t index;
  double weight;
};

/// Symmetric n x n matrix with a zero diagonal (no self-edges).
class SimilarityMatrix {
 public:
  /// An all-zero matrix in the building state.
  explicit SimilarityMatrix(size_t n) : n_(n), data_(n * (n + 1) / 2, 0.0) {}

  size_t size() const { return n_; }

  /// Sets w(i, j) = w(j, i) = value. Diagonal writes are ignored.
  /// Building state only.
  void Set(size_t i, size_t j, double value);

  /// Sets w(i, j0 + k) = values[k] for k in [0, count). Requires
  /// j0 + count <= i (a strictly-lower-triangle span), which makes the
  /// destination one contiguous run of the packed store — this is the
  /// write path of the tiled PS matrix-build kernels
  /// (similarity/ps_kernels.h), one bounds check per span instead of per
  /// pair. Concurrent SetRowSpan calls on disjoint spans are safe.
  /// Building state only.
  void SetRowSpan(size_t i, size_t j0, const double* values, size_t count);

  /// w(i, j). Once compacted, a binary search of row i that reads 0 for
  /// pairs without a positive edge.
  double Get(size_t i, size_t j) const;

  /// Keeps, for every node, only its k strongest incident edges (an edge
  /// survives if it is in the top-k of either endpoint; see
  /// learning/top_k_selection.h for the tie rule). k = 0 clears all.
  /// Building state only.
  void SparsifyTopK(size_t k);

  /// Number of non-zero off-diagonal entries (each unordered pair once).
  size_t NumEdges() const;

  /// Moves to the compacted state: builds the CSR rows over the positive
  /// entries (sorted by neighbor index) and releases the triangle. No-op
  /// when already compacted.
  void Compact();

  bool compacted() const { return compacted_; }

  /// Row i of the CSR. Compacted state only.
  std::span<const Neighbor> Neighbors(size_t i) const;

 private:
  friend class TopKSelection;

  /// Writes the CSR arrays of the current contents into the outputs
  /// (the layout Compact() keeps: `offsets` has n + 1 entries, row i of
  /// `neighbors` is [offsets[i], offsets[i+1]) sorted by index), with a
  /// single O(n^2) pass. Building state only.
  void BuildCsr(std::vector<size_t>* offsets,
                std::vector<Neighbor>* neighbors) const;

  /// A compacted matrix over CSR arrays in Compact()'s layout.
  static SimilarityMatrix FromCsr(size_t n, std::vector<size_t> offsets,
                                  std::vector<Neighbor> neighbors);

  size_t Index(size_t i, size_t j) const {
    if (i < j) std::swap(i, j);
    return i * (i + 1) / 2 + j;  // lower triangle, i >= j
  }

  size_t n_;
  std::vector<double> data_;  // packed lower triangle; empty once compacted
  bool compacted_ = false;
  std::vector<size_t> row_offsets_;  // n + 1 entries once compacted
  std::vector<Neighbor> neighbors_;  // both directions of every edge
};

}  // namespace sight

#endif  // SIGHT_LEARNING_SIMILARITY_MATRIX_H_
