// The classifier graph's top-k rule, in one place.
//
// Every node keeps its k largest positive edge weights, ranked by
// (weight, neighbor index) descending: on equal weights the larger
// neighbor index ranks first. An edge survives when it is in the top k
// of either endpoint. SimilarityTriangle::SparsifyTopK applies the rule
// to a filled triangle; the PS kernels' streamed build
// (similarity/ps_kernels.h) applies it while the pairs are computed, so a
// sparsified pool never holds its n x n triangle.
//
// TopKSelection takes the strictly-lower triangle of a symmetric weight
// matrix one row at a time and offers each pair to both endpoints'
// bounded heaps, one heap per node. Finish() reads every node's heap and
// emits the surviving edges as a SimilarityMatrix.
//
// Why the result is exact, and the same for any row order: within a
// node the ranking is a strict total order (neighbor indices are
// distinct), so a bounded heap keeps exactly the top k of what it was
// offered, whatever the order of arrival; and the CSR rows come out
// sorted by neighbor index. Weights are copied, never recomputed, so
// every surviving weight keeps its bits.
//
// Memory is O(n * min(k, n)) instead of the triangle's O(n^2).

#ifndef SIGHT_LEARNING_TOP_K_SELECTION_H_
#define SIGHT_LEARNING_TOP_K_SELECTION_H_

#include <cstddef>
#include <vector>

#include "learning/similarity_matrix.h"

namespace sight {

class TopKSelection {
 public:
  /// Selection over an n-node graph keeping k edges per node.
  TopKSelection(size_t n, size_t k);

  size_t size() const { return n_; }

  /// Offers the pairs (i, j), j < i, of weight values[j] to both
  /// endpoints. Each row is added at most once.
  ///
  /// Any row order gives the same result. Adding rows in descending
  /// order (as ps_kernels::BuildGraphs and SparsifyTopK do) is fastest:
  /// every heap then sees its candidates in descending neighbor order,
  /// so a weight equal to a heap's floor never displaces a kept edge and
  /// is turned away without a heap update.
  void AddRow(size_t i, const double* values);

  /// Returns the graph of the surviving edges. Releases the selection
  /// state; call once.
  SimilarityMatrix Finish();

 private:
  struct Candidate {
    double weight;
    size_t index;
  };

  static bool RanksAbove(const Candidate& a, const Candidate& b) {
    return a.weight > b.weight || (a.weight == b.weight && a.index > b.index);
  }

  // Offers (weight, neighbor) to node r's heap, past its floor.
  void Offer(size_t r, double weight, size_t neighbor);

  size_t n_;
  size_t cap_;  // min(k, n - 1): a node has at most n - 1 neighbors
  // Node r's heap holds size_[r] candidates at slots_[r * cap_].
  // floor_[r] is the weight of its lowest-ranked candidate once full,
  // else the smallest positive double, so one compare turns away most
  // offers and every weight <= 0.
  std::vector<double> floor_;
  std::vector<size_t> size_;
  std::vector<Candidate> slots_;
};

}  // namespace sight

#endif  // SIGHT_LEARNING_TOP_K_SELECTION_H_
