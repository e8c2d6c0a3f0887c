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
// matrix as row spans and offers each pair to both endpoints' bounded
// heaps. The columns are cut into stripes, and every stripe keeps its own
// heaps for the rows it reaches (its own columns and every row below
// them), so feeders of distinct stripes share no state and need no
// locks. Finish() merges each row's stripe heaps and emits the surviving
// edges as a SimilarityMatrix.
//
// Why the result is exact, and the same for any stripes, feed order or
// thread count: within a row the ranking is a strict total order
// (neighbor indices are distinct), so a bounded heap keeps exactly the
// top k of what it was offered, whatever the order of arrival; the top k
// of a union is the top k of the parts' top k; and the CSR rows come out
// sorted by neighbor index. Weights are copied, never recomputed, so
// every surviving weight keeps its bits.
//
// Memory is O(stripes * n * min(k, n)) instead of the triangle's O(n^2).

#ifndef SIGHT_LEARNING_TOP_K_SELECTION_H_
#define SIGHT_LEARNING_TOP_K_SELECTION_H_

#include <cstddef>
#include <vector>

#include "learning/similarity_matrix.h"

namespace sight {

class TopKSelection {
 public:
  /// Selection over an n-node graph keeping k edges per node, fed in
  /// column stripes: stripe s covers columns [stripe_starts[s],
  /// stripe_starts[s + 1]), the last one up to n. `stripe_starts` must
  /// ascend from 0 and stay below n - 1; it is empty when n < 2.
  TopKSelection(size_t n, size_t k, std::vector<size_t> stripe_starts);

  size_t size() const { return n_; }
  size_t num_stripes() const { return stripes_.size(); }
  size_t stripe_begin(size_t s) const { return stripes_[s].begin; }
  size_t stripe_end(size_t s) const { return stripes_[s].end; }

  /// Offers the pairs (i, j0 + t), t < count, of weight values[t] to both
  /// endpoints. Columns [j0, j0 + count) must lie in stripe `stripe` and
  /// below i. Calls on distinct stripes may run concurrently; calls on
  /// one stripe must not.
  ///
  /// Any feed order gives the same result. Feeding each stripe's rows in
  /// descending order (as ps_kernels::BuildGraphs and SparsifyTopK do) is
  /// fastest: every heap then sees its candidates in descending neighbor
  /// order, so a weight equal to a heap's floor never displaces a kept
  /// edge and is turned away without a heap update.
  void AddRowSpan(size_t stripe, size_t i, size_t j0, const double* values,
                  size_t count);

  /// Merges the stripes and returns the graph of the surviving edges.
  /// Releases the selection state; call once.
  SimilarityMatrix Finish();

 private:
  struct Candidate {
    double weight;
    size_t index;
  };

  // Heaps of rows [begin, n), by local row r = row - begin: row r's heap
  // holds size[r] candidates at slots[r * cap_]. floor[r] is the weight
  // of its lowest-ranked candidate once full, else the smallest positive
  // double, so one compare turns away most offers and every weight <= 0.
  struct Stripe {
    size_t begin = 0;
    size_t end = 0;
    std::vector<double> floor;
    std::vector<size_t> size;
    std::vector<Candidate> slots;
  };

  static bool RanksAbove(const Candidate& a, const Candidate& b) {
    return a.weight > b.weight || (a.weight == b.weight && a.index > b.index);
  }

  // Offers (weight, neighbor) to local row r's heap, past its floor.
  void Offer(Stripe* stripe, size_t r, double weight, size_t neighbor) const;

  size_t n_;
  size_t cap_;  // min(k, n - 1): a row has at most n - 1 neighbors
  std::vector<Stripe> stripes_;
};

}  // namespace sight

#endif  // SIGHT_LEARNING_TOP_K_SELECTION_H_
