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
// TopKSelection works on classes: sets of members that are
// interchangeable, because every member of a class has the same weight
// to any other node (a pool's members with identical code rows, whose PS
// with anyone is the same). It takes the lower triangle of the symmetric
// class-by-class weight matrix, diagonal included, one class row at a
// time, and keeps one bounded heap per class of the min(k + 1, n)
// strongest candidate neighbors of any of its members. A class's own
// members compete in it too, at the weight on the diagonal. Finish()
// gives each member its class's heap minus itself, cut to k, and emits
// the surviving edges as a SimilarityMatrix. SparsifyTopK and the tests'
// direct feed use one class per node.
//
// Why the result is exact, and the same for any row order: within a
// class the ranking is a strict total order (neighbor indices are
// distinct), so a bounded heap keeps exactly the top of what it was
// offered, whatever the order of arrival. A member is itself one of its
// class's candidates (when the diagonal weight is positive), so the top
// k + 1 minus the member is its top k among the others; when it is not
// in the heap, the heap's k highest-ranked are. The CSR rows come out
// sorted by neighbor index. Weights are copied, never recomputed, so every
// surviving weight keeps its bits.
//
// Memory is O(classes * min(k + 1, n)) for the heaps, instead of the
// triangle's O(n^2).

#ifndef SIGHT_LEARNING_TOP_K_SELECTION_H_
#define SIGHT_LEARNING_TOP_K_SELECTION_H_

#include <cstddef>
#include <vector>

#include "learning/similarity_matrix.h"

namespace sight {

/// A partition of a graph's n nodes into classes: class c holds
/// members[offsets[c]], ..., members[offsets[c + 1] - 1], in ascending
/// index order. Every node is a member of exactly one class.
struct MemberClasses {
  std::vector<size_t> offsets{0};  // classes + 1 entries
  std::vector<size_t> members;     // n entries

  size_t size() const { return offsets.size() - 1; }

  /// n classes of one node each: class i is {i}.
  static MemberClasses Singletons(size_t n);
};

class TopKSelection {
 public:
  /// Selection over the nodes of `classes`, keeping k edges per node.
  TopKSelection(MemberClasses classes, size_t k);

  /// Offers the pairs of class c with every class d <= c, of weight
  /// values[d], to the members of both classes; values[c] is the weight
  /// between two members of c. Each class row is added at most once.
  ///
  /// Any row order gives the same result; the order only decides how
  /// soon each heap's floor rises, and so how many offers are turned
  /// away without a heap update. SparsifyTopK adds its singleton classes
  /// descending: every heap then sees its candidates in descending
  /// neighbor order, so a weight equal to a heap's floor never displaces
  /// a kept edge. ps_kernels::BuildGraphs numbers classes by their rows
  /// and adds them ascending, so every heap is offered the classes
  /// nearest its own row, on the row side and the column side, first.
  void AddRow(size_t c, const double* values);

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

  // Offers (weight, member) for each member of class d, in descending
  // index order, to class c's heap. Stops at the first member turned
  // away: the rest tie it on weight and rank lower by index.
  void OfferClass(size_t c, double weight, size_t d);
  // Offers (weight, neighbor) to class c's heap; false if turned away.
  bool Offer(size_t c, double weight, size_t neighbor);

  MemberClasses classes_;
  size_t n_;
  size_t keep_;  // min(k, n - 1): a node has at most n - 1 neighbors
  size_t cap_;   // keep_ + 1, or 0 when keep_ is: a member's own slot
  // Class c's heap holds size_[c] candidates at slots_[c * cap_].
  // floor_[c] is the weight of its lowest-ranked candidate once full,
  // else the smallest positive double, so one compare turns away most
  // offers and every weight <= 0.
  std::vector<double> floor_;
  std::vector<size_t> size_;
  std::vector<Candidate> slots_;
};

}  // namespace sight

#endif  // SIGHT_LEARNING_TOP_K_SELECTION_H_
