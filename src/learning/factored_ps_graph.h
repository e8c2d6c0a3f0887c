// A dense pool's PS graph, held as the factors profile similarity is made
// of rather than as its n(n-1)/2 pairs.
//
// PS (similarity/profile_similarity.h) is a weighted sum of per-attribute
// terms, and each term depends only on the two members' values and on the
// pool's value frequencies: 1 for equal values, min(f(a), f(b)) for
// differing ones, 0 when either is missing. So the pool's complete graph
// is W = sum_a w_a P S P^T minus its diagonal, where P maps members to
// values and S is the per-value similarity, and
//
//   (W x)_i = sum_a w_a ((X_v - x_i) + sum_{u != v} min(f_v, f_u) X_u)
//
// with v member i's value and X_u the sum of x over the members holding
// value u. Over the values sorted by frequency the inner sum is a prefix
// of f_u X_u below v plus f_v times a suffix of X above it, so one product
// costs O(n * A + V) — A attributes, V distinct values — and no pair is
// ever scored. That is all Zhu's harmonic solve needs (learning/
// harmonic.h): the degrees W 1 and products W x.
//
// Values get pool-local ids by first occurrence in member order, and
// frequency ties are ordered by local id, so every floating-point sum
// runs in an order the pool's members fix, never the dictionary codes:
// any injective recoding of a pool gives bit-identical degrees, products
// and solves. The graph is immutable once built; the scratch a product
// needs belongs to the caller, so concurrent solves (the CMN classifier's
// per-class solves) can share one graph.

#ifndef SIGHT_LEARNING_FACTORED_PS_GRAPH_H_
#define SIGHT_LEARNING_FACTORED_PS_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sight {

class FactoredPsGraph {
 public:
  /// Scratch for Apply(): per-value sums, reused across calls.
  struct Scratch {
    std::vector<double> sums;
    std::vector<double> others;
  };

  /// W x for one member at a time while x changes one member at a time:
  /// what a Gauss-Seidel sweep reads. x's per-value sums sit in Fenwick
  /// trees over frequency rank, so Row() and Move() cost O(A log V).
  class RunningProduct {
   public:
    explicit RunningProduct(const FactoredPsGraph& graph);

    /// Recomputes every sum from `x` (one value per member): O(n * A + V).
    void Reset(std::span<const double> x);

    /// (W x)_u for the current x, where `x_u` is member u's entry.
    double Row(size_t u, double x_u) const;

    /// Records x_u += delta.
    void Move(size_t u, double delta);

   private:
    const FactoredPsGraph& graph_;
    std::vector<double> sums_;   // X per value
    std::vector<double> below_;  // Fenwick over rank: f * X
    std::vector<double> above_;  // Fenwick over reversed rank: X
  };

  /// 0 members.
  FactoredPsGraph() = default;

  /// The PS graph over `num_rows` code rows, row-major with one code per
  /// attribute (ProfileCodec::kMissingCode = 0 is missing). `weights` are
  /// the PS normalized attribute weights; `frequencies[a]` is attribute
  /// a's code-indexed frequency array (ValueFrequencyTable::
  /// FrequencyArray), where codes past its end read as 0.
  FactoredPsGraph(const uint32_t* rows, size_t num_rows,
                  std::span<const double> weights,
                  std::span<const std::span<const double>> frequencies);

  size_t size() const { return n_; }

  /// w(i, j): ProfileSimilarity::Compute's formula in its attribute
  /// order, so bit for bit the pair's PS; 0 on the diagonal.
  double Get(size_t i, size_t j) const;

  /// W 1, one per member. Built from value counts, so a degree is exactly
  /// 0.0 only when no other member shares a present attribute of it.
  const std::vector<double>& Degrees() const { return degrees_; }

  /// out = W x. `x` and `out` have size() entries and must not alias.
  void Apply(std::span<const double> x, std::span<double> out,
             Scratch* scratch) const;

 private:
  static constexpr uint32_t kMissing = static_cast<uint32_t>(-1);

  // Member i's value on attribute a, or kMissing.
  uint32_t ValueOf(size_t i, size_t a) const {
    return values_[i * weights_.size() + a];
  }

  size_t n_ = 0;
  std::vector<double> weights_;  // per attribute
  // Member-major, one value id per attribute. Value ids are global:
  // attribute a's values are [offsets_[a], offsets_[a + 1]), in
  // first-occurrence order.
  std::vector<uint32_t> values_;
  std::vector<uint32_t> offsets_;    // attributes + 1
  std::vector<double> frequency_;    // per value
  std::vector<uint32_t> order_;      // per attribute: values by (f, id)
  std::vector<uint32_t> rank_;       // per value: position in order_
  std::vector<double> degrees_;      // per member
};

}  // namespace sight

#endif  // SIGHT_LEARNING_FACTORED_PS_GRAPH_H_
