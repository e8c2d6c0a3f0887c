#include "learning/top_k_selection.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace sight {

TopKSelection::TopKSelection(size_t n, size_t k,
                             std::vector<size_t> stripe_starts)
    : n_(n), cap_(n > 0 ? std::min(k, n - 1) : 0) {
  stripes_.resize(stripe_starts.size());
  for (size_t s = 0; s < stripes_.size(); ++s) {
    Stripe& stripe = stripes_[s];
    stripe.begin = stripe_starts[s];
    stripe.end = s + 1 < stripe_starts.size() ? stripe_starts[s + 1] : n;
    SIGHT_CHECK(stripe.begin + 1 < n && stripe.begin < stripe.end);
    SIGHT_CHECK(s > 0 || stripe.begin == 0);
    const size_t rows = n - stripe.begin;
    stripe.floor.assign(rows, std::numeric_limits<double>::denorm_min());
    stripe.size.assign(rows, 0);
    stripe.slots.resize(rows * cap_);
  }
}

void TopKSelection::Offer(Stripe* stripe, size_t r, double weight,
                          size_t neighbor) const {
  if (!(weight > 0.0)) return;  // NaN is never an edge
  // A min-heap under the ranking: heap[0] is the lowest-ranked candidate.
  Candidate* heap = stripe->slots.data() + r * cap_;
  size_t& size = stripe->size[r];
  const Candidate candidate{weight, neighbor};
  if (size < cap_) {
    heap[size++] = candidate;
    std::push_heap(heap, heap + size, RanksAbove);
    if (size == cap_) stripe->floor[r] = heap[0].weight;
    return;
  }
  if (!RanksAbove(candidate, heap[0])) return;
  // Replace the root and sift the candidate down to its place.
  size_t hole = 0;
  for (size_t child = 1; child < size; child = 2 * hole + 1) {
    if (child + 1 < size && RanksAbove(heap[child], heap[child + 1])) ++child;
    if (!RanksAbove(candidate, heap[child])) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = candidate;
  stripe->floor[r] = heap[0].weight;
}

void TopKSelection::AddRowSpan(size_t stripe, size_t i, size_t j0,
                               const double* values, size_t count) {
  if (count == 0 || cap_ == 0) return;
  SIGHT_CHECK(stripe < stripes_.size());
  Stripe* s = &stripes_[stripe];
  SIGHT_CHECK(i < n_ && j0 >= s->begin && j0 + count <= std::min(s->end, i));
  // Row i's heap and the heaps of columns j0.. by local row, behind the
  // floor check that turns most offers away without touching a heap.
  // Columns go in descending order (see the header on feed order).
  const size_t row = i - s->begin;
  const size_t col = j0 - s->begin;
  double* floor = s->floor.data();
  double row_floor = floor[row];  // only row-side offers move it
  for (size_t t = count; t-- > 0;) {
    const double w = values[t];
    if (!(w < row_floor)) {
      Offer(s, row, w, j0 + t);
      row_floor = floor[row];
    }
    if (!(w < floor[col + t])) Offer(s, col + t, w, i);
  }
}

SimilarityMatrix TopKSelection::Finish() {
  // Each row's top k: the best of its stripe heaps.
  std::vector<size_t> kept_offsets(n_ + 1, 0);
  std::vector<Candidate> kept;
  std::vector<Candidate> merged;
  for (size_t r = 0; r < n_; ++r) {
    merged.clear();
    for (const Stripe& stripe : stripes_) {
      if (stripe.begin > r) break;
      const size_t local = r - stripe.begin;
      const Candidate* heap = stripe.slots.data() + local * cap_;
      merged.insert(merged.end(), heap, heap + stripe.size[local]);
    }
    const auto take =
        static_cast<ptrdiff_t>(std::min(cap_, merged.size()));
    std::nth_element(merged.begin(), merged.begin() + take, merged.end(),
                     RanksAbove);
    kept.insert(kept.end(), merged.begin(), merged.begin() + take);
    kept_offsets[r + 1] = kept.size();
  }
  stripes_ = {};

  // An edge survives in either endpoint's top k: list every kept edge in
  // both of its rows.
  std::vector<size_t> offsets(n_ + 1, 0);
  for (const Candidate& c : kept) ++offsets[c.index + 1];
  for (size_t r = 0; r < n_; ++r) {
    offsets[r + 1] += offsets[r] + (kept_offsets[r + 1] - kept_offsets[r]);
  }
  std::vector<Neighbor> neighbors(offsets[n_]);
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t r = 0; r < n_; ++r) {
    for (size_t t = kept_offsets[r]; t < kept_offsets[r + 1]; ++t) {
      const Candidate& c = kept[t];
      neighbors[cursor[r]++] = Neighbor{c.index, c.weight};
      neighbors[cursor[c.index]++] = Neighbor{r, c.weight};
    }
  }
  kept = {};

  // Sort each row by neighbor index. An edge both endpoints kept is now
  // listed twice in each of its rows, with equal bits; keep one copy.
  // Rows compact in place: the write position never passes the read.
  size_t out = 0;
  for (size_t r = 0; r < n_; ++r) {
    auto first = neighbors.begin() + static_cast<ptrdiff_t>(offsets[r]);
    auto last = neighbors.begin() + static_cast<ptrdiff_t>(offsets[r + 1]);
    std::sort(first, last, [](const Neighbor& a, const Neighbor& b) {
      return a.index < b.index;
    });
    offsets[r] = out;
    for (auto it = first; it != last; ++it) {
      if (out > offsets[r] && neighbors[out - 1].index == it->index) continue;
      neighbors[out++] = *it;
    }
  }
  offsets[n_] = out;
  neighbors.resize(out);
  neighbors.shrink_to_fit();
  return SimilarityMatrix::FromCsr(n_, std::move(offsets),
                                   std::move(neighbors));
}

}  // namespace sight
