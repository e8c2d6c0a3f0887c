#include "learning/top_k_selection.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace sight {

TopKSelection::TopKSelection(size_t n, size_t k)
    : n_(n),
      cap_(n > 0 ? std::min(k, n - 1) : 0),
      floor_(n, std::numeric_limits<double>::denorm_min()),
      size_(n, 0),
      slots_(n * cap_) {}

void TopKSelection::Offer(size_t r, double weight, size_t neighbor) {
  if (!(weight > 0.0)) return;  // NaN is never an edge
  // A min-heap under the ranking: heap[0] is the lowest-ranked candidate.
  Candidate* heap = slots_.data() + r * cap_;
  size_t& size = size_[r];
  const Candidate candidate{weight, neighbor};
  if (size < cap_) {
    heap[size++] = candidate;
    std::push_heap(heap, heap + size, RanksAbove);
    if (size == cap_) floor_[r] = heap[0].weight;
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
  floor_[r] = heap[0].weight;
}

void TopKSelection::AddRow(size_t i, const double* values) {
  SIGHT_CHECK(i < n_);
  if (cap_ == 0) return;
  // Row i's heap and the heaps of nodes j < i, behind the floor check
  // that turns most offers away without touching a heap. Columns go in
  // descending order (see the header on row order).
  const double* floor = floor_.data();
  double row_floor = floor[i];  // only row-side offers move it
  for (size_t j = i; j-- > 0;) {
    const double w = values[j];
    if (!(w < row_floor)) {
      Offer(i, w, j);
      row_floor = floor[i];
    }
    if (!(w < floor[j])) Offer(j, w, i);
  }
}

SimilarityMatrix TopKSelection::Finish() {
  // An edge survives in either endpoint's top k: list every kept edge in
  // both of its rows.
  std::vector<size_t> offsets(n_ + 1, 0);
  for (size_t r = 0; r < n_; ++r) {
    const Candidate* heap = slots_.data() + r * cap_;
    for (size_t t = 0; t < size_[r]; ++t) ++offsets[heap[t].index + 1];
  }
  for (size_t r = 0; r < n_; ++r) offsets[r + 1] += offsets[r] + size_[r];
  std::vector<Neighbor> neighbors(offsets[n_]);
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t r = 0; r < n_; ++r) {
    const Candidate* heap = slots_.data() + r * cap_;
    for (size_t t = 0; t < size_[r]; ++t) {
      const Candidate& c = heap[t];
      neighbors[cursor[r]++] = Neighbor{c.index, c.weight};
      neighbors[cursor[c.index]++] = Neighbor{r, c.weight};
    }
  }
  // Move-assign empty vectors: `= {}` would keep the capacity allocated.
  floor_ = std::vector<double>();
  size_ = std::vector<size_t>();
  slots_ = std::vector<Candidate>();

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
