#include "learning/top_k_selection.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "util/logging.h"

namespace sight {

MemberClasses MemberClasses::Singletons(size_t n) {
  MemberClasses classes;
  classes.offsets.resize(n + 1);
  std::iota(classes.offsets.begin(), classes.offsets.end(), size_t{0});
  classes.members.resize(n);
  std::iota(classes.members.begin(), classes.members.end(), size_t{0});
  return classes;
}

TopKSelection::TopKSelection(MemberClasses classes, size_t k)
    : classes_(std::move(classes)),
      n_(classes_.members.size()),
      keep_(n_ > 0 ? std::min(k, n_ - 1) : 0),
      cap_(keep_ > 0 ? keep_ + 1 : 0),
      floor_(classes_.size(), std::numeric_limits<double>::denorm_min()),
      size_(classes_.size(), 0),
      slots_(classes_.size() * cap_) {
  SIGHT_CHECK(classes_.offsets.front() == 0 && classes_.offsets.back() == n_);
}

bool TopKSelection::Offer(size_t c, double weight, size_t neighbor) {
  if (!(weight > 0.0)) return false;  // NaN is never an edge
  // A min-heap under the ranking: heap[0] is the lowest-ranked candidate.
  Candidate* heap = slots_.data() + c * cap_;
  size_t& size = size_[c];
  const Candidate candidate{weight, neighbor};
  if (size < cap_) {
    heap[size++] = candidate;
    std::push_heap(heap, heap + size, RanksAbove);
    if (size == cap_) floor_[c] = heap[0].weight;
    return true;
  }
  if (!RanksAbove(candidate, heap[0])) return false;
  // Replace the root and sift the candidate down to its place.
  size_t hole = 0;
  for (size_t child = 1; child < size; child = 2 * hole + 1) {
    if (child + 1 < size && RanksAbove(heap[child], heap[child + 1])) ++child;
    if (!RanksAbove(candidate, heap[child])) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = candidate;
  floor_[c] = heap[0].weight;
  return true;
}

inline void TopKSelection::OfferClass(size_t c, double weight, size_t d) {
  const size_t first = classes_.offsets[d];
  for (size_t t = classes_.offsets[d + 1]; t-- > first;) {
    if (!Offer(c, weight, classes_.members[t])) return;
  }
}

void TopKSelection::AddRow(size_t c, const double* values) {
  SIGHT_CHECK(c < classes_.size());
  if (cap_ == 0) return;
  // Class c's heap and the heaps of classes d < c, behind the floor check
  // that turns most offers away without touching a heap. The diagonal
  // goes first, then the columns from c - 1 down (see the header on row
  // order).
  const double* floor = floor_.data();
  if (!(values[c] < floor[c])) OfferClass(c, values[c], c);
  double row_floor = floor[c];  // only row-side offers move it
  for (size_t d = c; d-- > 0;) {
    const double w = values[d];
    if (!(w < row_floor)) {
      OfferClass(c, w, d);
      row_floor = floor[c];
    }
    if (!(w < floor[d])) OfferClass(d, w, c);
  }
}

SimilarityMatrix TopKSelection::Finish() {
  // A member keeps its class's candidates other than itself, at most
  // keep_ of them: when it is not among them and the heap is full, the
  // one to drop is the lowest-ranked, heap[0].
  const size_t num_classes = classes_.size();
  auto for_each_kept = [&](auto&& emit) {
    for (size_t c = 0; c < num_classes; ++c) {
      const Candidate* heap = slots_.data() + c * cap_;
      const size_t size = size_[c];
      for (size_t t = classes_.offsets[c]; t < classes_.offsets[c + 1]; ++t) {
        const size_t r = classes_.members[t];
        const bool listed =
            std::any_of(heap, heap + size,
                        [r](const Candidate& x) { return x.index == r; });
        const size_t first = !listed && size > keep_ ? 1 : 0;
        for (size_t s = first; s < size; ++s) {
          if (heap[s].index != r) emit(r, heap[s]);
        }
      }
    }
  };
  // An edge survives in either endpoint's top k: list every kept edge in
  // both of its rows.
  std::vector<size_t> offsets(n_ + 1, 0);
  for_each_kept([&](size_t r, const Candidate& c) {
    ++offsets[r + 1];
    ++offsets[c.index + 1];
  });
  for (size_t r = 0; r < n_; ++r) offsets[r + 1] += offsets[r];
  std::vector<Neighbor> neighbors(offsets[n_]);
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  for_each_kept([&](size_t r, const Candidate& c) {
    neighbors[cursor[r]++] = Neighbor{c.index, c.weight};
    neighbors[cursor[c.index]++] = Neighbor{r, c.weight};
  });
  // Move-assign empty vectors: `= {}` would keep the capacity allocated.
  classes_ = MemberClasses();
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
