#include "learning/similarity_matrix.h"

#include <algorithm>

#include "learning/top_k_selection.h"
#include "util/logging.h"

namespace sight {

void SimilarityMatrix::Set(size_t i, size_t j, double value) {
  SIGHT_CHECK(!compacted_);
  SIGHT_CHECK(i < n_ && j < n_);
  if (i == j) return;
  data_[Index(i, j)] = value;
}

void SimilarityMatrix::SetRowSpan(size_t i, size_t j0, const double* values,
                                  size_t count) {
  if (count == 0) return;
  SIGHT_CHECK(!compacted_);
  SIGHT_CHECK(i < n_ && j0 + count <= i);
  // Index(i, j) = i * (i + 1) / 2 + j for j < i, so the span is
  // contiguous in the packed lower-triangle store.
  std::copy(values, values + count, data_.begin() +
                                        static_cast<ptrdiff_t>(Index(i, j0)));
}

double SimilarityMatrix::Get(size_t i, size_t j) const {
  SIGHT_CHECK(i < n_ && j < n_);
  if (i == j) return 0.0;
  if (!compacted_) return data_[Index(i, j)];
  std::span<const Neighbor> row = Neighbors(i);
  auto it = std::lower_bound(
      row.begin(), row.end(), j,
      [](const Neighbor& nb, size_t index) { return nb.index < index; });
  return it != row.end() && it->index == j ? it->weight : 0.0;
}

void SimilarityMatrix::SparsifyTopK(size_t k) {
  SIGHT_CHECK(!compacted_);
  if (n_ < 2) return;
  // One stripe over every column: row i's packed run [0, i) is its span.
  TopKSelection selection(n_, k, {0});
  for (size_t i = n_; --i > 0;) {
    selection.AddRowSpan(0, i, 0, &data_[Index(i, 0)], i);
  }
  SimilarityMatrix kept = selection.Finish();
  std::fill(data_.begin(), data_.end(), 0.0);
  for (size_t i = 0; i < n_; ++i) {
    for (const Neighbor& nb : kept.Neighbors(i)) {
      if (nb.index < i) data_[Index(i, nb.index)] = nb.weight;
    }
  }
}

size_t SimilarityMatrix::NumEdges() const {
  if (compacted_) return neighbors_.size() / 2;
  // Diagonal slots are never written, so they never count.
  size_t count = 0;
  for (double w : data_) {
    if (w > 0.0) ++count;
  }
  return count;
}

void SimilarityMatrix::BuildCsr(std::vector<size_t>* offsets,
                                std::vector<Neighbor>* neighbors) const {
  SIGHT_CHECK(!compacted_);
  SIGHT_CHECK(offsets != nullptr && neighbors != nullptr);
  offsets->assign(n_ + 1, 0);
  // Degree pass over the lower triangle (each edge counts at both ends),
  // shifted by one so the prefix sum lands directly in CSR offsets. The
  // scan order (i, j < i) is exactly the packed layout, so a linear
  // pointer walk replaces the per-entry Index() multiply; the extra ++
  // after each inner loop steps over the unused diagonal slot.
  const double* entry = data_.data();
  for (size_t i = 0; i < n_; ++i, ++entry) {
    for (size_t j = 0; j < i; ++j, ++entry) {
      if (*entry > 0.0) {
        ++(*offsets)[i + 1];
        ++(*offsets)[j + 1];
      }
    }
  }
  for (size_t i = 0; i < n_; ++i) (*offsets)[i + 1] += (*offsets)[i];
  neighbors->resize(offsets->back());
  // Fill pass. Scanning (i, j<i) in ascending order appends ascending j
  // into row i and ascending i into row j, so every row ends up sorted by
  // neighbor index with no per-row sort.
  std::vector<size_t> cursor(offsets->begin(), offsets->end() - 1);
  entry = data_.data();
  for (size_t i = 0; i < n_; ++i, ++entry) {
    for (size_t j = 0; j < i; ++j, ++entry) {
      double w = *entry;
      if (w > 0.0) {
        (*neighbors)[cursor[i]++] = Neighbor{j, w};
        (*neighbors)[cursor[j]++] = Neighbor{i, w};
      }
    }
  }
}

void SimilarityMatrix::Compact() {
  if (compacted_) return;
  BuildCsr(&row_offsets_, &neighbors_);
  compacted_ = true;
  // Move-assign an empty vector: `data_ = {}` assigns from an empty
  // initializer list, which keeps the triangle's capacity allocated.
  data_ = std::vector<double>();
}

std::span<const Neighbor> SimilarityMatrix::Neighbors(size_t i) const {
  SIGHT_CHECK(compacted_);
  SIGHT_CHECK(i < n_);
  return std::span<const Neighbor>(neighbors_.data() + row_offsets_[i],
                                   row_offsets_[i + 1] - row_offsets_[i]);
}

SimilarityMatrix SimilarityMatrix::FromCsr(size_t n,
                                           std::vector<size_t> offsets,
                                           std::vector<Neighbor> neighbors) {
  SIGHT_CHECK(offsets.size() == n + 1 && offsets.front() == 0 &&
              offsets.back() == neighbors.size());
  SimilarityMatrix m(0);
  m.n_ = n;
  m.compacted_ = true;
  m.row_offsets_ = std::move(offsets);
  m.neighbors_ = std::move(neighbors);
  return m;
}

}  // namespace sight
