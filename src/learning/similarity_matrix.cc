#include "learning/similarity_matrix.h"

#include <algorithm>

#include "learning/top_k_selection.h"
#include "util/logging.h"

namespace sight {

double SimilarityMatrix::Get(size_t i, size_t j) const {
  SIGHT_CHECK(i < n_ && j < n_);
  if (i == j) return 0.0;
  std::span<const Neighbor> row = Neighbors(i);
  auto it = std::lower_bound(
      row.begin(), row.end(), j,
      [](const Neighbor& nb, size_t index) { return nb.index < index; });
  return it != row.end() && it->index == j ? it->weight : 0.0;
}

std::span<const Neighbor> SimilarityMatrix::Neighbors(size_t i) const {
  SIGHT_CHECK(i < n_);
  return std::span<const Neighbor>(neighbors_.data() + row_offsets_[i],
                                   row_offsets_[i + 1] - row_offsets_[i]);
}

SimilarityMatrix SimilarityMatrix::FromCsr(size_t n,
                                           std::vector<size_t> offsets,
                                           std::vector<Neighbor> neighbors) {
  SIGHT_CHECK(offsets.size() == n + 1 && offsets.front() == 0 &&
              offsets.back() == neighbors.size());
  SimilarityMatrix m;
  m.n_ = n;
  m.row_offsets_ = std::move(offsets);
  m.neighbors_ = std::move(neighbors);
  return m;
}

void SimilarityTriangle::Set(size_t i, size_t j, double value) {
  SIGHT_CHECK(i < n_ && j < n_);
  if (i == j) return;
  data_[Index(i, j)] = value;
}

void SimilarityTriangle::SetRow(size_t i, const double* values) {
  SIGHT_CHECK(i < n_);
  // Index(i, j) = i * (i + 1) / 2 + j for j < i, so row i's pairs are
  // one contiguous run of the packed store.
  std::copy(values, values + i,
            data_.begin() + static_cast<ptrdiff_t>(Index(i, 0)));
}

double SimilarityTriangle::Get(size_t i, size_t j) const {
  SIGHT_CHECK(i < n_ && j < n_);
  if (i == j) return 0.0;
  return data_[Index(i, j)];
}

size_t SimilarityTriangle::NumEdges() const {
  // Diagonal slots are never written, so they never count.
  size_t count = 0;
  for (double w : data_) {
    if (w > 0.0) ++count;
  }
  return count;
}

SimilarityMatrix SimilarityTriangle::Compact() && {
  std::vector<size_t> offsets(n_ + 1, 0);
  // Degree pass over the lower triangle (each edge counts at both ends),
  // shifted by one so the prefix sum lands directly in CSR offsets. The
  // scan order (i, j < i) is exactly the packed layout, so a linear
  // pointer walk replaces the per-entry Index() multiply; the extra ++
  // after each inner loop steps over the unused diagonal slot.
  const double* entry = data_.data();
  for (size_t i = 0; i < n_; ++i, ++entry) {
    for (size_t j = 0; j < i; ++j, ++entry) {
      if (*entry > 0.0) {
        ++offsets[i + 1];
        ++offsets[j + 1];
      }
    }
  }
  for (size_t i = 0; i < n_; ++i) offsets[i + 1] += offsets[i];
  std::vector<Neighbor> neighbors(offsets.back());
  // Fill pass. Scanning (i, j<i) in ascending order appends ascending j
  // into row i and ascending i into row j, so every row ends up sorted by
  // neighbor index with no per-row sort.
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  entry = data_.data();
  for (size_t i = 0; i < n_; ++i, ++entry) {
    for (size_t j = 0; j < i; ++j, ++entry) {
      double w = *entry;
      if (w > 0.0) {
        neighbors[cursor[i]++] = Neighbor{j, w};
        neighbors[cursor[j]++] = Neighbor{i, w};
      }
    }
  }
  const size_t n = std::exchange(n_, 0);
  // Move-assign an empty vector: `data_ = {}` assigns from an empty
  // initializer list, which keeps the triangle's capacity allocated.
  data_ = std::vector<double>();
  return SimilarityMatrix::FromCsr(n, std::move(offsets),
                                   std::move(neighbors));
}

SimilarityMatrix SimilarityTriangle::SparsifyTopK(size_t k) const {
  // One class per node. Row i's packed run [0, i] is its row of pairs and
  // then the unused diagonal slot, which reads 0: a node is not its own
  // neighbor. Rows go in descending order (see TopKSelection::AddRow).
  TopKSelection selection(MemberClasses::Singletons(n_), k);
  for (size_t i = n_; i-- > 0;) selection.AddRow(i, &data_[Index(i, 0)]);
  return selection.Finish();
}

}  // namespace sight
