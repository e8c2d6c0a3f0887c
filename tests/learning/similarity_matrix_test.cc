#include "learning/similarity_matrix.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
#include <malloc.h>
#define SIGHT_HAVE_MALLINFO2 1
#endif

namespace sight {
namespace {

// Bytes the allocator currently hands out (arena plus mmapped chunks), or
// 0 where that is not observable.
size_t AllocatedBytes() {
#ifdef SIGHT_HAVE_MALLINFO2
  struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

TEST(SimilarityMatrixTest, StartsZero) {
  SimilarityTriangle t(3);
  EXPECT_EQ(t.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(t.Get(i, j), 0.0);
    }
  }
  EXPECT_EQ(t.NumEdges(), 0u);

  // An edgeless graph reads the same.
  SimilarityMatrix m(3);
  EXPECT_EQ(m.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(m.Neighbors(i).empty());
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(m.Get(i, j), 0.0);
    }
  }
  EXPECT_EQ(m.NumEdges(), 0u);
}

TEST(SimilarityMatrixTest, SetIsSymmetric) {
  SimilarityTriangle t(4);
  t.Set(1, 3, 0.7);
  EXPECT_DOUBLE_EQ(t.Get(1, 3), 0.7);
  EXPECT_DOUBLE_EQ(t.Get(3, 1), 0.7);
  EXPECT_EQ(t.NumEdges(), 1u);
}

TEST(SimilarityMatrixTest, DiagonalIgnored) {
  SimilarityTriangle t(3);
  t.Set(2, 2, 5.0);
  EXPECT_DOUBLE_EQ(t.Get(2, 2), 0.0);
}

TEST(SimilarityMatrixTest, OverwriteReplacesWeight) {
  SimilarityTriangle t(2);
  t.Set(0, 1, 0.5);
  t.Set(1, 0, 0.9);
  EXPECT_DOUBLE_EQ(t.Get(0, 1), 0.9);
}

TEST(SimilarityMatrixTest, SparsifyKeepsStrongestEdges) {
  SimilarityTriangle t(4);
  // Node 0 has three edges of increasing weight.
  t.Set(0, 1, 0.1);
  t.Set(0, 2, 0.5);
  t.Set(0, 3, 0.9);
  // Nodes 1..3 have no other edges, so each keeps its edge to 0 in its own
  // top-1; all edges survive k=1 via the either-endpoint rule.
  EXPECT_EQ(t.SparsifyTopK(1).NumEdges(), 3u);

  // With a clique the weakest edges drop.
  SimilarityTriangle clique(3);
  clique.Set(0, 1, 0.9);
  clique.Set(0, 2, 0.8);
  clique.Set(1, 2, 0.1);
  SimilarityMatrix kept = clique.SparsifyTopK(1);
  EXPECT_DOUBLE_EQ(kept.Get(0, 1), 0.9);
  // Edge (1,2) is not in the top-1 of either endpoint (1's best is 0,
  // 2's best is 0), so it is dropped.
  EXPECT_DOUBLE_EQ(kept.Get(1, 2), 0.0);
  EXPECT_EQ(kept.NumEdges(), 2u);
}

TEST(SimilarityMatrixTest, SparsifyTiesKeepTheLargerNeighborIndex) {
  SimilarityTriangle t(6);
  // Node 0's three edges tie at 0.5; nodes 1-3 each have a stronger
  // edge elsewhere, so only node 0's own top-1 can keep one of them.
  t.Set(0, 1, 0.5);
  t.Set(0, 2, 0.5);
  t.Set(0, 3, 0.5);
  t.Set(1, 4, 0.9);
  t.Set(3, 4, 0.8);
  t.Set(2, 5, 0.9);
  SimilarityMatrix kept = t.SparsifyTopK(1);
  EXPECT_DOUBLE_EQ(kept.Get(0, 3), 0.5);
  EXPECT_DOUBLE_EQ(kept.Get(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(kept.Get(0, 2), 0.0);
  EXPECT_EQ(kept.NumEdges(), 4u);
}

TEST(SimilarityMatrixTest, SparsifyZeroClearsAll) {
  SimilarityTriangle t(3);
  t.Set(0, 1, 0.5);
  t.Set(1, 2, 0.5);
  EXPECT_EQ(t.SparsifyTopK(0).NumEdges(), 0u);
}

TEST(SimilarityMatrixTest, SparsifyLargeKKeepsEverything) {
  SimilarityTriangle t(3);
  t.Set(0, 1, 0.5);
  t.Set(1, 2, 0.3);
  t.Set(0, 2, 0.2);
  EXPECT_EQ(t.SparsifyTopK(10).NumEdges(), 3u);
}

TEST(SimilarityMatrixTest, SizeZeroAndOneAreFine) {
  SimilarityTriangle zero(0);
  EXPECT_EQ(zero.NumEdges(), 0u);
  EXPECT_EQ(zero.SparsifyTopK(3).size(), 0u);
  SimilarityTriangle one(1);
  EXPECT_DOUBLE_EQ(one.Get(0, 0), 0.0);
  EXPECT_EQ(one.NumEdges(), 0u);
  SimilarityMatrix kept = one.SparsifyTopK(3);
  EXPECT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept.NumEdges(), 0u);
}

// Deterministic pseudo-random weights for the CSR round-trip tests.
SimilarityTriangle MakeRandomTriangle(size_t n, double density,
                                      uint64_t seed) {
  SimilarityTriangle t(n);
  uint64_t state = seed;
  auto next_unit = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (next_unit() < density) t.Set(i, j, 0.05 + next_unit());
    }
  }
  return t;
}

TEST(SimilarityMatrixCompactTest, NeighborsRoundTripsAgainstGet) {
  const SimilarityTriangle dense = MakeRandomTriangle(37, 0.3, 11);
  SimilarityMatrix m = SimilarityTriangle(dense).Compact();
  EXPECT_EQ(m.NumEdges(), dense.NumEdges());

  size_t directed_entries = 0;
  for (size_t i = 0; i < m.size(); ++i) {
    size_t prev = m.size();  // sentinel: no valid neighbor equals size()
    for (const Neighbor& nb : m.Neighbors(i)) {
      // Every CSR entry matches the triangle exactly.
      EXPECT_DOUBLE_EQ(nb.weight, dense.Get(i, nb.index));
      EXPECT_GT(nb.weight, 0.0);
      EXPECT_NE(nb.index, i);
      // Rows are sorted by neighbor index.
      if (prev != m.size()) {
        EXPECT_GT(nb.index, prev);
      }
      prev = nb.index;
      ++directed_entries;
    }
    // And every positive triangle entry appears in the row.
    size_t positive = 0;
    for (size_t j = 0; j < m.size(); ++j) {
      if (dense.Get(i, j) > 0.0) ++positive;
    }
    EXPECT_EQ(m.Neighbors(i).size(), positive);
  }
  EXPECT_EQ(directed_entries, 2 * dense.NumEdges());
}

TEST(SimilarityMatrixCompactTest, SparsifyTopKThenCompactIterates) {
  // The top-k graph iterates like a compacted one.
  SimilarityMatrix m = MakeRandomTriangle(40, 0.6, 5).SparsifyTopK(3);
  for (size_t i = 0; i < m.size(); ++i) {
    for (const Neighbor& nb : m.Neighbors(i)) {
      EXPECT_DOUBLE_EQ(nb.weight, m.Get(i, nb.index));
      EXPECT_DOUBLE_EQ(nb.weight, m.Get(nb.index, i));
    }
  }
  // Survivor degree can exceed k (either-endpoint rule) but every edge
  // is listed at both of its endpoints.
  size_t directed = 0;
  for (size_t i = 0; i < m.size(); ++i) directed += m.Neighbors(i).size();
  EXPECT_EQ(directed, 2 * m.NumEdges());
}

TEST(SimilarityMatrixCompactTest, CompactServesGetFromTheCsr) {
  const SimilarityTriangle dense = MakeRandomTriangle(23, 0.4, 7);
  SimilarityMatrix m = SimilarityTriangle(dense).Compact();
  for (size_t i = 0; i < m.size(); ++i) {
    for (size_t j = 0; j < m.size(); ++j) {
      EXPECT_EQ(m.Get(i, j), dense.Get(i, j)) << i << ", " << j;
    }
  }
}

TEST(SimilarityMatrixCompactTest, CompactHandlesEdgeSizes) {
  SimilarityMatrix empty = SimilarityTriangle(0).Compact();
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.NumEdges(), 0u);

  SimilarityMatrix one = SimilarityTriangle(1).Compact();
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(one.Neighbors(0).size(), 0u);

  // Compact() consumes the triangle: it is left empty.
  SimilarityTriangle t = MakeRandomTriangle(8, 0.5, 17);
  const size_t edges = t.NumEdges();
  SimilarityMatrix m = std::move(t).Compact();
  EXPECT_EQ(m.size(), 8u);
  EXPECT_EQ(m.NumEdges(), edges);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.NumEdges(), 0u);
}

TEST(SimilarityMatrixCompactTest, CompactReleasesTheTriangle) {
  // A sparse n=2000 graph: its triangle is 16 MB and its CSR under 1 MB,
  // so a Compact() that kept the triangle would stay above 8 MB.
  const size_t n = 2000;
  const size_t triangle = n * (n + 1) / 2 * sizeof(double);
  const size_t before = AllocatedBytes();
  SimilarityTriangle t(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; j += 97) t.Set(i, j, 0.5);
  }
  if (AllocatedBytes() < before + triangle) {
    GTEST_SKIP() << "the allocator does not report its usage here";
  }
  SimilarityMatrix m = std::move(t).Compact();
  EXPECT_LT(AllocatedBytes(), before + triangle / 2);
  EXPECT_GT(m.NumEdges(), 0u);
}

}  // namespace
}  // namespace sight
