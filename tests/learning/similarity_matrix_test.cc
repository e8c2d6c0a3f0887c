#include "learning/similarity_matrix.h"

#include <gtest/gtest.h>

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
  SimilarityMatrix m(3);
  EXPECT_EQ(m.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(m.Get(i, j), 0.0);
    }
  }
  EXPECT_EQ(m.NumEdges(), 0u);
}

TEST(SimilarityMatrixTest, SetIsSymmetric) {
  SimilarityMatrix m(4);
  m.Set(1, 3, 0.7);
  EXPECT_DOUBLE_EQ(m.Get(1, 3), 0.7);
  EXPECT_DOUBLE_EQ(m.Get(3, 1), 0.7);
  EXPECT_EQ(m.NumEdges(), 1u);
}

TEST(SimilarityMatrixTest, DiagonalIgnored) {
  SimilarityMatrix m(3);
  m.Set(2, 2, 5.0);
  EXPECT_DOUBLE_EQ(m.Get(2, 2), 0.0);
}

TEST(SimilarityMatrixTest, OverwriteReplacesWeight) {
  SimilarityMatrix m(2);
  m.Set(0, 1, 0.5);
  m.Set(1, 0, 0.9);
  EXPECT_DOUBLE_EQ(m.Get(0, 1), 0.9);
}

TEST(SimilarityMatrixTest, SparsifyKeepsStrongestEdges) {
  SimilarityMatrix m(4);
  // Node 0 has three edges of increasing weight.
  m.Set(0, 1, 0.1);
  m.Set(0, 2, 0.5);
  m.Set(0, 3, 0.9);
  // Nodes 1..3 have no other edges, so each keeps its edge to 0 in its own
  // top-1; all edges survive k=1 via the either-endpoint rule.
  SimilarityMatrix survivors = m;
  survivors.SparsifyTopK(1);
  EXPECT_EQ(survivors.NumEdges(), 3u);

  // With a clique the weakest edges drop.
  SimilarityMatrix clique(3);
  clique.Set(0, 1, 0.9);
  clique.Set(0, 2, 0.8);
  clique.Set(1, 2, 0.1);
  clique.SparsifyTopK(1);
  EXPECT_DOUBLE_EQ(clique.Get(0, 1), 0.9);
  // Edge (1,2) is not in the top-1 of either endpoint (1's best is 0,
  // 2's best is 0), so it is dropped.
  EXPECT_DOUBLE_EQ(clique.Get(1, 2), 0.0);
  EXPECT_EQ(clique.NumEdges(), 2u);
}

TEST(SimilarityMatrixTest, SparsifyTiesKeepTheLargerNeighborIndex) {
  SimilarityMatrix m(6);
  // Node 0's three edges tie at 0.5; nodes 1-3 each have a stronger
  // edge elsewhere, so only node 0's own top-1 can keep one of them.
  m.Set(0, 1, 0.5);
  m.Set(0, 2, 0.5);
  m.Set(0, 3, 0.5);
  m.Set(1, 4, 0.9);
  m.Set(3, 4, 0.8);
  m.Set(2, 5, 0.9);
  m.SparsifyTopK(1);
  EXPECT_DOUBLE_EQ(m.Get(0, 3), 0.5);
  EXPECT_DOUBLE_EQ(m.Get(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.Get(0, 2), 0.0);
  EXPECT_EQ(m.NumEdges(), 4u);
}

TEST(SimilarityMatrixTest, SparsifyZeroClearsAll) {
  SimilarityMatrix m(3);
  m.Set(0, 1, 0.5);
  m.Set(1, 2, 0.5);
  m.SparsifyTopK(0);
  EXPECT_EQ(m.NumEdges(), 0u);
}

TEST(SimilarityMatrixTest, SparsifyLargeKKeepsEverything) {
  SimilarityMatrix m(3);
  m.Set(0, 1, 0.5);
  m.Set(1, 2, 0.3);
  m.Set(0, 2, 0.2);
  m.SparsifyTopK(10);
  EXPECT_EQ(m.NumEdges(), 3u);
}

TEST(SimilarityMatrixTest, SizeZeroAndOneAreFine) {
  SimilarityMatrix zero(0);
  EXPECT_EQ(zero.NumEdges(), 0u);
  zero.SparsifyTopK(3);
  SimilarityMatrix one(1);
  EXPECT_DOUBLE_EQ(one.Get(0, 0), 0.0);
  EXPECT_EQ(one.NumEdges(), 0u);
}

// Deterministic pseudo-random weights for the CSR round-trip tests.
SimilarityMatrix MakeRandomMatrix(size_t n, double density, uint64_t seed) {
  SimilarityMatrix m(n);
  uint64_t state = seed;
  auto next_unit = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (next_unit() < density) m.Set(i, j, 0.05 + next_unit());
    }
  }
  return m;
}

TEST(SimilarityMatrixCompactTest, NeighborsRoundTripsAgainstGet) {
  SimilarityMatrix m = MakeRandomMatrix(37, 0.3, 11);
  size_t edges_before = m.NumEdges();
  m.Compact();
  ASSERT_TRUE(m.compacted());
  EXPECT_EQ(m.NumEdges(), edges_before);

  size_t directed_entries = 0;
  for (size_t i = 0; i < m.size(); ++i) {
    size_t prev = m.size();  // sentinel: no valid neighbor equals size()
    for (const Neighbor& nb : m.Neighbors(i)) {
      // Every CSR entry matches the dense accessor exactly.
      EXPECT_DOUBLE_EQ(nb.weight, m.Get(i, nb.index));
      EXPECT_GT(nb.weight, 0.0);
      EXPECT_NE(nb.index, i);
      // Rows are sorted by neighbor index.
      if (prev != m.size()) {
        EXPECT_GT(nb.index, prev);
      }
      prev = nb.index;
      ++directed_entries;
    }
    // And every positive dense entry appears in the row.
    size_t positive = 0;
    for (size_t j = 0; j < m.size(); ++j) {
      if (m.Get(i, j) > 0.0) ++positive;
    }
    EXPECT_EQ(m.Neighbors(i).size(), positive);
  }
  EXPECT_EQ(directed_entries, 2 * edges_before);
}

TEST(SimilarityMatrixCompactTest, SparsifyTopKThenCompactIterates) {
  SimilarityMatrix m = MakeRandomMatrix(40, 0.6, 5);
  m.SparsifyTopK(3);
  m.Compact();
  for (size_t i = 0; i < m.size(); ++i) {
    for (const Neighbor& nb : m.Neighbors(i)) {
      EXPECT_DOUBLE_EQ(nb.weight, m.Get(i, nb.index));
    }
  }
  // Survivor degree can exceed k (either-endpoint rule) but the total
  // edge count matches the dense view.
  size_t directed = 0;
  for (size_t i = 0; i < m.size(); ++i) directed += m.Neighbors(i).size();
  EXPECT_EQ(directed, 2 * m.NumEdges());
}

TEST(SimilarityMatrixCompactTest, CompactServesGetFromTheCsr) {
  SimilarityMatrix m = MakeRandomMatrix(23, 0.4, 7);
  SimilarityMatrix dense = m;
  m.Compact();
  for (size_t i = 0; i < m.size(); ++i) {
    for (size_t j = 0; j < m.size(); ++j) {
      EXPECT_EQ(m.Get(i, j), dense.Get(i, j)) << i << ", " << j;
    }
  }
}

TEST(SimilarityMatrixCompactDeathTest, SetAfterCompactIsACheckedError) {
  SimilarityMatrix m(4);
  m.Set(0, 1, 0.5);
  m.Compact();
  ASSERT_TRUE(m.compacted());
  EXPECT_DEATH(m.Set(2, 3, 0.7), "check failed");
  const double span[] = {0.7};
  EXPECT_DEATH(m.SetRowSpan(3, 2, span, 1), "check failed");
}

TEST(SimilarityMatrixCompactDeathTest, SparsifyAfterCompactIsACheckedError) {
  SimilarityMatrix m = MakeRandomMatrix(10, 0.8, 3);
  m.Compact();
  EXPECT_DEATH(m.SparsifyTopK(1), "check failed");
}

TEST(SimilarityMatrixCompactTest, CompactIsIdempotentAndHandlesEdgeSizes) {
  SimilarityMatrix empty(0);
  empty.Compact();
  EXPECT_TRUE(empty.compacted());

  SimilarityMatrix one(1);
  one.Compact();
  EXPECT_EQ(one.Neighbors(0).size(), 0u);

  SimilarityMatrix m = MakeRandomMatrix(8, 0.5, 17);
  m.Compact();
  m.Compact();  // no-op
  EXPECT_TRUE(m.compacted());
}

TEST(SimilarityMatrixCompactTest, CompactReleasesTheTriangle) {
  // A sparse n=2000 graph: its triangle is 16 MB and its CSR under 1 MB,
  // so a compacted matrix that kept the triangle would stay above 8 MB.
  const size_t n = 2000;
  const size_t triangle = n * (n + 1) / 2 * sizeof(double);
  const size_t before = AllocatedBytes();
  SimilarityMatrix m(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; j += 97) m.Set(i, j, 0.5);
  }
  if (AllocatedBytes() < before + triangle) {
    GTEST_SKIP() << "the allocator does not report its usage here";
  }
  m.Compact();
  EXPECT_LT(AllocatedBytes(), before + triangle / 2);
}

}  // namespace
}  // namespace sight
