// The streamed top-k build against the keep-matrix body it replaced.
//
// For random pools — duplicate-heavy, so PS ties are common, and with
// all-missing profiles, which give zero rows — of sizes on either side
// of the column-stripe edges, every k from 1 past n, and no pool or
// 1/2/4-thread pools, the streamed CSR must equal the reference
// sparsified triangle's Compact() in row offsets, neighbor indices and
// weight bits. So must SimilarityTriangle::SparsifyTopK, the other
// feeder of the same rule, and a TopKSelection fed the reference's row
// spans directly over narrow, single-column and uneven stripes, rows in
// either order. A last case builds pools of mixed sizes in one
// BuildGraphs call, dense and top-k, against each pool's reference.
// Labeled `threading` so the TSan leg runs the threaded builds.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/profile.h"
#include "graph/profile_codec.h"
#include "learning/similarity_matrix.h"
#include "learning/top_k_selection.h"
#include "similarity/profile_similarity.h"
#include "similarity/ps_kernels.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace sight {
namespace {

// The keep-matrix SparsifyTopK body the streamed selection replaced:
// mark each node's k strongest positive neighbors, ranked by (weight,
// index) descending, then zero every pair neither endpoint marked.
void ReferenceSparsifyTopK(SimilarityTriangle* m, size_t k) {
  const size_t n = m->size();
  if (n == 0) return;
  std::vector<std::vector<bool>> keep(n, std::vector<bool>(n, false));
  std::vector<std::pair<double, size_t>> row;
  for (size_t i = 0; i < n; ++i) {
    row.clear();
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      double w = m->Get(i, j);
      if (w > 0.0) row.emplace_back(w, j);
    }
    size_t take = std::min(k, row.size());
    std::partial_sort(row.begin(), row.begin() + static_cast<ptrdiff_t>(take),
                      row.end(), std::greater<>());
    for (size_t t = 0; t < take; ++t) keep[i][row[t].second] = true;
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (!keep[i][j] && !keep[j][i]) m->Set(i, j, 0.0);
    }
  }
}

// Row offsets, neighbor indices and weight bits of two graphs.
void ExpectSameCsr(const SimilarityMatrix& got, const SimilarityMatrix& want,
                   const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  size_t got_offset = 0;
  size_t want_offset = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    std::span<const Neighbor> g = got.Neighbors(i);
    std::span<const Neighbor> w = want.Neighbors(i);
    ASSERT_EQ(got_offset, want_offset) << label << " row " << i;
    ASSERT_EQ(g.size(), w.size()) << label << " row " << i;
    for (size_t t = 0; t < g.size(); ++t) {
      ASSERT_EQ(g[t].index, w[t].index) << label << " row " << i;
      ASSERT_EQ(std::bit_cast<uint64_t>(g[t].weight),
                std::bit_cast<uint64_t>(w[t].weight))
          << label << " row " << i << " neighbor " << g[t].index;
    }
    got_offset += g.size();
    want_offset += w.size();
  }
}

// Users 0..n-1 over four attributes with 2-5 values each, so many
// profiles repeat and PS values tie; about one user in six has no
// profile (an all-missing row, PS 0 with everyone) and one value in ten
// is missing.
ProfileTable RandomTable(size_t n, uint64_t seed) {
  ProfileTable table(ProfileSchema::Create({"a", "b", "c", "d"}).value());
  Rng rng(seed);
  for (UserId u = 0; u < n; ++u) {
    if (rng.Bernoulli(1.0 / 6.0)) continue;
    Profile p;
    for (int64_t a = 0; a < 4; ++a) {
      p.values.push_back(rng.Bernoulli(0.1)
                             ? std::string(kMissingValue)
                             : "v" + std::to_string(rng.UniformInt(0, a + 1)));
    }
    EXPECT_TRUE(table.Set(u, p).ok());
  }
  return table;
}

struct Pool {
  explicit Pool(size_t n, uint64_t seed)
      : table(RandomTable(n, seed)),
        enc(EncodedProfileTable::Build(table, Users(n))),
        freqs(ValueFrequencyTable::BuildFromCodes(enc.row(0), enc.num_rows(),
                                                 enc.num_attributes())),
        ps(ProfileSimilarity::Create(table.schema()).value()) {}

  static std::vector<UserId> Users(size_t n) {
    std::vector<UserId> users(n);
    for (size_t u = 0; u < n; ++u) users[u] = static_cast<UserId>(u);
    return users;
  }

  ps_kernels::PoolRows Rows() const { return {enc.row(0), enc.num_rows()}; }

  // The dense triangle, one ProfileSimilarity::Compute per pair: no
  // batch kernel is shared with the builds it is the reference for.
  SimilarityTriangle ReferenceFill() const {
    SimilarityTriangle dense(enc.num_rows());
    for (size_t i = 0; i < enc.num_rows(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        dense.Set(i, j, ps.Compute(enc.row(i), enc.row(j), freqs));
      }
    }
    return dense;
  }

  ProfileTable table;
  EncodedProfileTable enc;
  ValueFrequencyTable freqs;
  ProfileSimilarity ps;
};

// Stripe starts of an n-node selection cut every `width` columns.
std::vector<size_t> EvenStripes(size_t n, size_t width) {
  std::vector<size_t> starts;
  for (size_t j0 = 0; j0 + 1 < n; j0 += width) starts.push_back(j0);
  return starts;
}

// Stripes 1, 2, 3, ... columns wide; the last one ends at n.
std::vector<size_t> GrowingStripes(size_t n) {
  std::vector<size_t> starts;
  for (size_t j0 = 0, width = 1; j0 + 1 < n; j0 += width++) {
    starts.push_back(j0);
  }
  return starts;
}

// Feeds the reference triangle's row spans straight into a selection
// cut at `stripe_starts`, rows descending or ascending within each
// stripe, stripes concurrently across `threads`.
SimilarityMatrix SelectDirect(const SimilarityTriangle& dense, size_t k,
                              std::vector<size_t> stripe_starts,
                              bool descending, ThreadPool* threads) {
  const size_t n = dense.size();
  TopKSelection selection(n, k, std::move(stripe_starts));
  ParallelFor(threads, selection.num_stripes(), [&](size_t s) {
    const size_t j0 = selection.stripe_begin(s);
    const size_t j1 = selection.stripe_end(s);
    std::vector<double> span(j1 - j0);
    for (size_t r = j0 + 1; r < n; ++r) {
      const size_t i = descending ? n - (r - j0) : r;
      const size_t count = std::min(j1, i) - j0;
      for (size_t t = 0; t < count; ++t) span[t] = dense.Get(i, j0 + t);
      selection.AddRowSpan(s, i, j0, span.data(), count);
    }
  });
  return selection.Finish();
}

std::string ThreadsLabel(ThreadPool* threads) {
  return std::to_string(threads == nullptr ? 0 : threads->num_threads());
}

// Checks every k against the reference on one pool: SparsifyTopK, then
// for each thread pool given the streamed BuildGraphs and a direct feed
// of each stripe cut in `cuts`, rows in both orders. Returns the number
// of graphs compared.
size_t CheckPool(const Pool& pool, const std::vector<size_t>& ks,
                 const std::vector<std::vector<size_t>>& cuts,
                 const std::vector<ThreadPool*>& thread_pools) {
  const size_t n = pool.enc.num_rows();
  const SimilarityTriangle dense = pool.ReferenceFill();
  size_t compared = 0;
  for (size_t k : ks) {
    SimilarityTriangle kept = dense;
    ReferenceSparsifyTopK(&kept, k);
    const SimilarityMatrix reference = std::move(kept).Compact();
    const std::string label =
        "n=" + std::to_string(n) + " k=" + std::to_string(k);

    ExpectSameCsr(dense.SparsifyTopK(k), reference, "SparsifyTopK " + label);
    for (ThreadPool* threads : thread_pools) {
      std::vector<SimilarityMatrix> streamed =
          ps_kernels::BuildGraphs({pool.Rows()}, pool.ps, k, threads);
      EXPECT_EQ(streamed.size(), 1u) << label;
      ExpectSameCsr(streamed.at(0), reference,
                    label + " threads=" + ThreadsLabel(threads));
      ++compared;
      for (size_t c = 0; c < cuts.size(); ++c) {
        for (bool descending : {true, false}) {
          ExpectSameCsr(SelectDirect(dense, k, cuts[c], descending, threads),
                        reference,
                        label + " cut " + std::to_string(c) +
                            (descending ? " descending" : " ascending") +
                            " threads=" + ThreadsLabel(threads));
          ++compared;
        }
      }
    }
  }
  return compared;
}

class TopKSelectionTest : public ::testing::Test {
 protected:
  TopKSelectionTest() : one_(1), two_(2), four_(4) {}

  std::vector<ThreadPool*> AllPools() {
    return {nullptr, &one_, &two_, &four_};
  }

  ThreadPool one_;
  ThreadPool two_;
  ThreadPool four_;
};

// Sizes 0, 1, 2, around a stripe edge of 8 columns and past two stripes,
// fed directly over single-column, 3-, 5- and 8-column and growing
// stripes; k from 1 to past n.
TEST_F(TopKSelectionTest, SmallPoolsMatchTheReferenceBitwise) {
  size_t compared = 0;
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{8},
                   size_t{9}, size_t{17}, size_t{40}}) {
    const std::vector<std::vector<size_t>> cuts = {
        EvenStripes(n, 1), EvenStripes(n, 3), EvenStripes(n, 5),
        EvenStripes(n, 8), GrowingStripes(n)};
    for (uint64_t seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
      Pool pool(n, 1000 * n + seed);
      std::vector<size_t> ks = {1, 2, 8, n + 3};
      if (n > 1) ks.push_back(n - 1);
      ks.push_back(n);
      compared += CheckPool(pool, ks, cuts, AllPools());
    }
  }
  EXPECT_GT(compared, 0u);
}

// A four-attribute code row is 16 bytes, so BuildGraphs cuts 512-column
// stripes. Pools on either side of each stripe edge: one stripe (511,
// 512, 513), a second stripe of one pair (514), two full stripes (1,025)
// and a third stripe of one pair (1,026); past one stripe, ParallelFor
// dispatches the stripes to the thread pools.
TEST_F(TopKSelectionTest, PoolsAroundTheStripeEdgeMatchBitwise) {
  for (size_t n : {size_t{511}, size_t{512}, size_t{513}, size_t{514},
                   size_t{1025}, size_t{1026}}) {
    Pool pool(n, 77 + n);
    CheckPool(pool, {1, 8}, {}, AllPools());
  }
}

// Many narrow stripes over one large pool, with every k up to n - 1
// and past it.
TEST_F(TopKSelectionTest, NarrowStripesAndLargeKMatchBitwise) {
  Pool pool(300, 4242);
  CheckPool(pool, {1, 3, 8, 299, 300, 1000}, {EvenStripes(300, 24)},
            AllPools());
}

// The cross-pool schedule: pools of mixed sizes — empty, 1 and 2
// members, around a 512-column stripe edge, and past it — built in one
// BuildGraphs call, dense and top-8, serially and on 1, 2 and 4
// threads. Every pool's graph must be bitwise its own per-pool
// reference, whatever work items the other pools add.
TEST_F(TopKSelectionTest, MixedPoolsInOneBuildMatchPerPoolReferences) {
  std::vector<std::unique_ptr<Pool>> pools;
  std::vector<ps_kernels::PoolRows> rows;
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{65}, size_t{511},
                   size_t{513}, size_t{514}, size_t{549}}) {
    pools.push_back(std::make_unique<Pool>(n, 9000 + n));
    rows.push_back(pools.back()->Rows());
  }
  for (size_t k : {size_t{0}, size_t{8}}) {
    std::vector<SimilarityMatrix> references;
    for (const std::unique_ptr<Pool>& pool : pools) {
      SimilarityTriangle dense = pool->ReferenceFill();
      if (k > 0) ReferenceSparsifyTopK(&dense, k);
      references.push_back(std::move(dense).Compact());
    }
    for (ThreadPool* threads : AllPools()) {
      std::vector<SimilarityMatrix> graphs =
          ps_kernels::BuildGraphs(rows, pools.front()->ps, k, threads);
      ASSERT_EQ(graphs.size(), pools.size());
      for (size_t p = 0; p < pools.size(); ++p) {
        ExpectSameCsr(graphs[p], references[p],
                      "pool " + std::to_string(p) + " n=" +
                          std::to_string(pools[p]->enc.num_rows()) +
                          " k=" + std::to_string(k) +
                          " threads=" + ThreadsLabel(threads));
      }
    }
  }
}

}  // namespace
}  // namespace sight
