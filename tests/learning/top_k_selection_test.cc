// The streamed top-k build against the keep-matrix body it replaced.
//
// For random pools — duplicate-heavy, so PS ties are common, and with
// all-missing profiles, which give zero rows — from empty up to 1,100
// rows and every k from 1 past n, the streamed CSR must equal the
// reference sparsified triangle's Compact() in row offsets, neighbor
// indices and weight bits. So must SimilarityTriangle::SparsifyTopK, the
// other feeder of the same rule, and a TopKSelection fed the reference's
// rows directly, one class per node, in descending, ascending and
// shuffled order. The streamed build scores one row per class of
// identical rows, so hand-made pools stress the classes: every row the
// same, classes of k - 1, k and k + 1 members side by side, a non-twin
// that ties a twin, an all-missing class, and k >= n. Classes fed in
// any numbering and row order must give the same graph, and pools of 1
// to 9 classes with missing codes on either side of a pair drive every
// tail of the column kernel. A last case builds
// pools of mixed sizes in one BuildGraphs call, dense and top-k, against
// each pool's reference: a top-k pool's CSR bit for bit, a dense pool's
// factored graph pair by pair through Get() and by its solves.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/profile.h"
#include "graph/profile_codec.h"
#include "learning/pool_graph_testing.h"
#include "learning/similarity_matrix.h"
#include "learning/top_k_selection.h"
#include "similarity/profile_similarity.h"
#include "similarity/ps_kernels.h"
#include "util/random.h"

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

// Users 0..rows.size()-1 over the same four attributes, user u holding
// rows[u]; an empty row is a user with no profile, and an empty value
// (kMissingValue) is missing.
ProfileTable TableOf(const std::vector<std::vector<std::string>>& rows) {
  ProfileTable table(ProfileSchema::Create({"a", "b", "c", "d"}).value());
  for (UserId u = 0; u < rows.size(); ++u) {
    if (rows[u].empty()) continue;
    Profile p;
    p.values = rows[u];
    EXPECT_TRUE(table.Set(u, p).ok());
  }
  return table;
}

struct Pool {
  explicit Pool(size_t n, uint64_t seed) : Pool(RandomTable(n, seed), n) {}
  explicit Pool(const std::vector<std::vector<std::string>>& rows)
      : Pool(TableOf(rows), rows.size()) {}
  Pool(ProfileTable profiles, size_t n)
      : table(std::move(profiles)),
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

// The order a direct feed adds the rows in.
enum class RowOrder { kDescending, kAscending, kShuffled };

std::string OrderLabel(RowOrder order) {
  switch (order) {
    case RowOrder::kDescending:
      return "descending";
    case RowOrder::kAscending:
      return "ascending";
    case RowOrder::kShuffled:
      return "shuffled";
  }
  return "?";
}

// Feeds the reference triangle's rows straight into a selection, one
// class per node, in `order`. Get(i, i) reads 0: no node is its own
// neighbor.
SimilarityMatrix SelectDirect(const SimilarityTriangle& dense, size_t k,
                              RowOrder order) {
  const size_t n = dense.size();
  std::vector<size_t> rows(n);
  std::iota(rows.begin(), rows.end(), size_t{0});
  if (order == RowOrder::kDescending) std::reverse(rows.begin(), rows.end());
  if (order == RowOrder::kShuffled) {
    Rng rng(31 * n + k);
    rng.Shuffle(&rows);
  }
  TopKSelection selection(MemberClasses::Singletons(n), k);
  std::vector<double> row(n);
  for (size_t i : rows) {
    for (size_t j = 0; j <= i; ++j) row[j] = dense.Get(i, j);
    selection.AddRow(i, row.data());
  }
  return selection.Finish();
}

// Checks every k against the reference on one pool: SparsifyTopK, the
// streamed BuildGraphs and a direct feed in each row order. Returns the
// number of graphs compared.
size_t CheckPool(const Pool& pool, const std::vector<size_t>& ks) {
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
    ++compared;
    // top_k 0 asks BuildGraphs for the dense graph, which is factored:
    // MixedPoolsInOneBuildMatchPerPoolReferences covers it.
    if (k > 0) {
      std::vector<PoolGraph> streamed =
          ps_kernels::BuildGraphs({pool.Rows()}, pool.ps, k);
      EXPECT_EQ(streamed.size(), 1u) << label;
      const SimilarityMatrix* csr = streamed.at(0).csr();
      EXPECT_NE(csr, nullptr) << label;
      if (csr != nullptr) {
        ExpectSameCsr(*csr, reference, "BuildGraphs " + label);
      }
      ++compared;
    }
    for (RowOrder order :
         {RowOrder::kDescending, RowOrder::kAscending, RowOrder::kShuffled}) {
      ExpectSameCsr(SelectDirect(dense, k, order), reference,
                    label + " " + OrderLabel(order));
      ++compared;
    }
  }
  return compared;
}

// Sizes 0, 1, 2 and a few small pools; k from 1 to past n.
TEST(TopKSelectionTest, SmallPoolsMatchTheReferenceBitwise) {
  size_t compared = 0;
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{8},
                   size_t{9}, size_t{17}, size_t{40}}) {
    for (uint64_t seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
      Pool pool(n, 1000 * n + seed);
      std::vector<size_t> ks = {1, 2, 8, n + 3};
      if (n > 1) ks.push_back(n - 1);
      ks.push_back(n);
      compared += CheckPool(pool, ks);
    }
  }
  EXPECT_GT(compared, 0u);
}

// Pools of a few hundred up to 1,100 rows, top-1 and top-8.
TEST(TopKSelectionTest, LargePoolsMatchBitwise) {
  for (size_t n : {size_t{300}, size_t{513}, size_t{1100}}) {
    Pool pool(n, 77 + n);
    CheckPool(pool, {1, 8});
  }
}

// Every k up to n - 1 and past it, on one pool.
TEST(TopKSelectionTest, LargeKMatchesBitwise) {
  Pool pool(300, 4242);
  CheckPool(pool, {1, 3, 8, 299, 300, 1000});
}

// Every k in `ks` and every k from n - 1 to n + 2, so k >= n is always
// covered.
std::vector<size_t> WithLargeK(std::vector<size_t> ks, size_t n) {
  for (size_t k = n > 0 ? n - 1 : 0; k <= n + 2; ++k) {
    if (k > 0) ks.push_back(k);
  }
  return ks;
}

// `count` copies of each row of `rows`, in an order shuffled by `seed`,
// so that each class's members interleave with the other classes'.
std::vector<std::vector<std::string>> Interleaved(
    const std::vector<std::pair<std::vector<std::string>, size_t>>& rows,
    uint64_t seed) {
  std::vector<std::vector<std::string>> out;
  for (const auto& [row, count] : rows) out.insert(out.end(), count, row);
  Rng rng(seed);
  rng.Shuffle(&out);
  return out;
}

const std::vector<std::string> kRowA = {"v0", "v1", "v0", "v1"};
const std::vector<std::string> kRowB = {"v1", "v1", "v0", "v0"};
const std::vector<std::string> kRowC = {"v1", "v0", "v1", "v0"};

// One class: every row the same, so every pair ties and a member's top k
// are the k largest other indices. n = k, k + 1, k + 2 and 40.
TEST(TopKSelectionTest, AllRowsIdenticalMatchBitwise) {
  for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    for (size_t n : {k, k + 1, k + 2, size_t{40}}) {
      CheckPool(Pool(std::vector<std::vector<std::string>>(n, kRowA)),
                WithLargeK({k}, n));
    }
  }
}

// Classes of k - 1, k and k + 1 members side by side, interleaved by
// index, alone and among random rows.
TEST(TopKSelectionTest, ClassesAroundKMatchBitwise) {
  for (size_t k : {size_t{2}, size_t{3}, size_t{8}}) {
    for (uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
      std::vector<std::vector<std::string>> rows =
          Interleaved({{kRowA, k - 1}, {kRowB, k}, {kRowC, k + 1}}, seed);
      CheckPool(Pool(rows), WithLargeK({1, k - 1, k, k + 1}, rows.size()));
      // The same classes among random rows, which repeat too.
      const Pool noise(30, 500 + seed);
      for (UserId u = 0; u < 30; ++u) {
        rows.push_back(noise.table.Has(u) ? noise.table.Get(u).values
                                          : std::vector<std::string>());
      }
      Rng rng(seed);
      rng.Shuffle(&rows);
      CheckPool(Pool(rows), WithLargeK({1, k - 1, k, k + 1}, rows.size()));
    }
  }
}

// A member whose row is missing where its twin's is not ties its twin:
// PS sums over the first row's present attributes, so a row with "b"
// missing scores the same with a twin as with a member that differs
// from it only at "b". Twins and non-twins must then rank by index
// alone, across classes.
TEST(TopKSelectionTest, NonTwinTyingATwinMatchesBitwise) {
  const std::vector<std::string> gap = {"v0", "", "v1", "v0"};
  const std::vector<std::string> full = {"v0", "v1", "v1", "v0"};
  const std::vector<std::string> other = {"v0", "v0", "v1", "v0"};
  for (uint64_t seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
    for (size_t twins : {size_t{1}, size_t{3}, size_t{9}}) {
      std::vector<std::vector<std::string>> rows = Interleaved(
          {{gap, twins}, {full, 4}, {other, 5}, {kRowB, 2}}, seed);
      const Pool pool(rows);
      // The tie the case is about.
      const size_t g = static_cast<size_t>(
          std::find(rows.begin(), rows.end(), gap) - rows.begin());
      const size_t f = static_cast<size_t>(
          std::find(rows.begin(), rows.end(), full) - rows.begin());
      ASSERT_EQ(pool.ps.Compute(pool.enc.row(g), pool.enc.row(f), pool.freqs),
                pool.ps.Compute(pool.enc.row(g), pool.enc.row(g), pool.freqs));
      CheckPool(pool, WithLargeK({1, 2, 3, 8}, rows.size()));
    }
  }
}

// Members with no profile form one class with PS 0 to everyone, itself
// included: they get no edge, and no other member gets one to them.
// Alone, as most of a pool, and beside one other member.
TEST(TopKSelectionTest, AllMissingClassMatchesBitwise) {
  const std::vector<std::string> none;
  for (uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
    for (const auto& rows :
         {Interleaved({{none, 6}}, seed),
          Interleaved({{none, 12}, {kRowA, 3}, {kRowB, 1}}, seed),
          Interleaved({{none, 2}, {kRowC, 1}}, seed),
          Interleaved({{none, 5}, {kRowA, 9}, {kRowC, 9}}, seed)}) {
      CheckPool(Pool(rows), WithLargeK({1, 2, 8}, rows.size()));
    }
  }
}

// The classes of identical code rows of `pool`, each listing its members
// ascending, in the lexicographic order of their rows: the numbering
// BuildGraphs gives them.
std::vector<std::vector<size_t>> LexicographicClasses(const Pool& pool) {
  const size_t stride = pool.enc.num_attributes();
  auto row = [&](size_t i) {
    return std::vector<uint32_t>(pool.enc.row(i), pool.enc.row(i) + stride);
  };
  std::vector<size_t> order(pool.enc.num_rows());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return row(a) < row(b); });
  std::vector<std::vector<size_t>> classes;
  for (size_t i : order) {
    if (classes.empty() || row(classes.back().front()) != row(i)) {
      classes.emplace_back();
    }
    classes.back().push_back(i);
  }
  return classes;
}

// Feeds `classes`, class c being classes[c], to a selection, adding the
// class rows in `rows` order. Class c's row holds the PS of its first
// member with the first member of each class d <= c.
SimilarityMatrix SelectClasses(const Pool& pool,
                               const std::vector<std::vector<size_t>>& classes,
                               const std::vector<size_t>& rows, size_t k) {
  MemberClasses numbered;
  for (const std::vector<size_t>& members : classes) {
    numbered.members.insert(numbered.members.end(), members.begin(),
                            members.end());
    numbered.offsets.push_back(numbered.members.size());
  }
  TopKSelection selection(std::move(numbered), k);
  std::vector<double> row(classes.size());
  for (size_t c : rows) {
    const uint32_t* a = pool.enc.row(classes[c].front());
    for (size_t d = 0; d <= c; ++d) {
      row[d] = pool.ps.Compute(a, pool.enc.row(classes[d].front()),
                               pool.freqs);
    }
    selection.AddRow(c, row.data());
  }
  return selection.Finish();
}

// How classes are numbered and in which order their rows arrive decides
// only how soon each heap's floor rises, never the graph. A
// duplicate-heavy pool is fed three ways: numbered by row with rows
// ascending (BuildGraphs' order), numbered by largest member with rows
// descending, and numbered at random with rows shuffled.
TEST(TopKSelectionTest, ClassNumberingDoesNotChangeTheGraph) {
  for (uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
    const Pool pool(400, 6100 + seed);
    const size_t n = pool.enc.num_rows();
    const std::vector<std::vector<size_t>> by_row =
        LexicographicClasses(pool);
    ASSERT_LT(by_row.size(), n / 2) << "the pool should repeat rows";
    std::vector<std::vector<size_t>> by_last = by_row;
    std::sort(by_last.begin(), by_last.end(),
              [](const std::vector<size_t>& a, const std::vector<size_t>& b) {
                return a.back() < b.back();
              });
    std::vector<std::vector<size_t>> shuffled = by_row;
    Rng rng(seed);
    rng.Shuffle(&shuffled);

    std::vector<size_t> ascending(by_row.size());
    std::iota(ascending.begin(), ascending.end(), size_t{0});
    const std::vector<size_t> descending(ascending.rbegin(),
                                         ascending.rend());
    std::vector<size_t> random_rows = ascending;
    rng.Shuffle(&random_rows);

    const SimilarityTriangle dense = pool.ReferenceFill();
    for (size_t k : WithLargeK({1, 2, 3, 8}, n)) {
      SimilarityTriangle kept = dense;
      ReferenceSparsifyTopK(&kept, k);
      const SimilarityMatrix reference = std::move(kept).Compact();
      const std::string label = "seed=" + std::to_string(seed) +
                                " k=" + std::to_string(k);
      ExpectSameCsr(SelectClasses(pool, by_row, ascending, k), reference,
                    label + " by row, ascending");
      ExpectSameCsr(SelectClasses(pool, by_last, descending, k), reference,
                    label + " by largest member, descending");
      ExpectSameCsr(SelectClasses(pool, shuffled, random_rows, k), reference,
                    label + " at random, shuffled");
    }
  }
}

// The column kernel through BuildGraphs' top-k branch, on pools of 1 to
// 9 classes, so that class row c, scored against c + 1 classes, runs
// every lane group and every tail of zero to three pairs. The rows
// miss attributes in every way a pair can: on the a-side only, on the
// b-side only (which side a class is depends on the row order), on
// both, and everywhere (an all-missing class, whose own row packs no
// attribute at all).
TEST(TopKSelectionTest, ColumnKernelEdgeCasesMatchBitwise) {
  const std::vector<std::vector<std::string>> rows = {
      {"v0", "v1", "v0", "v1"}, {"v0", "", "v0", "v1"},
      {"v0", "v1", "", "v1"},   {"v1", "", "v1", "v0"},
      {},                       {"v1", "v1", "v0", "v0"},
      {"", "v0", "v0", ""},     {"v1", "v0", "v1", "v0"},
      {"v0", "v0", "v1", "v1"},
  };
  for (size_t classes = 1; classes <= rows.size(); ++classes) {
    for (uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
      std::vector<std::pair<std::vector<std::string>, size_t>> counts;
      for (size_t c = 0; c < classes; ++c) {
        counts.emplace_back(rows[c], 1 + (c + seed) % 3);
      }
      const std::vector<std::vector<std::string>> members =
          Interleaved(counts, seed);
      SCOPED_TRACE(std::to_string(classes) + " classes, seed " +
                   std::to_string(seed));
      CheckPool(Pool(members), WithLargeK({1, 2, 3, 8}, members.size()));
    }
  }
}

// Pools of mixed sizes — empty, 1 and 2 members, and larger ones —
// built in one BuildGraphs call, dense and top-8. Every top-8 pool's CSR
// must be bitwise its own per-pool reference; every dense pool's
// factored graph must read the reference's bits pair by pair and solve
// as the reference's CSR does.
TEST(TopKSelectionTest, MixedPoolsInOneBuildMatchPerPoolReferences) {
  std::vector<std::unique_ptr<Pool>> pools;
  std::vector<ps_kernels::PoolRows> rows;
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{65}, size_t{300},
                   size_t{549}}) {
    pools.push_back(std::make_unique<Pool>(n, 9000 + n));
    rows.push_back(pools.back()->Rows());
  }
  for (size_t k : {size_t{0}, size_t{8}}) {
    std::vector<PoolGraph> graphs =
        ps_kernels::BuildGraphs(rows, pools.front()->ps, k);
    ASSERT_EQ(graphs.size(), pools.size());
    for (size_t p = 0; p < pools.size(); ++p) {
      const size_t n = pools[p]->enc.num_rows();
      const std::string label = "pool " + std::to_string(p) + " n=" +
                                std::to_string(n) + " k=" + std::to_string(k);
      SimilarityTriangle dense = pools[p]->ReferenceFill();
      if (k > 0) {
        ReferenceSparsifyTopK(&dense, k);
        ASSERT_NE(graphs[p].csr(), nullptr) << label;
        ExpectSameCsr(*graphs[p].csr(), std::move(dense).Compact(), label);
        continue;
      }
      ASSERT_NE(graphs[p].factored(), nullptr) << label;
      ExpectSamePairs(graphs[p], dense, label);
      if (n < 2) continue;
      ExpectSameSolves(graphs[p], std::move(dense).Compact(),
                       SpreadLabels(n, std::max<size_t>(2, n / 40)), label);
    }
  }
}

}  // namespace
}  // namespace sight
