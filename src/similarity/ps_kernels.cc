#include "similarity/ps_kernels.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "graph/profile_codec.h"
#include "learning/top_k_selection.h"
#include "util/logging.h"

// The AVX2 variant needs x86-64 and a compiler with
// __builtin_cpu_supports + function target attributes.
#if defined(SIGHT_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define SIGHT_PS_SIMD 1
#include <immintrin.h>
#else
#define SIGHT_PS_SIMD 0
#endif

namespace sight {
namespace ps_kernels {
namespace {

// Per-a-row state, packed once per ComputeBatch call and reused across
// every b-row: parallel arrays over the a-row's *present* attributes.
// Attributes missing on the a-row are dropped here — the scalar path
// skips them for every pair, so they contribute nothing regardless of
// the b-side. Attributes where only the b-side is missing are kept and
// contribute w * min(fa, freq[0]) = w * 0.0 = +0.0; adding +0.0 to a
// non-negative accumulator is a bitwise no-op in IEEE-754, which is
// what lets the kernels run branch-free over the b-side (DESIGN.md
// section 11).
struct RowContext {
  std::vector<uint32_t> attr;    // attribute index (ascending)
  std::vector<uint32_t> ca;      // a-row code
  std::vector<uint32_t> fsize;   // frequency-array length
  std::vector<const double*> f;  // frequency-array data
  std::vector<double> fa;        // a-side frequency, bounds-checked
  std::vector<double> w;         // normalized attribute weight

  void Pack(const uint32_t* a, const std::vector<double>& weights,
            const ValueFrequencyTable& freqs) {
    attr.clear();
    ca.clear();
    fsize.clear();
    f.clear();
    fa.clear();
    w.clear();
    for (uint32_t at = 0; at < weights.size(); ++at) {
      uint32_t code = a[at];
      if (code == ProfileCodec::kMissingCode) continue;
      const std::vector<double>& freq = freqs.FrequencyArray(at);
      attr.push_back(at);
      ca.push_back(code);
      fsize.push_back(static_cast<uint32_t>(freq.size()));
      f.push_back(freq.data());
      fa.push_back(code < freq.size() ? freq[code] : 0.0);
      w.push_back(weights[at]);
    }
  }
};

// Portable batch kernel over b-rows [k0, count). Per pair, attributes
// accumulate in ascending order with the same mul-then-add sequence as
// ProfileSimilarity::Compute, so the result is bitwise-identical; the
// wins are the hoisted per-attribute state and the branch-free b-side.
void BatchScalarFrom(const RowContext& ctx, const uint32_t* b, size_t stride,
                     size_t k0, size_t count, double* out) {
  const size_t m = ctx.attr.size();
  for (size_t k = k0; k < count; ++k) {
    const uint32_t* row = b + k * stride;
    double total = 0.0;
    for (size_t s = 0; s < m; ++s) {
      const uint32_t cb = row[ctx.attr[s]];
      const double fb = cb < ctx.fsize[s] ? ctx.f[s][cb] : 0.0;
      const double sim = cb == ctx.ca[s] ? 1.0 : std::min(ctx.fa[s], fb);
      total += ctx.w[s] * sim;
    }
    out[k] = total;
  }
}

void BatchScalar(const RowContext& ctx, const uint32_t* b, size_t stride,
                 size_t count, double* out) {
  BatchScalarFrom(ctx, b, stride, 0, count, out);
}

#if SIGHT_PS_SIMD

// Four pairs per iteration with masked frequency gathers. The mask is
// the unsigned bounds check cb < fsize (bias-XOR turns the signed
// compare unsigned, so kUnknownValue lanes mask out instead of going
// negative); masked-out lanes read 0.0 without touching memory, which
// reproduces FrequencyByCode's out-of-range behaviour exactly. The
// target enables AVX2 only — not FMA — so mul and add stay separate
// roundings, as in the scalar path.
__attribute__((target("avx2"))) void BatchAvx2(const RowContext& ctx,
                                               const uint32_t* b,
                                               size_t stride, size_t count,
                                               double* out) {
  const size_t m = ctx.attr.size();
  const __m128i bias = _mm_set1_epi32(INT32_MIN);
  const __m256d one = _mm256_set1_pd(1.0);
  size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const uint32_t* r0 = b + k * stride;
    const uint32_t* r1 = r0 + stride;
    const uint32_t* r2 = r1 + stride;
    const uint32_t* r3 = r2 + stride;
    __m256d acc = _mm256_setzero_pd();
    for (size_t s = 0; s < m; ++s) {
      const uint32_t at = ctx.attr[s];
      const __m128i cb = _mm_setr_epi32(
          static_cast<int>(r0[at]), static_cast<int>(r1[at]),
          static_cast<int>(r2[at]), static_cast<int>(r3[at]));
      const __m128i inb = _mm_cmpgt_epi32(
          _mm_xor_si128(_mm_set1_epi32(static_cast<int>(ctx.fsize[s])),
                        bias),
          _mm_xor_si128(cb, bias));
      const __m256d fb = _mm256_mask_i32gather_pd(
          _mm256_setzero_pd(), ctx.f[s], cb,
          _mm256_castsi256_pd(_mm256_cvtepi32_epi64(inb)), 8);
      const __m256d eq = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(
          _mm_cmpeq_epi32(cb,
                          _mm_set1_epi32(static_cast<int>(ctx.ca[s])))));
      const __m256d mn = _mm256_min_pd(_mm256_set1_pd(ctx.fa[s]), fb);
      const __m256d sim = _mm256_blendv_pd(mn, one, eq);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(ctx.w[s]), sim));
    }
    _mm256_storeu_pd(out + k, acc);
  }
  BatchScalarFrom(ctx, b, stride, k, count, out);
}

#endif  // SIGHT_PS_SIMD

using BatchFn = void (*)(const RowContext&, const uint32_t*, size_t, size_t,
                         double*);

BatchFn ResolveBatchFn() {
#if SIGHT_PS_SIMD
  if (ActiveDispatch() == Dispatch::kAvx2) return BatchAvx2;
#endif
  return BatchScalar;
}

BatchFn ActiveBatchFn() {
  static const BatchFn fn = ResolveBatchFn();
  return fn;
}

}  // namespace

Dispatch ActiveDispatch() {
#if SIGHT_PS_SIMD
  static const Dispatch dispatch = __builtin_cpu_supports("avx2")
                                       ? Dispatch::kAvx2
                                       : Dispatch::kScalar;
  return dispatch;
#else
  return Dispatch::kScalar;
#endif
}

const char* DispatchName(Dispatch dispatch) {
  switch (dispatch) {
    case Dispatch::kScalar:
      return "scalar";
    case Dispatch::kAvx2:
      return "avx2";
  }
  return "unknown";
}

TileShape DefaultTileShape(size_t num_attributes) {
  // Column block: the b-rows a tile re-reads once per a-row. Budget
  // half a typical 32 KiB L1d for them (the other half covers the
  // output span, the frequency arrays' hot entries, and the a-rows).
  constexpr size_t kColBudgetBytes = 16 * 1024;
  const size_t row_bytes =
      std::max<size_t>(1, num_attributes) * sizeof(uint32_t);
  size_t cols = kColBudgetBytes / row_bytes;
  cols = std::clamp<size_t>(cols & ~size_t{7}, 32, 512);
  // Row block: enough rows that packing the per-row context is noise
  // and a tile is a meaningful ParallelFor work item, small enough that
  // tiles still load-balance across threads.
  return TileShape{64, cols};
}

std::vector<PairTile> MakeTiles(size_t n, TileShape shape) {
  SIGHT_CHECK(shape.rows > 0 && shape.cols > 0);
  std::vector<PairTile> tiles;
  if (n < 2) return tiles;
  for (size_t j0 = 0; j0 + 1 < n; j0 += shape.cols) {
    const size_t j1 = std::min(n, j0 + shape.cols);
    for (size_t i0 = j0 + 1; i0 < n; i0 += shape.rows) {
      // Clamp the first row block of a column stripe to the stripe's
      // diagonal start so blocks stay aligned to multiples of rows.
      const size_t begin = std::max(i0, j0 + 1);
      const size_t end = std::min(n, i0 + shape.rows);
      if (begin >= end) continue;
      tiles.push_back(PairTile{begin, end, j0, j1});
    }
  }
  return tiles;
}

void ComputeBatch(const uint32_t* a, const uint32_t* b, size_t stride,
                  size_t count, const ProfileSimilarity& ps,
                  const ValueFrequencyTable& freqs, double* out) {
  if (count == 0) return;
  RowContext ctx;
  ctx.Pack(a, ps.normalized_weights(), freqs);
  ActiveBatchFn()(ctx, b, stride, count, out);
}

namespace {

// Scores every pair of `tile`, one a-row at a time against the tile's
// block of b-rows, and hands each row's span to sink(i, values, count):
// PS of (i, tile.col_begin + t) for t < count. Rows go in ascending
// order, or descending with `descending`; the values do not depend on it.
template <typename Sink>
void ScoreTile(const uint32_t* rows, size_t num_rows, size_t num_attributes,
               const ProfileSimilarity& ps, const ValueFrequencyTable& freqs,
               const PairTile& tile, bool descending, Sink&& sink) {
  SIGHT_CHECK(tile.row_end <= num_rows);
  const size_t stride = num_attributes;
  const BatchFn batch = ActiveBatchFn();
  RowContext ctx;
  std::vector<double> buf(tile.col_end - tile.col_begin);
  const uint32_t* b = rows + tile.col_begin * stride;
  const size_t first = std::max(tile.row_begin, tile.col_begin + 1);
  for (size_t r = first; r < tile.row_end; ++r) {
    const size_t i = descending ? tile.row_end - 1 - (r - first) : r;
    const size_t count = std::min(tile.col_end, i) - tile.col_begin;
    ctx.Pack(rows + i * stride, ps.normalized_weights(), freqs);
    batch(ctx, b, stride, count, buf.data());
    sink(i, buf.data(), count);
  }
}

TileShape ShapeOrDefault(TileShape shape, size_t num_attributes) {
  return shape.rows > 0 && shape.cols > 0 ? shape
                                          : DefaultTileShape(num_attributes);
}

}  // namespace

void FillTile(const uint32_t* rows, size_t num_rows, size_t num_attributes,
              const ProfileSimilarity& ps, const ValueFrequencyTable& freqs,
              const PairTile& tile, SimilarityTriangle* out) {
  SIGHT_CHECK(out != nullptr);
  ScoreTile(rows, num_rows, num_attributes, ps, freqs, tile,
            /*descending=*/false,
            [&](size_t i, const double* values, size_t count) {
              out->SetRowSpan(i, tile.col_begin, values, count);
            });
}

std::vector<size_t> StripeStarts(size_t n, TileShape shape) {
  SIGHT_CHECK(shape.cols > 0);
  std::vector<size_t> starts;
  for (size_t j0 = 0; j0 + 1 < n; j0 += shape.cols) starts.push_back(j0);
  return starts;
}

void SelectStripe(const uint32_t* rows, size_t num_rows,
                  size_t num_attributes, const ProfileSimilarity& ps,
                  const ValueFrequencyTable& freqs, size_t stripe,
                  TopKSelection* selection) {
  SIGHT_CHECK(selection != nullptr && selection->size() == num_rows);
  const PairTile tile{selection->stripe_begin(stripe) + 1, num_rows,
                      selection->stripe_begin(stripe),
                      selection->stripe_end(stripe)};
  // Descending rows: the order TopKSelection turns ties away fastest in.
  ScoreTile(rows, num_rows, num_attributes, ps, freqs, tile,
            /*descending=*/true,
            [&](size_t i, const double* values, size_t count) {
              selection->AddRowSpan(stripe, i, tile.col_begin, values, count);
            });
}

std::vector<SimilarityMatrix> BuildGraphs(const std::vector<PoolRows>& pools,
                                          const ProfileSimilarity& ps,
                                          size_t top_k, ThreadPool* pool,
                                          TileShape shape) {
  const size_t num_attributes = ps.normalized_weights().size();
  shape = ShapeOrDefault(shape, num_attributes);
  const size_t num_pools = pools.size();
  // Value frequencies come from the pool itself (Section III-C). A dense
  // pool's work items are its tiles, written into its triangle; a
  // streamed pool's are its column stripes, each owning its share of the
  // pool's selection state. Distinct items cover disjoint pairs, so they
  // run without synchronization.
  std::vector<ValueFrequencyTable> freqs;
  freqs.reserve(num_pools);
  std::vector<std::optional<SimilarityTriangle>> triangles(num_pools);
  std::vector<std::optional<TopKSelection>> selections(num_pools);
  std::vector<std::pair<size_t, PairTile>> tiles;
  std::vector<std::pair<size_t, size_t>> stripes;
  size_t total_pairs = 0;
  for (size_t p = 0; p < num_pools; ++p) {
    const size_t n = pools[p].num_rows;
    freqs.push_back(
        ValueFrequencyTable::BuildFromCodes(pools[p].rows, n, num_attributes));
    if (n > 1) total_pairs += n * (n - 1) / 2;
    if (top_k > 0) {
      selections[p].emplace(n, top_k, StripeStarts(n, shape));
      for (size_t s = 0; s < selections[p]->num_stripes(); ++s) {
        stripes.emplace_back(p, s);
      }
      continue;
    }
    triangles[p].emplace(n);
    for (const PairTile& tile : MakeTiles(n, shape)) {
      tiles.emplace_back(p, tile);
    }
  }

  ParallelForOptions options;
  options.total_work = total_pairs;
  ParallelFor(pool, tiles.size() + stripes.size(), [&](size_t t) {
    if (t < tiles.size()) {
      const auto& [p, tile] = tiles[t];
      FillTile(pools[p].rows, pools[p].num_rows, num_attributes, ps, freqs[p],
               tile, &*triangles[p]);
      return;
    }
    const auto& [p, s] = stripes[t - tiles.size()];
    SelectStripe(pools[p].rows, pools[p].num_rows, num_attributes, ps,
                 freqs[p], s, &*selections[p]);
  }, options);

  // The top-k merge or the CSR compaction is independent across pools.
  std::vector<SimilarityMatrix> graphs(num_pools);
  ParallelFor(pool, num_pools, [&](size_t p) {
    graphs[p] = top_k > 0 ? selections[p]->Finish()
                          : std::move(*triangles[p]).Compact();
  });
  return graphs;
}

}  // namespace ps_kernels
}  // namespace sight
