#include "similarity/ps_kernels.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>

#include "graph/profile_codec.h"
#include "learning/top_k_selection.h"

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

// A pool's members grouped into classes of identical code rows, found by
// sorting member indices by row, then by index, and cutting wherever the
// row changes. Each class lists its members ascending. Classes are
// ordered by their largest member, so class rows added in descending
// order offer most heaps their candidates in descending index order, as
// one row per member would (see TopKSelection::AddRow).
MemberClasses ClassesOf(const uint32_t* rows, size_t n, size_t stride) {
  auto row = [&](size_t i) { return rows + i * stride; };
  std::vector<size_t> sorted(n);
  std::iota(sorted.begin(), sorted.end(), size_t{0});
  std::sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
    const auto [pa, pb] = std::mismatch(row(a), row(a) + stride, row(b));
    return pa != row(a) + stride ? *pa < *pb : a < b;
  });
  // Each run of equal rows as (its largest member, its start in sorted).
  std::vector<std::pair<size_t, size_t>> runs;
  for (size_t t = 0; t < n; ++t) {
    const uint32_t* prev = t > 0 ? row(sorted[t - 1]) : nullptr;
    if (t == 0 || !std::equal(prev, prev + stride, row(sorted[t]))) {
      runs.emplace_back(0, t);
    }
    runs.back().first = sorted[t];
  }
  std::sort(runs.begin(), runs.end());
  MemberClasses classes;
  classes.members.reserve(n);
  for (const auto& [last, start] : runs) {
    for (size_t t = start;; ++t) {
      classes.members.push_back(sorted[t]);
      if (sorted[t] == last) break;
    }
    classes.offsets.push_back(classes.members.size());
  }
  return classes;
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

void ComputeBatch(const uint32_t* a, const uint32_t* b, size_t stride,
                  size_t count, const ProfileSimilarity& ps,
                  const ValueFrequencyTable& freqs, double* out) {
  if (count == 0) return;
  RowContext ctx;
  ctx.Pack(a, ps.normalized_weights(), freqs);
  ActiveBatchFn()(ctx, b, stride, count, out);
}

std::vector<PoolGraph> BuildGraphs(const std::vector<PoolRows>& pools,
                                   const ProfileSimilarity& ps, size_t top_k) {
  const std::vector<double>& weights = ps.normalized_weights();
  const size_t stride = weights.size();
  const BatchFn batch = ActiveBatchFn();
  RowContext ctx;
  std::vector<uint32_t> class_rows;
  std::vector<double> row;
  std::vector<std::span<const double>> frequencies(stride);
  std::vector<PoolGraph> graphs;
  graphs.reserve(pools.size());
  for (const PoolRows& pool : pools) {
    const size_t n = pool.num_rows;
    // Value frequencies come from the pool itself (Section III-C).
    const ValueFrequencyTable freqs =
        ValueFrequencyTable::BuildFromCodes(pool.rows, n, stride);
    if (top_k == 0) {
      for (size_t a = 0; a < stride; ++a) {
        frequencies[a] = freqs.FrequencyArray(static_cast<AttributeId>(a));
      }
      graphs.emplace_back(
          FactoredPsGraph(pool.rows, n, weights, frequencies));
      continue;
    }
    // Members with identical code rows are one class: PS reads only the
    // two rows and the pool's frequencies, so a class's members have the
    // same weight to anyone. Each class pair is scored once, on a compact
    // array of one row per class.
    MemberClasses classes = ClassesOf(pool.rows, n, stride);
    const size_t num_classes = classes.size();
    class_rows.resize(num_classes * stride);
    for (size_t c = 0; c < num_classes; ++c) {
      const uint32_t* first =
          pool.rows + classes.members[classes.offsets[c]] * stride;
      std::copy(first, first + stride, class_rows.data() + c * stride);
    }
    row.resize(num_classes);
    TopKSelection selection(std::move(classes), top_k);
    // Class row c against classes [0, c], itself included, rows
    // descending. The values do not depend on the order.
    for (size_t c = num_classes; c-- > 0;) {
      ctx.Pack(class_rows.data() + c * stride, weights, freqs);
      batch(ctx, class_rows.data(), stride, c + 1, row.data());
      selection.AddRow(c, row.data());
    }
    graphs.emplace_back(selection.Finish());
  }
  return graphs;
}

}  // namespace ps_kernels
}  // namespace sight
