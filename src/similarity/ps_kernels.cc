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

// The b-side of a batch as columns: for each attribute, every b-row's
// code and that code's pool frequency (0.0 when out of range, as
// FrequencyByCode reads it). The kernels then read four pairs' codes
// and frequencies with two plain loads per attribute, and only Fill
// indexes a frequency array by code.
struct Columns {
  size_t count = 0;             // rows
  std::vector<uint32_t> codes;  // attribute at's column at [at * count]
  std::vector<double> freqs;    // laid out as `codes`

  // Columns of rows row_of(0), ..., row_of(num_rows - 1), each holding
  // at least `num_attributes` codes.
  template <typename RowOf>
  void Fill(size_t num_rows, size_t num_attributes,
            const ValueFrequencyTable& table, const RowOf& row_of) {
    count = num_rows;
    codes.resize(num_attributes * count);
    freqs.resize(num_attributes * count);
    for (size_t at = 0; at < num_attributes; ++at) {
      const std::vector<double>& f =
          table.FrequencyArray(static_cast<AttributeId>(at));
      for (size_t k = 0; k < count; ++k) {
        const uint32_t code = row_of(k)[at];
        codes[at * count + k] = code;
        freqs[at * count + k] = code < f.size() ? f[code] : 0.0;
      }
    }
  }
};

// Per-a-row state, packed once per a-row and reused across every b-row:
// parallel arrays over the a-row's *present* attributes. Attributes
// missing on the a-row are dropped here — the scalar path skips them for
// every pair, so they contribute nothing regardless of the b-side.
// Attributes where only the b-side is missing are kept and contribute
// w * min(fa, freq[0]) = w * 0.0 = +0.0; adding +0.0 to a non-negative
// accumulator is a bitwise no-op in IEEE-754, which is what lets the
// kernels run branch-free over the b-side (DESIGN.md section 11).
struct RowContext {
  std::vector<size_t> attr;  // attribute index (ascending)
  std::vector<uint32_t> ca;  // a-row code
  std::vector<double> fa;    // a-side frequency, 0.0 when out of range
  std::vector<double> w;     // normalized attribute weight

  // Packs row k of `cols`.
  void Pack(const Columns& cols, size_t k,
            const std::vector<double>& weights) {
    attr.clear();
    ca.clear();
    fa.clear();
    w.clear();
    for (size_t at = 0; at < weights.size(); ++at) {
      const uint32_t code = cols.codes[at * cols.count + k];
      if (code == ProfileCodec::kMissingCode) continue;
      attr.push_back(at);
      ca.push_back(code);
      fa.push_back(cols.freqs[at * cols.count + k]);
      w.push_back(weights[at]);
    }
  }
};

// Portable kernel: out[k] = PS(a-row, b-row k) for b-rows [k0, count)
// of `cols`. Per pair, attributes accumulate in ascending order with the
// same mul-then-add sequence as ProfileSimilarity::Compute, so the
// result is bitwise-identical; the wins are the hoisted a-row state and
// the branch-free b-side.
void ScoreScalar(const RowContext& ctx, const Columns& cols, size_t k0,
                 size_t count, double* out) {
  const size_t m = ctx.attr.size();
  for (size_t k = k0; k < count; ++k) {
    double total = 0.0;
    for (size_t s = 0; s < m; ++s) {
      const size_t at = ctx.attr[s] * cols.count + k;
      const double sim = cols.codes[at] == ctx.ca[s]
                             ? 1.0
                             : std::min(ctx.fa[s], cols.freqs[at]);
      total += ctx.w[s] * sim;
    }
    out[k] = total;
  }
}

#if SIGHT_PS_SIMD

// The scalar kernel's lane math, four pairs to a vector: per attribute,
// one plain load of four b-codes and one of their frequencies. The
// target enables AVX2 only — not FMA — so mul and add stay separate
// roundings, as in the scalar kernel, which also takes the last zero to
// three pairs.
__attribute__((target("avx2"))) void ScoreAvx2(const RowContext& ctx,
                                               const Columns& cols,
                                               size_t count, double* out) {
  const size_t m = ctx.attr.size();
  const __m256d one = _mm256_set1_pd(1.0);
  size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (size_t s = 0; s < m; ++s) {
      const size_t at = ctx.attr[s] * cols.count + k;
      const __m128i cb = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(cols.codes.data() + at));
      const __m256d fb = _mm256_loadu_pd(cols.freqs.data() + at);
      const __m256d eq = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(
          _mm_cmpeq_epi32(cb,
                          _mm_set1_epi32(static_cast<int>(ctx.ca[s])))));
      const __m256d mn = _mm256_min_pd(_mm256_set1_pd(ctx.fa[s]), fb);
      const __m256d sim = _mm256_blendv_pd(mn, one, eq);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(ctx.w[s]), sim));
    }
    _mm256_storeu_pd(out + k, acc);
  }
  ScoreScalar(ctx, cols, k, count, out);
}

#endif  // SIGHT_PS_SIMD

// out[k] = PS(a-row, b-row k) for b-rows [0, count) of `cols`, on the
// kernel ActiveDispatch picked.
void Score(const RowContext& ctx, const Columns& cols, size_t count,
           double* out) {
#if SIGHT_PS_SIMD
  if (ActiveDispatch() == Dispatch::kAvx2) {
    ScoreAvx2(ctx, cols, count, out);
    return;
  }
#endif
  ScoreScalar(ctx, cols, 0, count, out);
}

// A pool's members grouped into classes of identical code rows, found by
// sorting member indices by row, then by index, and cutting wherever the
// row changes. Classes are numbered in that row order and list their
// members ascending, so classes with close numbers share leading codes
// (see BuildGraphs on why that order is the one rows are added in).
MemberClasses ClassesOf(const uint32_t* rows, size_t n, size_t stride) {
  auto row = [&](size_t i) { return rows + i * stride; };
  MemberClasses classes;
  classes.members.resize(n);
  std::iota(classes.members.begin(), classes.members.end(), size_t{0});
  std::sort(classes.members.begin(), classes.members.end(),
            [&](size_t a, size_t b) {
              const auto [pa, pb] =
                  std::mismatch(row(a), row(a) + stride, row(b));
              return pa != row(a) + stride ? *pa < *pb : a < b;
            });
  for (size_t t = 1; t < n; ++t) {
    const uint32_t* prev = row(classes.members[t - 1]);
    if (!std::equal(prev, prev + stride, row(classes.members[t]))) {
      classes.offsets.push_back(t);
    }
  }
  if (n > 0) classes.offsets.push_back(n);
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
  const std::vector<double>& weights = ps.normalized_weights();
  Columns a_row;
  a_row.Fill(1, weights.size(), freqs, [a](size_t) { return a; });
  RowContext ctx;
  ctx.Pack(a_row, 0, weights);
  Columns b_rows;
  b_rows.Fill(count, weights.size(), freqs,
              [b, stride](size_t k) { return b + k * stride; });
  Score(ctx, b_rows, count, out);
}

std::vector<PoolGraph> BuildGraphs(const std::vector<PoolRows>& pools,
                                   const ProfileSimilarity& ps, size_t top_k) {
  const std::vector<double>& weights = ps.normalized_weights();
  const size_t stride = weights.size();
  RowContext ctx;
  Columns columns;
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
    // same weight to anyone. Each class pair is scored once, from
    // columns of one row per class.
    MemberClasses classes = ClassesOf(pool.rows, n, stride);
    const size_t num_classes = classes.size();
    columns.Fill(num_classes, stride, freqs, [&](size_t c) {
      return pool.rows + classes.members[classes.offsets[c]] * stride;
    });
    row.resize(num_classes);
    TopKSelection selection(std::move(classes), top_k);
    // Class row c against classes [0, c], itself included, rows
    // ascending. Classes are numbered in row order, so every heap is
    // offered its nearest classes first — class c's by its own row,
    // from c - 1 down, and class d's by the rows after it, from d + 1
    // up — and its floor rises early. The values do not depend on the
    // order.
    for (size_t c = 0; c < num_classes; ++c) {
      ctx.Pack(columns, c, weights);
      Score(ctx, columns, c + 1, row.data());
      selection.AddRow(c, row.data());
    }
    graphs.emplace_back(selection.Finish());
  }
  return graphs;
}

}  // namespace ps_kernels
}  // namespace sight
