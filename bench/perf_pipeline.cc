// Pipeline performance study: quantifies the harmonic solve on both pool
// graph representations, the warm-start round re-solve and the PS graph
// build, and writes the measured numbers to BENCH_pipeline.json.
//
// The harmonic_solve and round_solve rows solve on PS pool graphs: one
// generated pool's classifier graph as ActiveLearner::Create builds it,
// by ps_kernels::BuildGraphs with top_k = 0 ("dense": the factored PS
// graph, complete on generated pools) or top_k = 8 ("topk8", a CSR).
//
// A dense row times the factored solve against the solve on the CSR of
// the same pool, which the batched fill plus Compact() builds. The two
// differ by rounding only: each row reports both times, the largest
// score difference and the label flips, and FATALs when the difference
// exceeds 1e-9 or any rounded label differs. At n=8000 the dense CSR
// would hold about 1 GB, so only its CSR side is skipped, and the row
// says so. A topk8 row times the CSR solve against a faithful copy of
// the pre-CSR dense-scan Gauss-Seidel (every sweep reads all n entries
// of each unlabeled row), run on a triangle holding the graph's
// weights, so the reported speedup isolates the data-structure change;
// both visit neighbors in ascending index order and the harness asserts
// their outputs are bitwise identical.
//
// The round_solve section measures the warm-start incremental re-solve
// across active-learning rounds: one HarmonicSolveState carried through
// an append-only label chain versus a stateless cold replay of the
// whole chain each round. Both paths run the same arithmetic, so every
// round is checked bitwise and the per-round speedup isolates the cost
// of re-solving history. A dense row also runs the warm chain on the
// pool's CSR, and checks it against the factored chain as above.
//
// Matrix construction is timed three ways: the string path (Profile
// values compared as std::string, frequencies via hashed lookup), the
// dictionary-encoded per-pair path (EncodedProfileTable codes,
// code-indexed frequency arrays), and ps_kernels::BuildGraphs on the
// pool, which builds its factored graph and scores no pair. Every pair
// the encoded fill scores and the factored graph's Get() reads must
// equal the string path bit for bit. The JSON records
// hardware_concurrency in every row so the numbers are interpretable.
//
// The topk_build section times a pool's top-8 classifier graph built
// two ways — a batched fill into the triangle, then its SparsifyTopK, versus
// the streamed build (ps_kernels::BuildGraphs with top_k = 8) that never
// allocates the triangle — with the peak heap bytes of each (this binary
// counts every allocation), and FATALs unless both CSRs agree in every
// offset, index and weight bit. The streamed build scores one row per
// class of identical code rows, so each row reports the pool's classes
// and the class pairs scored. A "distinct" row at n=2000 gives every
// member a unique profile: no class has two members, the streamed build
// scores every member pair, and the row shows what the grouping costs
// where it cannot help.
//
// Usage: perf_pipeline [--max-n=8000] [--out=BENCH_pipeline.json]

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <new>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/profile_codec.h"
#include "learning/harmonic.h"
#include "learning/pool_graph.h"
#include "learning/similarity_matrix.h"
#include "sim/facebook_generator.h"
#include "similarity/profile_similarity.h"
#include "similarity/ps_kernels.h"
#include "util/logging.h"
#include "util/random.h"

// Heap accounting for the topk_build peak-bytes columns: this binary
// replaces the global allocation functions with malloc-backed ones that
// keep the live byte count and its high-water mark.
namespace {
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  const auto bytes = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t live = g_live_bytes.fetch_add(bytes) + bytes;
  int64_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return p;
}

// GCC cannot see that operator new above allocated with malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)));
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace sight {
namespace {

constexpr size_t kPoolSizes[] = {400, 2000, 8000};
// Dense-scan reference above this size takes minutes; CSR numbers are
// still recorded and the JSON marks the baseline as skipped.
constexpr size_t kMaxDenseReference = 2000;
// A dense PS graph above this size is about 1 GB of CSR; a dense row
// skips its CSR side, and the JSON says why.
constexpr size_t kMaxDenseCsr = 2000;
constexpr size_t kTopK = 8;
// The factored and CSR solves of one pool may differ by rounding only.
constexpr double kMaxScoreDiff = 1e-9;

double TimeMsBestOf(int reps, const std::function<void()>& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

int RepsFor(size_t n) { return n <= 400 ? 5 : n <= 2000 ? 3 : 1; }

sim::OwnerDataset MakeDataset(size_t strangers) {
  sim::GeneratorConfig config;
  config.num_friends = 60;
  config.num_strangers = strangers;
  config.num_communities = 5;
  auto gen = sim::FacebookGenerator::Create(config).value();
  Rng rng(7777);
  return gen.Generate({sim::Gender::kMale, sim::Locale::kTR}, &rng).value();
}

// One pool's graph as ActiveLearner::Create builds it: factored with
// top_k = 0, the CSR of each node's top_k strongest edges otherwise.
PoolGraph BuildGraph(const EncodedProfileTable& enc,
                     const ProfileSimilarity& ps, size_t top_k) {
  std::vector<PoolGraph> graphs = ps_kernels::BuildGraphs(
      {ps_kernels::PoolRows{enc.row(0), enc.num_rows()}}, ps, top_k);
  return std::move(graphs.front());
}

// The strangers of `ds` as one pool's classifier graph.
PoolGraph StrangerPoolGraph(const sim::OwnerDataset& ds, size_t top_k) {
  return BuildGraph(EncodedProfileTable::Build(ds.profiles, ds.strangers),
                    ProfileSimilarity::Create(ds.profiles.schema()).value(),
                    top_k);
}

SimilarityTriangle FillMatrixBatched(const EncodedProfileTable& enc,
                                     const ProfileSimilarity& ps,
                                     const ValueFrequencyTable& freqs);

// The strangers of `ds` as one dense pool's CSR: the batched fill, then
// Compact(). The factored solves are checked against solves on it.
PoolGraph StrangerPoolCsr(const sim::OwnerDataset& ds) {
  const EncodedProfileTable enc =
      EncodedProfileTable::Build(ds.profiles, ds.strangers);
  const ProfileSimilarity ps =
      ProfileSimilarity::Create(ds.profiles.schema()).value();
  return FillMatrixBatched(
             enc, ps,
             ValueFrequencyTable::BuildFromCodes(enc.row(0), enc.num_rows(),
                                                 enc.num_attributes()))
      .Compact();
}

// How far two solves of one pool are apart: the largest score
// difference, and the nodes whose rounded labels differ.
struct SolveDiff {
  double max_abs = 0.0;
  size_t label_flips = 0;
};

SolveDiff CompareSolves(const std::vector<double>& f,
                        const std::vector<double>& g) {
  SolveDiff diff;
  for (size_t i = 0; i < f.size(); ++i) {
    diff.max_abs = std::max(diff.max_abs, std::fabs(f[i] - g[i]));
    if (RoundToLabel(f[i], 1, 3) != RoundToLabel(g[i], 1, 3)) {
      ++diff.label_flips;
    }
  }
  return diff;
}

void CheckSolveDiff(const SolveDiff& diff, const char* section, size_t n) {
  if (diff.max_abs <= kMaxScoreDiff && diff.label_flips == 0) return;
  std::fprintf(stderr,
               "FATAL: %s factored solve diverges from the CSR solve at "
               "n=%zu (max |diff| %.3g, %zu label flips)\n",
               section, n, diff.max_abs, diff.label_flips);
  std::exit(1);
}

// A triangle holding exactly the graph's weights (0 where it has no
// edge), for the dense-scan reference.
SimilarityTriangle TriangleOf(const SimilarityMatrix& m) {
  SimilarityTriangle t(m.size());
  for (size_t i = 0; i < m.size(); ++i) {
    for (const Neighbor& nb : m.Neighbors(i)) {
      if (nb.index < i) t.Set(i, nb.index, nb.weight);
    }
  }
  return t;
}

LabeledSet MakeLabels(size_t n) {
  LabeledSet labeled;
  for (size_t i = 0; i < n / 10 + 1; ++i) {
    labeled.Add(i * 7 % n, 1.0 + static_cast<double>(i % 3));
  }
  return labeled;
}

// The seed implementation of the Gauss-Seidel solve, kept verbatim as
// the benchmark baseline: every sweep scans the full dense row of each
// unlabeled node (O(n^2) per sweep) instead of its neighbor list.
std::vector<double> ReferenceDensePredict(const SimilarityTriangle& w,
                                          const LabeledSet& labeled,
                                          const HarmonicConfig& config) {
  size_t n = w.size();
  double label_mean =
      std::accumulate(labeled.values.begin(), labeled.values.end(), 0.0) /
      static_cast<double>(labeled.size());
  std::vector<bool> is_labeled(n, false);
  std::vector<double> f(n, label_mean);
  for (size_t i = 0; i < labeled.size(); ++i) {
    is_labeled[labeled.indices[i]] = true;
    f[labeled.indices[i]] = labeled.values[i];
  }

  std::vector<size_t> unlabeled;
  for (size_t i = 0; i < n; ++i) {
    if (!is_labeled[i]) unlabeled.push_back(i);
  }
  std::vector<double> row_sums(n, 0.0);
  for (size_t u : unlabeled) {
    double sum = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (j != u) sum += w.Get(u, j);
    }
    row_sums[u] = sum;
  }

  for (size_t iter = 0; iter < config.max_iterations; ++iter) {
    double max_delta = 0.0;
    for (size_t u : unlabeled) {
      if (row_sums[u] <= 0.0) continue;
      double acc = 0.0;
      for (size_t v = 0; v < n; ++v) {
        if (v == u) continue;
        double wij = w.Get(u, v);
        if (wij > 0.0) acc += wij * f[v];
      }
      double next = acc / row_sums[u];
      max_delta = std::max(max_delta, std::fabs(next - f[u]));
      f[u] = next;
    }
    if (max_delta < config.tolerance) break;
  }
  return f;
}

struct HarmonicRow {
  size_t n = 0;
  std::string graph;  // "dense" or "topk8"
  std::optional<size_t> edges;  // of the CSR
  std::optional<double> csr_solve_ms;
  // Dense rows: the factored solve, its speedup over the CSR solve, and
  // how far the two are apart.
  std::optional<double> factored_solve_ms;
  std::optional<double> factored_speedup;
  std::optional<double> max_score_diff;
  std::optional<size_t> label_flips;
  // Topk8 rows: the dense-scan reference and the CSR's speedup over it.
  std::optional<double> reference_dense_ms;
  std::optional<double> speedup;
  std::string skipped;  // why a timing is missing; empty when none is
  bool bitwise_equal = true;
};

// A dense row: the factored Gauss-Seidel solve against the solve on the
// CSR of the same pool.
HarmonicRow RunDenseHarmonicStudy(const sim::OwnerDataset& ds, size_t n,
                                  const HarmonicFunctionClassifier& classifier,
                                  const LabeledSet& labeled) {
  HarmonicRow row;
  row.n = n;
  row.graph = "dense";
  const PoolGraph factored = StrangerPoolGraph(ds, 0);
  std::vector<double> factored_f;
  row.factored_solve_ms = TimeMsBestOf(RepsFor(n), [&] {
    factored_f = classifier.Predict(factored, labeled).value();
  });
  if (n > kMaxDenseCsr) {
    row.skipped = "CSR side skipped: the dense CSR is about 1 GB";
    std::printf("harmonic  n=%-5zu %-6s factored=%9.2fms  %s\n", n,
                row.graph.c_str(), *row.factored_solve_ms,
                row.skipped.c_str());
    return row;
  }
  const PoolGraph csr = StrangerPoolCsr(ds);
  row.edges = csr.csr()->NumEdges();
  std::vector<double> csr_f;
  row.csr_solve_ms = TimeMsBestOf(RepsFor(n), [&] {
    csr_f = classifier.Predict(csr, labeled).value();
  });
  const SolveDiff diff = CompareSolves(factored_f, csr_f);
  CheckSolveDiff(diff, "harmonic", n);
  row.factored_speedup = *row.csr_solve_ms / *row.factored_solve_ms;
  row.max_score_diff = diff.max_abs;
  row.label_flips = diff.label_flips;
  std::printf(
      "harmonic  n=%-5zu %-6s edges=%-8zu factored=%9.2fms  csr=%9.2fms "
      "(%.2fx)  max|diff|=%.3g  flips=%zu\n",
      n, row.graph.c_str(), *row.edges, *row.factored_solve_ms,
      *row.csr_solve_ms, *row.factored_speedup, diff.max_abs,
      diff.label_flips);
  return row;
}

HarmonicRow RunHarmonicStudy(const sim::OwnerDataset& ds, size_t n,
                             bool sparsify) {
  LabeledSet labeled = MakeLabels(n);
  HarmonicConfig config;
  config.solver = HarmonicSolver::kGaussSeidel;
  auto classifier = HarmonicFunctionClassifier::Create(config).value();
  if (!sparsify) return RunDenseHarmonicStudy(ds, n, classifier, labeled);

  HarmonicRow row;
  row.n = n;
  row.graph = "topk8";
  const PoolGraph graph = StrangerPoolGraph(ds, kTopK);
  const SimilarityMatrix& m = *graph.csr();
  row.edges = m.NumEdges();

  std::vector<double> csr_f;
  row.csr_solve_ms = TimeMsBestOf(RepsFor(n), [&] {
    csr_f = classifier.Predict(graph, labeled).value();
  });

  if (n <= kMaxDenseReference) {
    // The dense reference reads a triangle: the graph answers Get() by
    // binary search, which would skew its timing.
    const SimilarityTriangle dense = TriangleOf(m);
    std::vector<double> ref_f;
    row.reference_dense_ms = TimeMsBestOf(std::min(RepsFor(n), 2), [&] {
      ref_f = ReferenceDensePredict(dense, labeled, config);
    });
    row.speedup = *row.reference_dense_ms / *row.csr_solve_ms;
    row.bitwise_equal = std::equal(csr_f.begin(), csr_f.end(), ref_f.begin());
    if (!row.bitwise_equal) {
      std::fprintf(stderr,
                   "FATAL: CSR solve diverges from dense reference at n=%zu "
                   "(%s graph)\n",
                   n, row.graph.c_str());
      std::exit(1);
    }
  } else {
    row.skipped = "reference too slow";
  }

  std::printf("harmonic  n=%-5zu %-6s edges=%-8zu csr=%9.2fms  dense=%s\n",
              n, row.graph.c_str(), *row.edges, *row.csr_solve_ms,
              row.reference_dense_ms
                  ? (std::to_string(*row.reference_dense_ms) + "ms (" +
                     std::to_string(*row.speedup) + "x)")
                        .c_str()
                  : "skipped");
  return row;
}

// Warm-start incremental re-solve across active-learning rounds. The
// learner's creation-time seed solve (10 labels) is round 0; every
// round after it appends 3 labels — the labels_per_round cadence — and
// re-solves. Warm carries one HarmonicSolveState across rounds and pays
// only the latest chain step; cold replays the whole label history
// (seed solve included) from a fresh state, which is what a stateless
// learner effectively does — so cold at round k runs k+1 solves. Both
// paths run identical arithmetic on identical inputs, so the harness
// asserts bitwise equality per round and FATALs on divergence. A dense
// row's graph is factored; the same warm chain on the pool's CSR is
// timed beside it and checked against it within kMaxScoreDiff.
struct RoundSolveRow {
  size_t n = 0;
  std::string graph;  // "dense" or "topk8"
  size_t round = 0;   // 1-based; rounds after the creation seed solve
  size_t labels = 0;
  std::string solver;  // solver the warm step ran
  size_t warm_iterations = 0;
  size_t cold_iterations = 0;  // summed over the replayed chain
  double warm_ms = std::numeric_limits<double>::infinity();
  double cold_ms = std::numeric_limits<double>::infinity();
  double warm_speedup = 0.0;
  // Dense rows: the warm step on the CSR, and its distance from the
  // factored warm step.
  std::optional<double> csr_warm_ms;
  std::optional<double> max_score_diff;
  std::optional<size_t> label_flips;
  bool bitwise_equal = true;
};

std::vector<RoundSolveRow> RunRoundSolveStudy(const sim::OwnerDataset& ds,
                                              size_t n, bool sparsify) {
  const PoolGraph m = StrangerPoolGraph(ds, sparsify ? kTopK : 0);
  std::optional<PoolGraph> csr;
  if (!sparsify) csr.emplace(StrangerPoolCsr(ds));

  // Production solver configuration (kAuto resolves per chain step).
  auto classifier =
      HarmonicFunctionClassifier::Create(HarmonicConfig{}).value();

  // Append-only label history: i * 7 mod n is a permutation (7 is
  // coprime to every pool size here), so indices never repeat. chain[0]
  // is the creation-time seed set; chain[k] is the set after round k.
  constexpr size_t kSeedLabels = 10;
  constexpr size_t kLabelsPerRound = 3;
  constexpr size_t kRounds = 5;
  std::vector<LabeledSet> chain;
  LabeledSet current;
  for (size_t r = 0; r <= kRounds; ++r) {
    size_t add = r == 0 ? kSeedLabels : kLabelsPerRound;
    for (size_t k = 0; k < add; ++k) {
      size_t idx = current.size() * 7 % n;
      current.Add(idx, 1.0 + static_cast<double>(idx % 3));
    }
    chain.push_back(current);
  }

  std::vector<RoundSolveRow> rows(kRounds);
  const int reps = RepsFor(n);
  for (int rep = 0; rep < reps; ++rep) {
    // Creation-time seed solve (round 0): part of setup for the warm
    // path, untimed here; the cold path re-pays it inside every replay.
    auto warm_state = classifier.MakeState();
    std::vector<double> warm_f =
        classifier.PredictWithState(m, chain[0], warm_state.get(), nullptr)
            .value();
    auto csr_state = classifier.MakeState();
    std::vector<double> csr_f;
    if (csr.has_value()) {
      csr_f = classifier
                  .PredictWithState(*csr, chain[0], csr_state.get(), nullptr)
                  .value();
    }
    for (size_t k = 1; k <= kRounds; ++k) {
      SolveStats warm_stats;
      double warm_ms = TimeMsBestOf(1, [&] {
        warm_f = classifier
                     .PredictWithState(m, chain[k], warm_state.get(),
                                       &warm_stats)
                     .value();
      });

      size_t cold_iterations = 0;
      std::vector<double> cold_f;
      double cold_ms = TimeMsBestOf(1, [&] {
        auto cold_state = classifier.MakeState();
        cold_iterations = 0;
        for (size_t q = 0; q <= k; ++q) {
          SolveStats step;
          cold_f = classifier
                       .PredictWithState(m, chain[q], cold_state.get(),
                                         &step)
                       .value();
          cold_iterations += step.iterations;
        }
      });

      if (warm_f != cold_f) {
        std::fprintf(stderr,
                     "FATAL: warm solve diverges from cold replay at n=%zu "
                     "(%s graph), round %zu\n",
                     n, sparsify ? "topk8" : "dense", k);
        std::exit(1);
      }
      RoundSolveRow& row = rows[k - 1];
      if (csr.has_value()) {
        const double csr_ms = TimeMsBestOf(1, [&] {
          csr_f = classifier
                      .PredictWithState(*csr, chain[k], csr_state.get(),
                                        nullptr)
                      .value();
        });
        const SolveDiff diff = CompareSolves(warm_f, csr_f);
        CheckSolveDiff(diff, "round", n);
        row.csr_warm_ms = std::min(row.csr_warm_ms.value_or(csr_ms), csr_ms);
        row.max_score_diff =
            std::max(row.max_score_diff.value_or(0.0), diff.max_abs);
        row.label_flips = diff.label_flips;
      }
      row.n = n;
      row.graph = sparsify ? "topk8" : "dense";
      row.round = k;
      row.labels = chain[k].size();
      row.solver = warm_stats.solver;
      row.warm_iterations = warm_stats.iterations;
      row.cold_iterations = cold_iterations;
      row.warm_ms = std::min(row.warm_ms, warm_ms);
      row.cold_ms = std::min(row.cold_ms, cold_ms);
    }
  }
  for (RoundSolveRow& row : rows) {
    row.warm_speedup = row.cold_ms / row.warm_ms;
    std::printf(
        "round     n=%-5zu %-6s round=%zu labels=%-3zu %-18s warm=%8.2fms "
        "(%zu it)  cold=%8.2fms (%zu it)  speedup=%.2fx",
        row.n, row.graph.c_str(), row.round, row.labels, row.solver.c_str(),
        row.warm_ms, row.warm_iterations, row.cold_ms, row.cold_iterations,
        row.warm_speedup);
    if (row.csr_warm_ms.has_value()) {
      std::printf("  csr=%8.2fms  max|diff|=%.3g", *row.csr_warm_ms,
                  *row.max_score_diff);
    }
    std::printf("\n");
  }
  return rows;
}

struct BuildRow {
  size_t n = 0;
  size_t pairs = 0;
  double string_serial_ms = 0.0;
  double encode_ms = 0.0;  // EncodedProfileTable + frequency-array build
  double encoded_serial_ms = 0.0;
  double encoded_speedup = 0.0;  // string_serial_ms / encoded_serial_ms
  // ps_kernels::BuildGraphs on the pool: its factored graph, no pair
  // scored (similarity/ps_kernels.h).
  double build_graphs_ms = 0.0;
  double build_graphs_speedup = 0.0;  // encoded_serial_ms / build_graphs_ms
  std::string dispatch;  // "scalar" / "avx2"
  unsigned hardware_concurrency = 0;
  bool bitwise_equal = true;
};

// Per-attribute relative frequencies of the pool's values, keyed by the
// value strings (missing values excluded from the denominators).
using StringFrequencies =
    std::vector<std::unordered_map<std::string, double>>;

StringFrequencies BuildStringFrequencies(const ProfileTable& table,
                                         const std::vector<UserId>& pool) {
  const size_t num_attrs = table.schema().num_attributes();
  std::vector<std::unordered_map<std::string, size_t>> counts(num_attrs);
  std::vector<size_t> totals(num_attrs, 0);
  for (UserId u : pool) {
    const Profile& profile = table.Get(u);
    for (AttributeId a = 0; a < num_attrs; ++a) {
      if (profile.IsMissing(a)) continue;
      ++counts[a][profile.value(a)];
      ++totals[a];
    }
  }
  StringFrequencies freqs(num_attrs);
  for (AttributeId a = 0; a < num_attrs; ++a) {
    for (const auto& [value, count] : counts[a]) {
      freqs[a][value] =
          static_cast<double>(count) / static_cast<double>(totals[a]);
    }
  }
  return freqs;
}

// The pre-encoding ActiveLearner construction kernel, kept as the
// benchmark baseline and as the independent reference the encoded fill
// and BuildGraphs are gated against: every pair compares std::string
// attribute values and resolves frequencies through a by-value hash
// lookup.
SimilarityTriangle FillMatrixString(const ProfileTable& table,
                                    const std::vector<UserId>& pool,
                                    const std::vector<double>& weights,
                                    const StringFrequencies& freqs) {
  auto frequency = [&](AttributeId a, const std::string& value) {
    auto it = freqs[a].find(value);
    return it == freqs[a].end() ? 0.0 : it->second;
  };
  SimilarityTriangle m(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    const Profile& pi = table.Get(pool[i]);
    for (size_t j = 0; j < i; ++j) {
      const Profile& pj = table.Get(pool[j]);
      double total = 0.0;
      for (AttributeId a = 0; a < weights.size(); ++a) {
        if (pi.IsMissing(a) || pj.IsMissing(a)) continue;
        const std::string& va = pi.value(a);
        const std::string& vb = pj.value(a);
        double sim = va == vb ? 1.0
                              : std::min(frequency(a, va), frequency(a, vb));
        total += weights[a] * sim;
      }
      m.Set(i, j, total);
    }
  }
  return m;
}

ValueFrequencyTable FrequenciesOf(const EncodedProfileTable& enc) {
  return ValueFrequencyTable::BuildFromCodes(enc.row(0), enc.num_rows(),
                                             enc.num_attributes());
}

// The pre-kernel encoded construction loop, kept as the baseline the
// batched kernels are measured against: one pair at a time on integer
// codes.
SimilarityTriangle FillMatrixEncoded(const EncodedProfileTable& enc,
                                     const ProfileSimilarity& ps,
                                     const ValueFrequencyTable& freqs) {
  SimilarityTriangle m(enc.num_rows());
  for (size_t i = 0; i < enc.num_rows(); ++i) {
    const uint32_t* row_i = enc.row(i);
    for (size_t j = 0; j < i; ++j) {
      m.Set(i, j, ps.Compute(row_i, enc.row(j), freqs));
    }
  }
  return m;
}

// A dense pool's triangle filled by the batched kernel, one ComputeBatch
// of each row against every row before it: the fill of the fill +
// SparsifyTopK reference the streamed top-k build is gated against, and
// of the dense CSR the factored solves are gated against.
SimilarityTriangle FillMatrixBatched(const EncodedProfileTable& enc,
                                     const ProfileSimilarity& ps,
                                     const ValueFrequencyTable& freqs) {
  const size_t n = enc.num_rows();
  SimilarityTriangle m(n);
  std::vector<double> row(n);
  for (size_t i = 1; i < n; ++i) {
    ps_kernels::ComputeBatch(enc.row(i), enc.row(0), enc.num_attributes(), i,
                             ps, freqs, row.data());
    m.SetRow(i, row.data());
  }
  return m;
}

bool MatricesBitwiseEqual(const SimilarityTriangle& a,
                          const SimilarityTriangle& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (a.Get(i, j) != b.Get(i, j)) return false;
    }
  }
  return true;
}

// Every pair of `graph`, read through Get(), against the triangle, bit
// for bit.
bool GraphMatchesTriangle(const PoolGraph& graph,
                          const SimilarityTriangle& m) {
  if (graph.size() != m.size()) return false;
  for (size_t i = 0; i < m.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (std::bit_cast<uint64_t>(graph.Get(i, j)) !=
          std::bit_cast<uint64_t>(m.Get(i, j))) {
        return false;
      }
    }
  }
  return true;
}

BuildRow RunBuildStudy(const sim::OwnerDataset& ds, size_t n) {
  BuildRow row;
  row.n = n;

  const std::vector<UserId>& pool = ds.strangers;
  row.pairs = pool.size() * (pool.size() - 1) / 2;
  auto ps = ProfileSimilarity::Create(ds.profiles.schema()).value();
  StringFrequencies string_freqs = BuildStringFrequencies(ds.profiles, pool);

  SimilarityTriangle reference(0);
  row.string_serial_ms = TimeMsBestOf(RepsFor(n), [&] {
    reference = FillMatrixString(ds.profiles, pool, ps.normalized_weights(),
                                 string_freqs);
  });
  std::printf("build     n=%-5zu pairs=%-9zu string=%9.2fms\n", n, row.pairs,
              row.string_serial_ms);

  std::optional<EncodedProfileTable> enc;
  std::optional<ValueFrequencyTable> freqs;
  row.encode_ms = TimeMsBestOf(RepsFor(n), [&] {
    enc = EncodedProfileTable::Build(ds.profiles, pool);
    freqs = FrequenciesOf(*enc);
  });

  // The encoded and BuildGraphs reps are interleaved (one of each per
  // pass, best time per series), so clock drift between two separate
  // blocks does not show up in their ratio. The encoded triangle at
  // n=8000 is 256 MB, so each result is dropped before the next build,
  // and the last pass checks both series against the string path.
  row.encoded_serial_ms = std::numeric_limits<double>::infinity();
  row.build_graphs_ms = std::numeric_limits<double>::infinity();
  auto check = [&](bool equal, const char* series) {
    if (equal) return;
    std::fprintf(stderr,
                 "FATAL: %s matrix build diverges from the string path at "
                 "n=%zu\n",
                 series, n);
    std::exit(1);
  };
  // More reps than the (much slower) string baseline: the
  // batched-over-encoded ratio is the quantity of interest here, and
  // best-of needs several passes per series before the minima stop
  // wobbling around each other at the ±1% level.
  const int encoded_reps = RepsFor(n) + 4;
  for (int rep = 0; rep < encoded_reps; ++rep) {
    const bool last = rep + 1 == encoded_reps;
    SimilarityTriangle encoded(0);
    row.encoded_serial_ms =
        std::min(row.encoded_serial_ms, TimeMsBestOf(1, [&] {
          encoded = FillMatrixEncoded(*enc, ps, *freqs);
        }));
    if (last) check(MatricesBitwiseEqual(reference, encoded), "encoded");
    encoded = SimilarityTriangle(0);
    PoolGraph graph;
    row.build_graphs_ms = std::min(row.build_graphs_ms, TimeMsBestOf(1, [&] {
      graph = BuildGraph(*enc, ps, /*top_k=*/0);
    }));
    if (last) check(GraphMatchesTriangle(graph, reference), "BuildGraphs");
  }
  row.encoded_speedup = row.string_serial_ms / row.encoded_serial_ms;
  row.build_graphs_speedup = row.encoded_serial_ms / row.build_graphs_ms;
  row.dispatch = ps_kernels::DispatchName(ps_kernels::ActiveDispatch());
  row.hardware_concurrency = std::thread::hardware_concurrency();
  std::printf("build     n=%-5zu encode=%8.2fms encoded=%9.2fms (%.2fx)\n", n,
              row.encode_ms, row.encoded_serial_ms, row.encoded_speedup);
  std::printf("build     n=%-5zu BuildGraphs=%9.2fms (%.2fx vs encoded)\n", n,
              row.build_graphs_ms, row.build_graphs_speedup);
  return row;
}

// Top-k graph build of one pool, two ways: the triangle path (batched
// fill, then the triangle's SparsifyTopK) and the streamed build that
// never holds the triangle. Both must give the same CSR bit for bit.
struct TopKBuildRow {
  std::string pool;  // "generated", or "distinct": every profile unique
  size_t n = 0;
  size_t classes = 0;      // distinct code rows
  size_t class_pairs = 0;  // classes * (classes + 1) / 2, self pairs too
  size_t edges = 0;
  double dense_ms = std::numeric_limits<double>::infinity();
  double streamed_ms = std::numeric_limits<double>::infinity();
  double speedup = 0.0;  // dense_ms / streamed_ms
  int64_t dense_peak_bytes = 0;
  int64_t streamed_peak_bytes = 0;
  bool bitwise_equal = true;
};

// Best time of `build` over `reps` runs, and the most heap it ever held
// above what was live when it started, its result included.
template <typename Build>
std::pair<double, int64_t> TimeAndPeakBytes(int reps, PoolGraph* out,
                                            const Build& build) {
  double best = std::numeric_limits<double>::infinity();
  int64_t peak = 0;
  for (int r = 0; r < reps; ++r) {
    *out = PoolGraph();
    const int64_t base = g_live_bytes.load();
    g_peak_bytes.store(base);
    best = std::min(best, TimeMsBestOf(1, [&] { *out = build(); }));
    peak = std::max(peak, g_peak_bytes.load() - base);
  }
  return {best, peak};
}

bool CsrBitwiseEqual(const SimilarityMatrix& a, const SimilarityMatrix& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    std::span<const Neighbor> x = a.Neighbors(i);
    std::span<const Neighbor> y = b.Neighbors(i);
    if (x.size() != y.size()) return false;
    for (size_t t = 0; t < x.size(); ++t) {
      if (x[t].index != y[t].index ||
          std::bit_cast<uint64_t>(x[t].weight) !=
              std::bit_cast<uint64_t>(y[t].weight)) {
        return false;
      }
    }
  }
  return true;
}

// The number of distinct code rows of `enc`.
size_t CountClasses(const EncodedProfileTable& enc) {
  const size_t stride = enc.num_attributes();
  std::vector<std::vector<uint32_t>> rows;
  rows.reserve(enc.num_rows());
  for (size_t i = 0; i < enc.num_rows(); ++i) {
    rows.emplace_back(enc.row(i), enc.row(i) + stride);
  }
  std::sort(rows.begin(), rows.end());
  return static_cast<size_t>(std::unique(rows.begin(), rows.end()) -
                             rows.begin());
}

// The profiles of `ds` with every stranger's last attribute set to a
// value no other stranger has, so no two strangers' rows are equal.
ProfileTable DistinctProfiles(const sim::OwnerDataset& ds) {
  ProfileTable profiles = ds.profiles;
  const AttributeId last =
      static_cast<AttributeId>(profiles.schema().num_attributes() - 1);
  for (UserId u : ds.strangers) {
    SIGHT_CHECK(
        profiles.SetValue(u, last, "distinct-" + std::to_string(u)).ok());
  }
  return profiles;
}

TopKBuildRow RunTopKBuildStudy(const ProfileTable& profiles,
                               const std::vector<UserId>& strangers,
                               const std::string& pool) {
  TopKBuildRow row;
  row.pool = pool;
  row.n = strangers.size();
  const size_t n = row.n;
  auto ps = ProfileSimilarity::Create(profiles.schema()).value();
  EncodedProfileTable enc = EncodedProfileTable::Build(profiles, strangers);
  ValueFrequencyTable freqs = FrequenciesOf(enc);
  row.classes = CountClasses(enc);
  row.class_pairs = row.classes * (row.classes + 1) / 2;

  PoolGraph dense;
  PoolGraph streamed;
  std::tie(row.dense_ms, row.dense_peak_bytes) =
      TimeAndPeakBytes(RepsFor(n), &dense, [&] {
        return PoolGraph(FillMatrixBatched(enc, ps, freqs).SparsifyTopK(kTopK));
      });
  std::tie(row.streamed_ms, row.streamed_peak_bytes) =
      TimeAndPeakBytes(RepsFor(n), &streamed,
                       [&] { return BuildGraph(enc, ps, kTopK); });
  row.edges = streamed.csr()->NumEdges();
  row.speedup = row.dense_ms / row.streamed_ms;
  row.bitwise_equal = CsrBitwiseEqual(*dense.csr(), *streamed.csr());
  if (!row.bitwise_equal) {
    std::fprintf(stderr,
                 "FATAL: streamed top-k build diverges from fill + "
                 "SparsifyTopK at n=%zu (%s pool)\n",
                 n, pool.c_str());
    std::exit(1);
  }
  std::printf(
      "topk      n=%-5zu %-9s classes=%-5zu class_pairs=%-8zu "
      "edges=%-7zu dense=%9.2fms (%lld B)  streamed=%9.2fms (%lld B)  "
      "speedup=%.2fx\n",
      n, pool.c_str(), row.classes, row.class_pairs, row.edges,
      row.dense_ms, static_cast<long long>(row.dense_peak_bytes),
      row.streamed_ms, static_cast<long long>(row.streamed_peak_bytes),
      row.speedup);
  return row;
}

std::string JsonOpt(const std::optional<double>& v) {
  if (!v) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", *v);
  return buf;
}

std::string JsonCount(const std::optional<size_t>& v) {
  return v ? std::to_string(*v) : "null";
}

// Small magnitudes (score differences) in scientific notation.
std::string JsonSci(const std::optional<double>& v) {
  if (!v) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3e", *v);
  return buf;
}

bool WriteJson(const std::string& path, const std::vector<HarmonicRow>& solve,
               const std::vector<RoundSolveRow>& round_solve,
               const std::vector<BuildRow>& build,
               const std::vector<TopKBuildRow>& topk) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"bench\": \"perf_pipeline\",\n";
  out << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"harmonic_solve\": [\n";
  for (size_t i = 0; i < solve.size(); ++i) {
    const HarmonicRow& r = solve[i];
    out << "    {\"n\": " << r.n << ", \"graph\": \"" << r.graph
        << "\", \"edges\": " << JsonCount(r.edges)
        << ", \"csr_solve_ms\": " << JsonOpt(r.csr_solve_ms);
    if (r.graph == "dense") {
      out << ", \"factored_solve_ms\": " << JsonOpt(r.factored_solve_ms)
          << ", \"factored_speedup\": " << JsonOpt(r.factored_speedup)
          << ", \"max_score_diff\": " << JsonSci(r.max_score_diff)
          << ", \"label_flips\": " << JsonCount(r.label_flips);
    } else {
      out << ", \"reference_dense_ms\": " << JsonOpt(r.reference_dense_ms)
          << ", \"speedup\": " << JsonOpt(r.speedup)
          << ", \"bitwise_equal\": " << (r.bitwise_equal ? "true" : "false");
    }
    if (!r.skipped.empty()) out << ", \"skipped\": \"" << r.skipped << "\"";
    out << ", \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << "}"
        << (i + 1 < solve.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"round_solve\": [\n";
  for (size_t i = 0; i < round_solve.size(); ++i) {
    const RoundSolveRow& r = round_solve[i];
    out << "    {\"n\": " << r.n << ", \"graph\": \"" << r.graph
        << "\", \"round\": " << r.round << ", \"labels\": " << r.labels
        << ", \"solver\": \"" << r.solver << "\""
        << ", \"warm_iterations\": " << r.warm_iterations
        << ", \"cold_iterations\": " << r.cold_iterations
        << ", \"warm_ms\": " << JsonOpt(r.warm_ms)
        << ", \"cold_ms\": " << JsonOpt(r.cold_ms)
        << ", \"warm_speedup\": " << JsonOpt(r.warm_speedup);
    if (r.csr_warm_ms.has_value()) {
      out << ", \"csr_warm_ms\": " << JsonOpt(r.csr_warm_ms)
          << ", \"max_score_diff\": " << JsonSci(r.max_score_diff)
          << ", \"label_flips\": " << JsonCount(r.label_flips);
    }
    out << ", \"hardware_concurrency\": "
        << std::thread::hardware_concurrency()
        << ", \"bitwise_equal\": " << (r.bitwise_equal ? "true" : "false")
        << "}" << (i + 1 < round_solve.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"matrix_build\": [\n";
  for (size_t i = 0; i < build.size(); ++i) {
    const BuildRow& r = build[i];
    out << "    {\"n\": " << r.n << ", \"pairs\": " << r.pairs
        << ", \"string_serial_ms\": " << JsonOpt(r.string_serial_ms)
        << ", \"encode_ms\": " << JsonOpt(r.encode_ms)
        << ", \"encoded_serial_ms\": " << JsonOpt(r.encoded_serial_ms)
        << ", \"encoded_speedup\": " << JsonOpt(r.encoded_speedup)
        << ", \"build_graphs_ms\": " << JsonOpt(r.build_graphs_ms)
        << ", \"build_graphs_speedup\": " << JsonOpt(r.build_graphs_speedup)
        << ", \"dispatch\": \"" << r.dispatch << "\""
        << ", \"hardware_concurrency\": " << r.hardware_concurrency
        << ", \"bitwise_equal\": " << (r.bitwise_equal ? "true" : "false")
        << "}" << (i + 1 < build.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"topk_build\": [\n";
  for (size_t i = 0; i < topk.size(); ++i) {
    const TopKBuildRow& r = topk[i];
    out << "    {\"pool\": \"" << r.pool << "\", \"n\": " << r.n
        << ", \"k\": " << kTopK << ", \"classes\": " << r.classes
        << ", \"class_pairs\": " << r.class_pairs
        << ", \"edges\": " << r.edges
        << ", \"dense_ms\": " << JsonOpt(r.dense_ms)
        << ", \"dense_peak_bytes\": " << r.dense_peak_bytes
        << ", \"streamed_ms\": " << JsonOpt(r.streamed_ms)
        << ", \"streamed_peak_bytes\": " << r.streamed_peak_bytes
        << ", \"speedup\": " << JsonOpt(r.speedup)
        << ", \"hardware_concurrency\": "
        << std::thread::hardware_concurrency()
        << ", \"bitwise_equal\": " << (r.bitwise_equal ? "true" : "false")
        << "}" << (i + 1 < topk.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  std::optional<double> harmonic_2000;
  std::optional<double> harmonic_factored_2000;
  std::optional<double> max_score_diff;
  for (const HarmonicRow& r : solve) {
    if (r.n == 2000 && r.graph == "topk8") harmonic_2000 = r.speedup;
    if (r.n == 2000 && r.graph == "dense") {
      harmonic_factored_2000 = r.factored_speedup;
    }
    if (r.max_score_diff.has_value()) {
      max_score_diff = std::max(max_score_diff.value_or(0.0),
                                *r.max_score_diff);
    }
  }
  for (const RoundSolveRow& r : round_solve) {
    if (r.max_score_diff.has_value()) {
      max_score_diff = std::max(max_score_diff.value_or(0.0),
                                *r.max_score_diff);
    }
  }
  // Minimum per-round warm speedup over rounds 2+ at n=2000 — the
  // weakest case of the incremental re-solve on the headline pool size.
  std::optional<double> round_2000_min;
  std::optional<double> round_2000_round2_topk8;
  for (const RoundSolveRow& r : round_solve) {
    if (r.n != 2000 || r.round < 2) continue;
    if (!round_2000_min || r.warm_speedup < *round_2000_min) {
      round_2000_min = r.warm_speedup;
    }
    if (r.round == 2 && r.graph == "topk8") {
      round_2000_round2_topk8 = r.warm_speedup;
    }
  }
  std::optional<double> encoded_2000;
  std::optional<double> build_graphs_2000;
  std::optional<double> build_graphs_8000;
  std::string dispatch = "scalar";
  for (const BuildRow& r : build) {
    dispatch = r.dispatch;
    if (r.n == 8000) build_graphs_8000 = r.build_graphs_speedup;
    if (r.n != 2000) continue;
    encoded_2000 = r.encoded_speedup;
    build_graphs_2000 = r.build_graphs_speedup;
  }
  out << "  \"summary\": {\n";
  out << "    \"harmonic_csr_speedup_topk8_n2000\": " << JsonOpt(harmonic_2000)
      << ",\n";
  out << "    \"harmonic_factored_speedup_dense_n2000\": "
      << JsonOpt(harmonic_factored_2000) << ",\n";
  out << "    \"factored_vs_csr_max_score_diff\": " << JsonSci(max_score_diff)
      << ",\n";
  out << "    \"round_solve_warm_speedup_round2_topk8_n2000\": "
      << JsonOpt(round_2000_round2_topk8) << ",\n";
  out << "    \"round_solve_min_warm_speedup_after_round1_n2000\": "
      << JsonOpt(round_2000_min) << ",\n";
  out << "    \"matrix_build_encoded_speedup_n2000\": "
      << JsonOpt(encoded_2000) << ",\n";
  out << "    \"matrix_build_graphs_speedup_n2000\": "
      << JsonOpt(build_graphs_2000) << ",\n";
  out << "    \"matrix_build_graphs_speedup_n8000\": "
      << JsonOpt(build_graphs_8000) << ",\n";
  std::optional<double> topk_speedup_8000;
  std::optional<double> topk_peak_ratio_8000;
  for (const TopKBuildRow& r : topk) {
    if (r.pool != "generated" || r.n != 8000 || r.streamed_peak_bytes <= 0) {
      continue;
    }
    topk_speedup_8000 = r.speedup;
    topk_peak_ratio_8000 = static_cast<double>(r.dense_peak_bytes) /
                           static_cast<double>(r.streamed_peak_bytes);
  }
  out << "    \"ps_kernel_dispatch\": \"" << dispatch << "\",\n";
  out << "    \"topk_build_speedup_n8000\": " << JsonOpt(topk_speedup_8000)
      << ",\n";
  out << "    \"topk_build_peak_bytes_ratio_n8000\": "
      << JsonOpt(topk_peak_ratio_8000) << "\n";
  out << "  }\n";
  out << "}\n";
  return out.good();
}

}  // namespace
}  // namespace sight

int main(int argc, char** argv) {
  size_t max_n = 8000;
  std::string out_path = "BENCH_pipeline.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--max-n=", 8) == 0) {
      max_n = static_cast<size_t>(std::strtoull(argv[i] + 8, nullptr, 10));
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--max-n=N] [--out=FILE]\n", argv[0]);
      return 2;
    }
  }

  std::vector<sight::HarmonicRow> solve;
  std::vector<sight::RoundSolveRow> round_solve;
  std::vector<sight::BuildRow> build;
  std::vector<sight::TopKBuildRow> topk;
  for (size_t n : sight::kPoolSizes) {
    if (n > max_n) continue;
    const sight::sim::OwnerDataset ds = sight::MakeDataset(n);
    solve.push_back(sight::RunHarmonicStudy(ds, n, /*sparsify=*/false));
    solve.push_back(sight::RunHarmonicStudy(ds, n, /*sparsify=*/true));
    // The warm-start study covers the sizes with a dense reference; at
    // n=8000 a dense row's CSR side would hold about 1 GB.
    if (n <= sight::kMaxDenseReference) {
      for (bool sparsify : {false, true}) {
        std::vector<sight::RoundSolveRow> rows =
            sight::RunRoundSolveStudy(ds, n, sparsify);
        round_solve.insert(round_solve.end(), rows.begin(), rows.end());
      }
    }
    build.push_back(sight::RunBuildStudy(ds, n));
    topk.push_back(
        sight::RunTopKBuildStudy(ds.profiles, ds.strangers, "generated"));
    if (n == 2000) {
      topk.push_back(sight::RunTopKBuildStudy(sight::DistinctProfiles(ds),
                                              ds.strangers, "distinct"));
    }
  }
  if (!sight::WriteJson(out_path, solve, round_solve, build, topk)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
