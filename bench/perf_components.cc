// Component micro-benchmarks (google-benchmark): the hot paths of the
// risk pipeline at several pool/graph scales.

#include <benchmark/benchmark.h>

#include <memory>

#include "clustering/squeezer.h"
#include "core/benefit.h"
#include "core/pool_builder.h"
#include "graph/algorithms.h"
#include "learning/harmonic.h"
#include "sim/facebook_generator.h"
#include "similarity/network_similarity.h"
#include "similarity/profile_similarity.h"
#include "similarity/ps_kernels.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace sight {
namespace {

sim::OwnerDataset MakeDataset(size_t strangers) {
  sim::GeneratorConfig config;
  config.num_friends = 60;
  config.num_strangers = strangers;
  config.num_communities = 5;
  auto gen = sim::FacebookGenerator::Create(config).value();
  Rng rng(7777);
  return gen.Generate({sim::Gender::kMale, sim::Locale::kTR}, &rng).value();
}

void BM_TwoHopStrangers(benchmark::State& state) {
  sim::OwnerDataset ds = MakeDataset(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto strangers = TwoHopStrangers(ds.graph, ds.owner);
    benchmark::DoNotOptimize(strangers);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.strangers.size()));
}
BENCHMARK(BM_TwoHopStrangers)->Arg(400)->Arg(2000);

void BM_NetworkSimilarityBatch(benchmark::State& state) {
  sim::OwnerDataset ds = MakeDataset(static_cast<size_t>(state.range(0)));
  auto ns = NetworkSimilarity::Create(NetworkSimilarityConfig{}).value();
  for (auto _ : state) {
    auto sims = ns.ComputeBatch(ds.graph, ds.owner, ds.strangers);
    benchmark::DoNotOptimize(sims);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.strangers.size()));
}
BENCHMARK(BM_NetworkSimilarityBatch)->Arg(400)->Arg(2000)->Arg(10000);

void BM_NetworkSimilarityBatchThreaded(benchmark::State& state) {
  sim::OwnerDataset ds = MakeDataset(static_cast<size_t>(state.range(0)));
  auto ns = NetworkSimilarity::Create(NetworkSimilarityConfig{}).value();
  ThreadPool pool(static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    auto sims = ns.ComputeBatch(ds.graph, ds.owner, ds.strangers, &pool);
    benchmark::DoNotOptimize(sims);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.strangers.size()));
}
BENCHMARK(BM_NetworkSimilarityBatchThreaded)->Args({400, 4})->Args({2000, 4});

void BM_SqueezerCluster(benchmark::State& state) {
  sim::OwnerDataset ds = MakeDataset(static_cast<size_t>(state.range(0)));
  SqueezerConfig config;
  config.threshold = 0.4;
  config.weights = sim::PaperAttributeWeights();
  auto squeezer = Squeezer::Create(ds.profiles.schema(), config).value();
  for (auto _ : state) {
    auto clustering = squeezer.Cluster(ds.profiles, ds.strangers);
    benchmark::DoNotOptimize(clustering);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.strangers.size()));
}
BENCHMARK(BM_SqueezerCluster)->Arg(400)->Arg(2000);

// One-vs-many PS kernel through ComputeBatch: one a-row scored against
// a block of b-rows per iteration. ComputeBatch lays its b-rows out as
// columns on every call, so the time includes that transpose; the graph
// build lays a pool's columns out once (BM_PsKernelBuildGraphs).
// The reported dispatch label shows which SIMD variant ran.
void BM_PsKernelComputeBatch(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  sim::OwnerDataset ds = MakeDataset(n);
  EncodedProfileTable enc =
      EncodedProfileTable::Build(ds.profiles, ds.strangers);
  ValueFrequencyTable freqs = ValueFrequencyTable::BuildFromCodes(
      enc.row(0), enc.num_rows(), enc.num_attributes());
  auto ps = ProfileSimilarity::Create(ds.profiles.schema()).value();
  std::vector<double> out(enc.num_rows());
  for (auto _ : state) {
    ps_kernels::ComputeBatch(enc.row(0), enc.row(0), enc.num_attributes(),
                             enc.num_rows(), ps, freqs, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(ps_kernels::DispatchName(ps_kernels::ActiveDispatch()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(enc.num_rows()));
}
BENCHMARK(BM_PsKernelComputeBatch)->Arg(400)->Arg(2000);

// One top-8 pool's classifier graph as ActiveLearner::Create asks for
// it (BuildGraphs): the pool's value frequencies, its classes of
// identical rows and their columns, the class-by-class scoring on the
// dispatched kernel, and the streamed top-k selection. A dense pool scores no pair (its graph is factored),
// so the top-k build is what drives the kernel end to end.
void BM_PsKernelBuildGraphs(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  sim::OwnerDataset ds = MakeDataset(n);
  EncodedProfileTable enc =
      EncodedProfileTable::Build(ds.profiles, ds.strangers);
  auto ps = ProfileSimilarity::Create(ds.profiles.schema()).value();
  const std::vector<ps_kernels::PoolRows> pools = {
      {enc.row(0), enc.num_rows()}};
  for (auto _ : state) {
    std::vector<PoolGraph> graphs =
        ps_kernels::BuildGraphs(pools, ps, /*top_k=*/8);
    benchmark::DoNotOptimize(graphs);
  }
  state.SetLabel(ps_kernels::DispatchName(ps_kernels::ActiveDispatch()));
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(enc.num_rows() * (enc.num_rows() - 1) / 2));
}
BENCHMARK(BM_PsKernelBuildGraphs)->Arg(400)->Arg(2000);

// Erdos-Renyi-style weighted triangle shared by the harmonic benches.
SimilarityTriangle MakeRandomTriangle(size_t n) {
  Rng rng(42);
  SimilarityTriangle t(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.2)) t.Set(i, j, rng.UniformDouble(0.1, 1.0));
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

// Dense random pool's graph, built before the timed loop: the loop is
// the solve alone.
void BM_HarmonicPredict(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  const PoolGraph m = MakeRandomTriangle(n).Compact();
  LabeledSet labeled = MakeLabels(n);
  HarmonicConfig gs_config;
  auto classifier = HarmonicFunctionClassifier::Create(gs_config).value();
  for (auto _ : state) {
    auto f = classifier.Predict(m, labeled);
    benchmark::DoNotOptimize(f);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_HarmonicPredict)->Arg(100)->Arg(400)->Arg(2000);

void BM_HarmonicPredictCg(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  const PoolGraph m = MakeRandomTriangle(n).Compact();
  LabeledSet labeled = MakeLabels(n);
  HarmonicConfig config;
  config.solver = HarmonicSolver::kConjugateGradient;
  auto classifier = HarmonicFunctionClassifier::Create(config).value();
  for (auto _ : state) {
    auto f = classifier.Predict(m, labeled);
    benchmark::DoNotOptimize(f);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_HarmonicPredictCg)->Arg(100)->Arg(400)->Arg(2000);

// The random graph sparsified to each node's top 8 edges: sparse like a
// top-8 PS pool graph, but its weights are random, not PS values.
// perf_pipeline's harmonic_solve rows solve on PS pool graphs.
void BM_HarmonicPredictSparsified(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  const PoolGraph m = MakeRandomTriangle(n).SparsifyTopK(8);
  LabeledSet labeled = MakeLabels(n);
  HarmonicConfig config;
  config.solver = HarmonicSolver::kGaussSeidel;
  auto classifier = HarmonicFunctionClassifier::Create(config).value();
  for (auto _ : state) {
    auto f = classifier.Predict(m, labeled);
    benchmark::DoNotOptimize(f);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_HarmonicPredictSparsified)->Arg(400)->Arg(2000)->Arg(8000);

void BM_HarmonicPredictCgSparsified(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  const PoolGraph m = MakeRandomTriangle(n).SparsifyTopK(8);
  LabeledSet labeled = MakeLabels(n);
  HarmonicConfig config;
  config.solver = HarmonicSolver::kConjugateGradient;
  auto classifier = HarmonicFunctionClassifier::Create(config).value();
  for (auto _ : state) {
    auto f = classifier.Predict(m, labeled);
    benchmark::DoNotOptimize(f);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_HarmonicPredictCgSparsified)->Arg(400)->Arg(2000)->Arg(8000);

// Append-only label history shared by the warm/cold chain benches:
// a 10-label seed round followed by five rounds of 3 labels, matching
// the ActiveLearner's seed + labels_per_round cadence.
std::vector<LabeledSet> MakeLabelChain(size_t n) {
  std::vector<LabeledSet> chain;
  LabeledSet current;
  for (size_t r = 0; r < 6; ++r) {
    size_t add = r == 0 ? 10 : 3;
    for (size_t k = 0; k < add; ++k) {
      size_t idx = current.size() * 7 % n;
      current.Add(idx, 1.0 + static_cast<double>(idx % 3));
    }
    chain.push_back(current);
  }
  return chain;
}

// One HarmonicSolveState carried through the whole label chain: each
// round pays only its own incremental solve.
void BM_HarmonicWarmChain(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  const PoolGraph m = MakeRandomTriangle(n).SparsifyTopK(8);
  std::vector<LabeledSet> chain = MakeLabelChain(n);
  auto classifier =
      HarmonicFunctionClassifier::Create(HarmonicConfig{}).value();
  for (auto _ : state) {
    std::unique_ptr<ClassifierState> solve_state = classifier.MakeState();
    for (const LabeledSet& labeled : chain) {
      auto f =
          classifier.PredictWithState(m, labeled, solve_state.get(), nullptr);
      benchmark::DoNotOptimize(f);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(chain.size()));
}
BENCHMARK(BM_HarmonicWarmChain)->Arg(400)->Arg(2000);

// The stateless equivalent: every round replays its full label prefix
// from a fresh state. The ratio to BM_HarmonicWarmChain is the cost of
// re-solving history each round.
void BM_HarmonicColdReplayChain(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  const PoolGraph m = MakeRandomTriangle(n).SparsifyTopK(8);
  std::vector<LabeledSet> chain = MakeLabelChain(n);
  auto classifier =
      HarmonicFunctionClassifier::Create(HarmonicConfig{}).value();
  for (auto _ : state) {
    for (size_t k = 0; k < chain.size(); ++k) {
      std::unique_ptr<ClassifierState> replay = classifier.MakeState();
      for (size_t q = 0; q <= k; ++q) {
        auto f =
            classifier.PredictWithState(m, chain[q], replay.get(), nullptr);
        benchmark::DoNotOptimize(f);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(chain.size()));
}
BENCHMARK(BM_HarmonicColdReplayChain)->Arg(400)->Arg(2000);

// Full CSR build from the packed store (SimilarityTriangle::Compact's
// linear walk), on a fresh copy of the triangle each iteration.
void BM_SimilarityCompact(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  const SimilarityTriangle base = MakeRandomTriangle(n);
  for (auto _ : state) {
    SimilarityMatrix m = SimilarityTriangle(base).Compact();
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n * (n + 1) / 2));
}
BENCHMARK(BM_SimilarityCompact)->Arg(400)->Arg(2000);

void BM_PoolBuild(benchmark::State& state) {
  sim::OwnerDataset ds = MakeDataset(static_cast<size_t>(state.range(0)));
  PoolBuilderConfig config;
  config.attribute_weights = sim::PaperAttributeWeights();
  auto builder = PoolBuilder::Create(config).value();
  for (auto _ : state) {
    auto pools = builder.Build(ds.graph, ds.profiles, ds.owner);
    benchmark::DoNotOptimize(pools);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.strangers.size()));
}
BENCHMARK(BM_PoolBuild)->Arg(400)->Arg(2000)->Arg(10000);

void BM_BenefitBatch(benchmark::State& state) {
  sim::OwnerDataset ds = MakeDataset(static_cast<size_t>(state.range(0)));
  auto model = BenefitModel::Create(ThetaWeights::PaperTable3()).value();
  for (auto _ : state) {
    auto benefits = model.ComputeBatch(ds.visibility, ds.strangers);
    benchmark::DoNotOptimize(benefits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.strangers.size()));
}
BENCHMARK(BM_BenefitBatch)->Arg(2000);

void BM_GeneratorEgoNetwork(benchmark::State& state) {
  sim::GeneratorConfig config;
  config.num_friends = 60;
  config.num_strangers = static_cast<size_t>(state.range(0));
  config.num_communities = 5;
  auto gen = sim::FacebookGenerator::Create(config).value();
  uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    auto ds = gen.Generate({sim::Gender::kMale, sim::Locale::kTR}, &rng);
    benchmark::DoNotOptimize(ds);
  }
}
BENCHMARK(BM_GeneratorEgoNetwork)->Arg(400)->Arg(2000);

}  // namespace
}  // namespace sight

BENCHMARK_MAIN();
