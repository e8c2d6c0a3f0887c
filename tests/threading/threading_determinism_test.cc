// Concurrency tests for the parallel hot path of the risk pipeline
// (labeled `threading` in ctest so TSan runs can target them:
// `ctest -L threading` in a -DSIGHT_SANITIZE=thread build).
//
// The contract under test: every parallel phase — NS batches and
// per-class harmonic solves — produces results bitwise identical to the
// serial path, for any thread count; and the tables the service's drain
// workers share are safe to read from several threads at once.

#include <atomic>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/risk_engine.h"
#include "graph/profile.h"
#include "learning/multiclass_harmonic.h"
#include "learning/pool_graph_testing.h"
#include "sim/facebook_generator.h"
#include "sim/owner_model.h"
#include "similarity/network_similarity.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace sight {
namespace {

sim::OwnerDataset MakeDataset(size_t strangers, uint64_t seed) {
  sim::GeneratorConfig config;
  config.num_friends = 40;
  config.num_strangers = strangers;
  config.num_communities = 4;
  auto gen = sim::FacebookGenerator::Create(config).value();
  Rng rng(seed);
  return gen.Generate({sim::Gender::kFemale, sim::Locale::kIT}, &rng).value();
}

// Runs a full owner assessment with the given engine threading knobs;
// everything else (dataset, attitude, run seed) is pinned.
RiskReport Assess(const sim::OwnerDataset& dataset, ClassifierKind classifier,
                  size_t num_threads, ThreadPool* shared_pool) {
  RiskEngineConfig config;
  config.classifier = classifier;
  config.learner.sparsify_top_k = 8;
  config.num_threads = num_threads;
  config.thread_pool = shared_pool;
  auto engine = RiskEngine::Create(config).value();

  Rng attitude_rng(4242);
  sim::OwnerAttitude attitude = sim::SampleOwnerAttitude(&attitude_rng);
  auto oracle = sim::OwnerModel::Create(attitude, &dataset.profiles,
                                        &dataset.visibility);
  Rng run_rng(77);
  return engine
      .AssessOwner(dataset.graph, dataset.profiles, dataset.visibility,
                   dataset.owner, &*oracle, &run_rng)
      .value();
}

void ExpectBitwiseEqualReports(const RiskReport& a, const RiskReport& b) {
  ASSERT_EQ(a.assessment.strangers.size(), b.assessment.strangers.size());
  for (size_t i = 0; i < a.assessment.strangers.size(); ++i) {
    const StrangerAssessment& sa = a.assessment.strangers[i];
    const StrangerAssessment& sb = b.assessment.strangers[i];
    EXPECT_EQ(sa.stranger, sb.stranger);
    // Bitwise equality, not EXPECT_NEAR: the threaded phases must not
    // reorder any floating-point reduction.
    EXPECT_EQ(sa.predicted_score, sb.predicted_score) << "stranger " << i;
    EXPECT_EQ(sa.predicted_label, sb.predicted_label);
    EXPECT_EQ(sa.network_similarity, sb.network_similarity);
    EXPECT_EQ(sa.benefit, sb.benefit);
  }
  EXPECT_EQ(a.assessment.total_queries, b.assessment.total_queries);
  EXPECT_EQ(a.assessment.validation_matches, b.assessment.validation_matches);
  EXPECT_EQ(a.pool_sizes, b.pool_sizes);
}

TEST(ThreadingDeterminismTest, HarmonicPredictionsIdenticalAcrossThreadCounts) {
  sim::OwnerDataset dataset = MakeDataset(220, 9001);
  RiskReport serial = Assess(dataset, ClassifierKind::kHarmonic, 1, nullptr);
  ASSERT_GT(serial.num_strangers, 0u);
  for (size_t threads : {2u, 4u, 7u}) {
    RiskReport threaded =
        Assess(dataset, ClassifierKind::kHarmonic, threads, nullptr);
    ExpectBitwiseEqualReports(serial, threaded);
  }
}

TEST(ThreadingDeterminismTest, SharedCallerPoolMatchesSerial) {
  sim::OwnerDataset dataset = MakeDataset(180, 31337);
  RiskReport serial = Assess(dataset, ClassifierKind::kHarmonic, 1, nullptr);
  ThreadPool shared(4);
  // The same caller-owned pool reused across engines/owners (the
  // multi-owner serving setup) must not change results either.
  for (int round = 0; round < 3; ++round) {
    RiskReport threaded =
        Assess(dataset, ClassifierKind::kHarmonic, 1, &shared);
    ExpectBitwiseEqualReports(serial, threaded);
  }
}

TEST(ThreadingDeterminismTest, MulticlassCmnIdenticalAcrossThreadCounts) {
  // kHarmonicCmn adds the parallel per-class solves on top of the shared
  // construction phases.
  sim::OwnerDataset dataset = MakeDataset(150, 555);
  RiskReport serial =
      Assess(dataset, ClassifierKind::kHarmonicCmn, 1, nullptr);
  RiskReport threaded =
      Assess(dataset, ClassifierKind::kHarmonicCmn, 4, nullptr);
  ExpectBitwiseEqualReports(serial, threaded);
}

TEST(ThreadingDeterminismTest, MulticlassClassScoresMatchSerial) {
  SimilarityTriangle t(30);
  uint64_t state = 12345;
  auto next_unit = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  for (size_t i = 0; i < 30; ++i) {
    for (size_t j = i + 1; j < 30; ++j) {
      if (next_unit() < 0.3) t.Set(i, j, 0.1 + next_unit());
    }
  }
  LabeledSet labeled;
  labeled.Add(0, 1.0);
  labeled.Add(10, 2.0);
  labeled.Add(20, 3.0);
  labeled.Add(25, 1.0);

  MulticlassHarmonicConfig serial_config;
  auto serial = MulticlassHarmonicClassifier::Create(serial_config).value();
  ThreadPool pool(3);
  MulticlassHarmonicConfig threaded_config;
  threaded_config.thread_pool = &pool;
  auto threaded =
      MulticlassHarmonicClassifier::Create(threaded_config).value();

  // A CSR graph, and a factored PS graph the per-class solves share
  // across the pool's threads (200 members: conjugate gradient).
  const PoolGraph graphs[] = {std::move(t).Compact(),
                              RandomFactoredGraph(200, 12345)};
  for (const PoolGraph& w : graphs) {
    auto serial_scores = serial.ClassScores(w, labeled).value();
    auto threaded_scores = threaded.ClassScores(w, labeled).value();
    ASSERT_EQ(serial_scores.size(), threaded_scores.size());
    for (size_t u = 0; u < serial_scores.size(); ++u) {
      for (size_t c = 0; c < serial_scores[u].size(); ++c) {
        EXPECT_EQ(serial_scores[u][c], threaded_scores[u][c]);
      }
    }
  }
}

TEST(ThreadingDeterminismTest, NetworkSimilarityBatchMatchesSerial) {
  sim::OwnerDataset dataset = MakeDataset(300, 2024);
  auto ns = NetworkSimilarity::Create(NetworkSimilarityConfig{}).value();
  std::vector<double> serial =
      ns.ComputeBatch(dataset.graph, dataset.owner, dataset.strangers);
  ThreadPool pool(4);
  std::vector<double> threaded =
      ns.ComputeBatch(dataset.graph, dataset.owner, dataset.strangers, &pool);
  ASSERT_EQ(serial.size(), threaded.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "stranger " << i;
  }
}

TEST(ThreadingStressTest, ParallelForHandlesAwkwardShapes) {
  // The shapes ParallelFor sees in the pipeline: zero-length (empty pool
  // set), n < num_threads (3 classes on a big pool), and n >> threads.
  ThreadPool pool(6);
  for (size_t n : {0u, 1u, 5u, 6u, 13u, 500u}) {
    std::vector<std::atomic<int>> hits(n);
    ParallelFor(&pool, n, [&hits](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
  }
}

// A RiskService with several drain workers assesses owners of different
// shards at once over one shared ProfileTable, so a read must not
// write. Threads released together make the first reads of absent
// users on a fresh table; each must see an all-missing profile of the
// schema's arity.
TEST(ThreadingStressTest, ConcurrentReadsOfAbsentProfiles) {
  constexpr size_t kReaders = 4;
  for (int trial = 0; trial < 8; ++trial) {
    const ProfileTable table(ProfileSchema::Create({"a", "b", "c"}).value());
    std::latch start(kReaders);
    std::vector<size_t> arity(kReaders, 0);
    std::vector<std::thread> readers;
    for (size_t t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        start.arrive_and_wait();
        arity[t] = table.Get(static_cast<UserId>(100 + t)).values.size();
      });
    }
    for (std::thread& reader : readers) reader.join();
    for (size_t a : arity) EXPECT_EQ(a, 3u);
  }
}

TEST(ThreadingStressTest, ConcurrentEnginesOnOneSharedPool) {
  // Two engine assessments driven from different threads sharing one
  // pool: ParallelFor's Wait() may over-wait on foreign tasks but must
  // never drop or duplicate work.
  sim::OwnerDataset a = MakeDataset(120, 1);
  sim::OwnerDataset b = MakeDataset(120, 2);
  RiskReport serial_a = Assess(a, ClassifierKind::kHarmonic, 1, nullptr);
  RiskReport serial_b = Assess(b, ClassifierKind::kHarmonic, 1, nullptr);

  ThreadPool shared(4);
  RiskReport threaded_a;
  RiskReport threaded_b;
  std::thread ta([&] {
    threaded_a = Assess(a, ClassifierKind::kHarmonic, 1, &shared);
  });
  std::thread tb([&] {
    threaded_b = Assess(b, ClassifierKind::kHarmonic, 1, &shared);
  });
  ta.join();
  tb.join();
  ExpectBitwiseEqualReports(serial_a, threaded_a);
  ExpectBitwiseEqualReports(serial_b, threaded_b);
}

}  // namespace
}  // namespace sight
