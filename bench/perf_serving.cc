// Serving performance study: quantifies what the resident RiskService
// buys over the batch front doors, and writes the measured numbers to
// BENCH_serving.json.
//
// A Crawler trace (one owner, strangers surfacing in batches) is
// replayed three times:
//
//   service   full resident arm: carried PoolLearners PLUS the carried
//             pool partition and owner-level encoded stranger table
//             (DESIGN.md §14) — an unchanged stranger set reuses the
//             partition outright, a grown one routes only the new
//             suffix through carried squeezers, and each tick encodes
//             only newly discovered strangers.
//   carried   the learner-carry-only arm (carry_pool_partition and
//             carry_encoded_tables off): what serving looked like
//             before the partition/encode caches landed.
//   baseline  rebuild-per-tick shape: a one-shard service with every
//             carry off, driven by AssessSync, which keeps labels and
//             warm-start seeds but rebuilds every pool's codec,
//             similarity matrix, and learner on each tick.
//
// The headline number is steady-state throughput: once discovery is
// exhausted and the owner's answers have reached a fixpoint, a serving
// workload keeps asking "what is my risk now". Each arm's steady loop
// runs kSteadyPasses times and keeps its fastest pass, and the three
// arms' passes interleave (one pass of each arm in turn). The full
// arm's tick is a fraction of a millisecond with two thread handoffs,
// so a single scheduler stall on a shared host can outweigh a short
// pass: interleaving keeps one stall, or one busy stretch of the host,
// from sinking every pass of one arm, and a pass is 32 ticks by default
// so a stall is a smaller share of it. The harness FATALs
// unless the full arm sustains >= 6x the rebuild baseline and >= 2x
// the learner-carry-only arm on the unchanged-stranger-set trace,
// FATALs if the carried partition/encode paths ever diverge bitwise
// from the cache-free arm, FATALs unless the encode and partition
// caches each report at least one steady-state hit, and FATALs if
// AssessNow diverges bitwise from a cold batch
// RiskEngine::AssessStrangers over identical inputs.
//
// A multi-owner section replays one assess event per owner across a
// worker pool at several thread counts (shards drain concurrently); on
// a single-core host those points are marked skipped. Every JSON row
// records hardware_concurrency so the numbers are interpretable.
//
// Usage: perf_serving [--strangers=1000] [--batch=200] [--steady=32]
//                     [--out=BENCH_serving.json]
// Env:   SIGHT_BENCH_THREADS=2,4,8 overrides the multi-owner thread
//        counts.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/risk_engine.h"
#include "graph/algorithms.h"
#include "service/risk_service.h"
#include "sim/crawler.h"
#include "sim/facebook_generator.h"
#include "sim/owner_model.h"
#include "util/random.h"

namespace sight {
namespace {

double TimeMs(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

sim::OwnerDataset MakeDataset(size_t strangers, size_t friends,
                              uint64_t seed) {
  sim::GeneratorConfig config;
  config.num_friends = friends;
  config.num_strangers = strangers;
  auto gen = sim::FacebookGenerator::Create(config).value();
  Rng rng(seed);
  return gen.Generate({sim::Gender::kMale, sim::Locale::kPL}, &rng).value();
}

/// Field-by-field equality with exact double compares: the service's
/// cold path must reproduce the batch engine bit for bit.
bool ReportsBitwiseEqual(const RiskReport& a, const RiskReport& b) {
  if (a.num_strangers != b.num_strangers || a.num_pools != b.num_pools ||
      a.pool_sizes != b.pool_sizes ||
      a.assessment.total_queries != b.assessment.total_queries ||
      a.assessment.strangers.size() != b.assessment.strangers.size()) {
    return false;
  }
  for (size_t i = 0; i < a.assessment.strangers.size(); ++i) {
    const StrangerAssessment& x = a.assessment.strangers[i];
    const StrangerAssessment& y = b.assessment.strangers[i];
    if (x.stranger != y.stranger ||
        x.network_similarity != y.network_similarity ||
        x.benefit != y.benefit || x.pool_index != y.pool_index ||
        x.predicted_score != y.predicted_score ||
        x.predicted_label != y.predicted_label ||
        x.owner_labeled != y.owner_labeled) {
      return false;
    }
  }
  return true;
}

struct CrawlRow {
  size_t tick = 0;
  size_t discovered_total = 0;
  double service_ms = 0.0;   // full arm: all carries on
  double carried_ms = 0.0;   // learner-carry-only arm
  double baseline_ms = 0.0;  // rebuild-per-tick arm: every carry off
  size_t service_queries = 0;   // new oracle questions this tick
  size_t baseline_queries = 0;
  size_t pools_carried = 0;     // full arm
  // Per-tick carry telemetry of the full arm (stats deltas).
  size_t partition_hits = 0;
  size_t partition_misses = 0;
  size_t encode_hits = 0;
  size_t encode_misses = 0;
  size_t encode_rows_appended = 0;
  unsigned hardware_concurrency = 0;
};

// Passes of each arm's steady loop, interleaved across the arms; the
// fastest counts.
constexpr int kSteadyPasses = 5;

struct SteadyResult {
  size_t ticks = 0;  // per pass
  size_t pools_total = 0;
  size_t pools_carried = 0;  // in the last full-arm tick
  double service_ms_total = 0.0;
  double carried_ms_total = 0.0;
  double baseline_ms_total = 0.0;
  double service_per_sec = 0.0;
  double carried_per_sec = 0.0;
  double baseline_per_sec = 0.0;
  double speedup = 0.0;              // full arm vs rebuild baseline
  double speedup_vs_carried = 0.0;   // full arm vs learner-carry-only
  // Partition/encode cache hits of the full arm over every steady pass.
  size_t partition_hits = 0;
  size_t encode_hits = 0;
  unsigned hardware_concurrency = 0;
};

struct ThreadPoint {
  size_t threads = 0;
  size_t owners = 0;
  double ms = 0.0;
  double events_per_sec = 0.0;
  double speedup = 0.0;  // vs the 1-thread point
  unsigned hardware_concurrency = 0;
};

struct TraceStudy {
  std::vector<CrawlRow> crawl;
  SteadyResult steady;
  bool assess_now_bitwise_equal = false;
  /// Full arm (partition+encode caches) vs learner-carry-only arm,
  /// compared bitwise on every crawl tick and after the steady loop.
  bool carried_vs_cold_bitwise_equal = false;
  /// Final carry-cache counters of the full arm, whole trace.
  RiskService::Stats full_arm_stats;
};

TraceStudy RunTraceStudy(size_t num_strangers, size_t batch_size,
                         size_t steady_ticks) {
  TraceStudy study;
  const unsigned hc = std::thread::hardware_concurrency();

  sim::OwnerDataset ds = MakeDataset(num_strangers, /*friends=*/70,
                                     /*seed=*/31337);
  Rng attitude_rng(5);
  sim::OwnerAttitude attitude = sim::SampleOwnerAttitude(&attitude_rng);
  // Independent oracle instances per path: OwnerModel answers are a
  // pure function of the profiles, so every path hears the same owner.
  auto service_oracle =
      sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
          .value();
  auto carried_oracle =
      sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
          .value();
  auto baseline_oracle =
      sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
          .value();

  RiskEngineConfig engine_config;
  engine_config.pools.attribute_weights = sim::PaperAttributeWeights();
  engine_config.learner.confidence = attitude.confidence;
  engine_config.theta = attitude.theta;

  // Full resident arm: one owner, one background worker, every
  // cross-tick carry on (learners + pool partition + encoded tables).
  RiskServiceConfig service_config;
  service_config.engine = engine_config;
  service_config.num_shards = 1;
  service_config.num_threads = 1;
  auto service = RiskService::Create(service_config).value();
  OwnerRegistration registration;
  registration.owner = ds.owner;
  registration.graph = &ds.graph;
  registration.profiles = &ds.profiles;
  registration.visibility = &ds.visibility;
  registration.oracle = &service_oracle;
  registration.rng_seed = 99;
  SIGHT_CHECK(service->RegisterOwner(registration).ok());

  // Learner-carry-only arm: the pre-§14 resident shape. Same seeds, so
  // any bitwise divergence from the full arm indicts the new caches.
  RiskServiceConfig carried_config = service_config;
  carried_config.carry_pool_partition = false;
  carried_config.carry_encoded_tables = false;
  auto carried = RiskService::Create(carried_config).value();
  OwnerRegistration carried_registration = registration;
  carried_registration.oracle = &carried_oracle;
  SIGHT_CHECK(carried->RegisterOwner(carried_registration).ok());

  // Rebuild-per-tick baseline: every carry off, driven by AssessSync, so
  // labels and warm-start seeds survive a tick but encode/matrix/rounds
  // re-run for every pool on every call.
  RiskServiceConfig baseline_config = service_config;
  baseline_config.carry_learners = false;
  baseline_config.carry_pool_partition = false;
  baseline_config.carry_encoded_tables = false;
  auto baseline = RiskService::Create(baseline_config).value();
  OwnerRegistration baseline_registration = registration;
  baseline_registration.oracle = nullptr;  // AssessSync takes it per call
  SIGHT_CHECK(baseline->RegisterOwner(baseline_registration).ok());
  Rng baseline_rng(99);

  sim::CrawlerConfig crawl_config;
  crawl_config.batch_size = batch_size;
  Rng crawl_rng(8);
  auto crawler =
      sim::Crawler::Create(ds.graph, ds.owner, crawl_config, &crawl_rng)
          .value();

  // --- Crawl replay: all three paths see the identical discovery
  // trace. The full arm is gated bitwise against the learner-carry-only
  // arm on every tick: the partition/encode caches must be invisible in
  // the output.
  study.carried_vs_cold_bitwise_equal = true;
  uint64_t version = 0;
  size_t service_queries_before = 0;
  size_t baseline_queries_before = 0;
  RiskService::Stats stats_before = service->stats();
  while (!crawler.done()) {
    std::vector<UserId> batch = crawler.Tick();
    CrawlRow row;
    row.tick = static_cast<size_t>(version) + 1;
    row.hardware_concurrency = hc;

    std::shared_ptr<const AssessmentSnapshot> snapshot;
    row.service_ms = TimeMs([&] {
      OwnerEvent event;
      event.owner = ds.owner;
      event.discovered = batch;
      SIGHT_CHECK(service->Submit(std::move(event)).ok());
      snapshot = service->WaitFor(ds.owner, version + 1).value();
    });
    SIGHT_CHECK(snapshot->status.ok());
    row.pools_carried = snapshot->report.assessment.pools_carried;
    row.service_queries =
        service_oracle.num_queries() - service_queries_before;
    service_queries_before = service_oracle.num_queries();
    RiskService::Stats stats_now = service->stats();
    row.partition_hits = stats_now.partition_hits - stats_before.partition_hits;
    row.partition_misses =
        stats_now.partition_misses - stats_before.partition_misses;
    row.encode_hits = stats_now.encode_hits - stats_before.encode_hits;
    row.encode_misses = stats_now.encode_misses - stats_before.encode_misses;
    row.encode_rows_appended =
        stats_now.encode_rows_appended - stats_before.encode_rows_appended;
    stats_before = stats_now;

    std::shared_ptr<const AssessmentSnapshot> carried_snapshot;
    row.carried_ms = TimeMs([&] {
      OwnerEvent event;
      event.owner = ds.owner;
      event.discovered = batch;
      SIGHT_CHECK(carried->Submit(std::move(event)).ok());
      carried_snapshot = carried->WaitFor(ds.owner, version + 1).value();
    });
    ++version;
    SIGHT_CHECK(carried_snapshot->status.ok());
    if (!ReportsBitwiseEqual(snapshot->report, carried_snapshot->report)) {
      study.carried_vs_cold_bitwise_equal = false;
      std::fprintf(stderr,
                   "FATAL: carried partition/encode tick %zu diverges "
                   "bitwise from the cache-free arm\n",
                   row.tick);
      std::exit(1);
    }

    RiskReport baseline_report;
    row.baseline_ms = TimeMs([&] {
      SIGHT_CHECK(baseline->AddStrangers(ds.owner, batch).ok());
      baseline_report =
          baseline->AssessSync(ds.owner, &baseline_oracle, &baseline_rng)
              .value();
    });
    row.baseline_queries =
        baseline_oracle.num_queries() - baseline_queries_before;
    baseline_queries_before = baseline_oracle.num_queries();

    row.discovered_total = crawler.discovered().size();
    std::printf("crawl     tick=%zu discovered=%-5zu service=%9.2fms "
                "(carried %zu, enc+%zu, %zu q)  learner-only=%9.2fms  "
                "baseline=%9.2fms (%zu q)\n",
                row.tick, row.discovered_total, row.service_ms,
                row.pools_carried, row.encode_rows_appended,
                row.service_queries, row.carried_ms, row.baseline_ms,
                row.baseline_queries);
    study.crawl.push_back(row);
  }

  // --- Bitwise gate: the service's cold read-through must match a
  // batch engine run over the same strangers/labels/oracle/rng exactly.
  {
    SIGHT_CHECK(service->Flush().ok());
    auto engine = RiskEngine::Create(engine_config).value();
    auto gate_oracle_a =
        sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
            .value();
    auto gate_oracle_b =
        sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
            .value();
    Rng rng_a(4242);
    Rng rng_b(4242);
    const PoolLearner::KnownLabels* labels =
        service->KnownLabelsView(ds.owner).value();
    RiskReport service_report =
        service->AssessNow(ds.owner, &gate_oracle_a, &rng_a).value();
    RiskReport batch_report =
        engine
            .AssessStrangers(ds.graph, ds.profiles, ds.visibility, ds.owner,
                             crawler.discovered(), &gate_oracle_b, &rng_b,
                             labels->empty() ? nullptr : labels,
                             /*prior_scores=*/nullptr)
            .value();
    study.assess_now_bitwise_equal =
        ReportsBitwiseEqual(service_report, batch_report);
    if (!study.assess_now_bitwise_equal) {
      std::fprintf(stderr,
                   "FATAL: AssessNow diverges from batch "
                   "RiskEngine::AssessStrangers after the crawl replay\n");
      std::exit(1);
    }
    std::printf("bitwise   AssessNow == batch AssessStrangers over %zu "
                "strangers\n",
                crawler.discovered().size());
  }

  // --- Steady state: discovery is done; drive assess-only requests
  // until the owner's answers reach a fixpoint (no new oracle
  // questions on any path), then measure throughput. Each steady tick
  // re-assesses an unchanged stranger set, so the full arm's partition
  // and encode caches must hit on every one of them.
  uint64_t carried_version = version;
  for (size_t warm = 0; warm < 8; ++warm) {
    Rng rng(7);
    RiskReport report =
        service->AssessSync(ds.owner, &service_oracle, &rng).value();
    ++version;
    if (report.assessment.total_queries == 0) break;
  }
  for (size_t warm = 0; warm < 8; ++warm) {
    Rng rng(7);
    RiskReport report =
        carried->AssessSync(ds.owner, &carried_oracle, &rng).value();
    ++carried_version;
    if (report.assessment.total_queries == 0) break;
  }
  for (size_t warm = 0; warm < 8; ++warm) {
    RiskReport report =
        baseline->AssessSync(ds.owner, &baseline_oracle, &baseline_rng)
            .value();
    if (report.assessment.total_queries == 0) break;
  }

  SteadyResult& steady = study.steady;
  steady.ticks = steady_ticks;
  steady.hardware_concurrency = hc;
  auto service_pass = [&] {
    for (size_t i = 0; i < steady_ticks; ++i) {
      OwnerEvent event;
      event.owner = ds.owner;
      SIGHT_CHECK(service->Submit(std::move(event)).ok());
      auto snapshot = service->WaitFor(ds.owner, version + 1).value();
      ++version;
      SIGHT_CHECK(snapshot->status.ok());
      steady.pools_total = snapshot->report.assessment.pools_total;
      steady.pools_carried = snapshot->report.assessment.pools_carried;
    }
  };
  auto carried_pass = [&] {
    for (size_t i = 0; i < steady_ticks; ++i) {
      OwnerEvent event;
      event.owner = ds.owner;
      SIGHT_CHECK(carried->Submit(std::move(event)).ok());
      auto snapshot = carried->WaitFor(ds.owner, carried_version + 1).value();
      ++carried_version;
      SIGHT_CHECK(snapshot->status.ok());
    }
  };
  auto baseline_pass = [&] {
    for (size_t i = 0; i < steady_ticks; ++i) {
      RiskReport report =
          baseline->AssessSync(ds.owner, &baseline_oracle, &baseline_rng)
              .value();
      SIGHT_CHECK(report.num_strangers == crawler.discovered().size());
    }
  };
  // One pass of each arm in turn; each arm keeps its fastest pass.
  steady.service_ms_total = std::numeric_limits<double>::infinity();
  steady.carried_ms_total = std::numeric_limits<double>::infinity();
  steady.baseline_ms_total = std::numeric_limits<double>::infinity();
  RiskService::Stats steady_stats_before = service->stats();
  for (int pass = 0; pass < kSteadyPasses; ++pass) {
    steady.service_ms_total =
        std::min(steady.service_ms_total, TimeMs(service_pass));
    steady.carried_ms_total =
        std::min(steady.carried_ms_total, TimeMs(carried_pass));
    steady.baseline_ms_total =
        std::min(steady.baseline_ms_total, TimeMs(baseline_pass));
  }
  RiskService::Stats steady_stats_now = service->stats();
  steady.partition_hits =
      steady_stats_now.partition_hits - steady_stats_before.partition_hits;
  steady.encode_hits =
      steady_stats_now.encode_hits - steady_stats_before.encode_hits;
  // The steady loops must not have nudged the two resident arms apart.
  if (!ReportsBitwiseEqual(service->Poll(ds.owner)->report,
                           carried->Poll(ds.owner)->report)) {
    study.carried_vs_cold_bitwise_equal = false;
    std::fprintf(stderr,
                 "FATAL: carried partition/encode steady state diverges "
                 "bitwise from the cache-free arm\n");
    std::exit(1);
  }
  steady.service_per_sec = 1000.0 * static_cast<double>(steady_ticks) /
                           steady.service_ms_total;
  steady.carried_per_sec = 1000.0 * static_cast<double>(steady_ticks) /
                           steady.carried_ms_total;
  steady.baseline_per_sec = 1000.0 * static_cast<double>(steady_ticks) /
                            steady.baseline_ms_total;
  steady.speedup = steady.service_per_sec / steady.baseline_per_sec;
  steady.speedup_vs_carried = steady.service_per_sec / steady.carried_per_sec;
  std::printf("steady    %zu ticks, best of %d passes: service=%9.2fms "
              "(%.1f/s, %zu/%zu pools carried, %zu part hits, %zu enc hits)  "
              "learner-only=%9.2fms (%.1f/s)  baseline=%9.2fms (%.1f/s)\n",
              steady.ticks, kSteadyPasses, steady.service_ms_total,
              steady.service_per_sec,
              steady.pools_carried, steady.pools_total, steady.partition_hits,
              steady.encode_hits, steady.carried_ms_total,
              steady.carried_per_sec, steady.baseline_ms_total,
              steady.baseline_per_sec);
  std::printf("steady    speedup=%.2fx vs rebuild baseline, %.2fx vs "
              "learner-carry-only\n",
              steady.speedup, steady.speedup_vs_carried);
  if (steady.speedup < 6.0) {
    std::fprintf(stderr,
                 "FATAL: steady-state serving speedup %.2fx is below the "
                 "6x bar over the rebuild-per-tick baseline\n",
                 steady.speedup);
    std::exit(1);
  }
  if (steady.speedup_vs_carried < 2.0) {
    std::fprintf(stderr,
                 "FATAL: unchanged-stranger-set speedup %.2fx is below the "
                 "2x bar over the learner-carry-only arm\n",
                 steady.speedup_vs_carried);
    std::exit(1);
  }
  if (steady.encode_hits < 1 || steady.partition_hits < 1) {
    std::fprintf(stderr,
                 "FATAL: steady-state trace reported %zu encode / %zu "
                 "partition cache hits; the carried paths never fired\n",
                 steady.encode_hits, steady.partition_hits);
    std::exit(1);
  }
  study.full_arm_stats = service->stats();
  carried->Shutdown();
  service->Shutdown();
  return study;
}

// One assess event per owner, drained across a worker pool: shards
// assess concurrently, so throughput should scale with threads up to
// min(threads, owners) on multi-core hardware.
std::vector<ThreadPoint> RunMultiOwnerStudy(
    const std::vector<size_t>& thread_counts) {
  const unsigned hc = std::thread::hardware_concurrency();
  sim::OwnerDataset ds = MakeDataset(/*strangers=*/150, /*friends=*/40,
                                     /*seed=*/2012);
  std::vector<UserId> owners = {ds.owner, ds.friends[0], ds.friends[1],
                                ds.friends[2]};
  Rng attitude_rng(3);
  sim::OwnerAttitude attitude = sim::SampleOwnerAttitude(&attitude_rng);

  std::vector<ThreadPoint> points;
  for (size_t threads : thread_counts) {
    std::vector<std::unique_ptr<sim::OwnerModel>> oracles;
    for (size_t i = 0; i < owners.size(); ++i) {
      oracles.push_back(std::make_unique<sim::OwnerModel>(
          sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
              .value()));
    }
    RiskServiceConfig config;
    config.engine.pools.attribute_weights = sim::PaperAttributeWeights();
    config.num_shards = owners.size();
    config.num_threads = threads;
    auto service = RiskService::Create(std::move(config)).value();
    for (size_t i = 0; i < owners.size(); ++i) {
      OwnerRegistration registration;
      registration.owner = owners[i];
      registration.graph = &ds.graph;
      registration.profiles = &ds.profiles;
      registration.visibility = &ds.visibility;
      registration.oracle = oracles[i].get();
      registration.rng_seed = 100 + i;
      SIGHT_CHECK(service->RegisterOwner(registration).ok());
      SIGHT_CHECK(service->DiscoverAllStrangers(owners[i]).ok());
    }

    ThreadPoint point;
    point.threads = threads;
    point.owners = owners.size();
    point.hardware_concurrency = hc;
    point.ms = TimeMs([&] {
      for (UserId owner : owners) {
        OwnerEvent event;
        event.owner = owner;
        SIGHT_CHECK(service->Submit(std::move(event)).ok());
      }
      SIGHT_CHECK(service->Flush().ok());
    });
    point.events_per_sec =
        1000.0 * static_cast<double>(owners.size()) / point.ms;
    service->Shutdown();
    points.push_back(point);
  }
  for (ThreadPoint& point : points) {
    point.speedup = points.front().ms / point.ms;
    std::printf("multi     threads=%zu owners=%zu %9.2fms (%.1f events/s, "
                "%.2fx)%s\n",
                point.threads, point.owners, point.ms, point.events_per_sec,
                point.speedup,
                hc <= 1 && point.threads > 1 ? "  [single-core host]" : "");
  }
  return points;
}

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

bool WriteJson(const std::string& path, const TraceStudy& study,
               const std::vector<ThreadPoint>& multi) {
  const unsigned hc = std::thread::hardware_concurrency();
  std::ofstream out(path);
  out << "{\n";
  out << "  \"bench\": \"perf_serving\",\n";
  out << "  \"hardware_concurrency\": " << hc << ",\n";
  out << "  \"crawl\": [\n";
  for (size_t i = 0; i < study.crawl.size(); ++i) {
    const CrawlRow& r = study.crawl[i];
    out << "    {\"tick\": " << r.tick << ", \"discovered_total\": "
        << r.discovered_total << ", \"service_ms\": " << JsonNum(r.service_ms)
        << ", \"carried_ms\": " << JsonNum(r.carried_ms)
        << ", \"baseline_ms\": " << JsonNum(r.baseline_ms)
        << ", \"service_queries\": " << r.service_queries
        << ", \"baseline_queries\": " << r.baseline_queries
        << ", \"pools_carried\": " << r.pools_carried
        << ", \"partition_carried\": {\"hits\": " << r.partition_hits
        << ", \"misses\": " << r.partition_misses << "}"
        << ", \"encode_carried\": {\"hits\": " << r.encode_hits
        << ", \"misses\": " << r.encode_misses << ", \"rows_appended\": "
        << r.encode_rows_appended << "}"
        << ", \"hardware_concurrency\": " << r.hardware_concurrency << "}"
        << (i + 1 < study.crawl.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  const SteadyResult& s = study.steady;
  out << "  \"steady_state\": {\"ticks\": " << s.ticks
      << ", \"passes\": " << kSteadyPasses
      << ", \"pools_total\": " << s.pools_total
      << ", \"pools_carried\": " << s.pools_carried
      << ", \"partition_hits\": " << s.partition_hits
      << ", \"encode_hits\": " << s.encode_hits
      << ", \"service_ms_total\": " << JsonNum(s.service_ms_total)
      << ", \"carried_ms_total\": " << JsonNum(s.carried_ms_total)
      << ", \"baseline_ms_total\": " << JsonNum(s.baseline_ms_total)
      << ", \"service_assessments_per_sec\": " << JsonNum(s.service_per_sec)
      << ", \"carried_assessments_per_sec\": " << JsonNum(s.carried_per_sec)
      << ", \"baseline_assessments_per_sec\": " << JsonNum(s.baseline_per_sec)
      << ", \"speedup\": " << JsonNum(s.speedup)
      << ", \"speedup_vs_carried\": " << JsonNum(s.speedup_vs_carried)
      << ", \"hardware_concurrency\": " << s.hardware_concurrency << "},\n";
  const RiskService::Stats& fs = study.full_arm_stats;
  out << "  \"carry_stats\": {\"partition_hits\": " << fs.partition_hits
      << ", \"partition_misses\": " << fs.partition_misses
      << ", \"encode_hits\": " << fs.encode_hits
      << ", \"encode_misses\": " << fs.encode_misses
      << ", \"encode_rows_appended\": " << fs.encode_rows_appended << "},\n";
  out << "  \"assess_now_bitwise_equal\": "
      << (study.assess_now_bitwise_equal ? "true" : "false") << ",\n";
  out << "  \"carried_vs_cold_bitwise_equal\": "
      << (study.carried_vs_cold_bitwise_equal ? "true" : "false") << ",\n";
  out << "  \"multi_owner\": [\n";
  for (size_t i = 0; i < multi.size(); ++i) {
    const ThreadPoint& p = multi[i];
    out << "    {\"threads\": " << p.threads << ", \"owners\": " << p.owners
        << ", \"ms\": " << JsonNum(p.ms) << ", \"events_per_sec\": "
        << JsonNum(p.events_per_sec) << ", \"speedup\": "
        << JsonNum(p.speedup) << ", \"hardware_concurrency\": "
        << p.hardware_concurrency;
    if (p.hardware_concurrency <= 1 && p.threads > 1) {
      out << ", \"skipped\": \"single-core host\"";
    }
    out << "}" << (i + 1 < multi.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"summary\": {\n";
  out << "    \"steady_state_speedup\": " << JsonNum(s.speedup) << ",\n";
  out << "    \"steady_state_speedup_vs_carried\": "
      << JsonNum(s.speedup_vs_carried) << ",\n";
  out << "    \"steady_state_service_assessments_per_sec\": "
      << JsonNum(s.service_per_sec) << ",\n";
  out << "    \"assess_now_bitwise_equal\": "
      << (study.assess_now_bitwise_equal ? "true" : "false") << ",\n";
  out << "    \"carried_vs_cold_bitwise_equal\": "
      << (study.carried_vs_cold_bitwise_equal ? "true" : "false") << "\n";
  out << "  }\n";
  out << "}\n";
  return out.good();
}

}  // namespace
}  // namespace sight

int main(int argc, char** argv) {
  size_t num_strangers = 1000;
  size_t batch_size = 200;
  size_t steady_ticks = 32;
  std::string out_path = "BENCH_serving.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--strangers=", 12) == 0) {
      num_strangers =
          static_cast<size_t>(std::strtoull(argv[i] + 12, nullptr, 10));
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      batch_size =
          static_cast<size_t>(std::strtoull(argv[i] + 8, nullptr, 10));
    } else if (std::strncmp(argv[i], "--steady=", 9) == 0) {
      steady_ticks =
          static_cast<size_t>(std::strtoull(argv[i] + 9, nullptr, 10));
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--strangers=N] [--batch=N] [--steady=N] "
                   "[--out=FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  // Thread counts for the multi-owner points; SIGHT_BENCH_THREADS
  // (comma-separated, e.g. "2,4,8") overrides the default {2, 4}. A
  // 1-thread point is always measured first as the scaling reference.
  std::vector<size_t> thread_counts = {1, 2, 4};
  if (const char* env = std::getenv("SIGHT_BENCH_THREADS")) {
    std::vector<size_t> parsed = {1};
    for (const char* p = env; *p != '\0';) {
      char* end = nullptr;
      unsigned long long v = std::strtoull(p, &end, 10);
      if (end == p) break;
      if (v > 1) parsed.push_back(static_cast<size_t>(v));
      p = *end == ',' ? end + 1 : end;
    }
    if (parsed.size() > 1) thread_counts = std::move(parsed);
  }

  sight::TraceStudy study =
      sight::RunTraceStudy(num_strangers, batch_size, steady_ticks);
  std::vector<sight::ThreadPoint> multi =
      sight::RunMultiOwnerStudy(thread_counts);
  if (!sight::WriteJson(out_path, study, multi)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
