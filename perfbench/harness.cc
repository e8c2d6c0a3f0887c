#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <sstream>
#include <sys/resource.h>
#include <unordered_map>

#include "sim/facebook_generator.h"
#include "sim/schema.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {

uint64_t DeriveSeed(uint64_t seed, Stream stream, uint64_t index) {
  uint64_t z = seed ^ (static_cast<uint64_t>(stream) * 0x9e3779b97f4a7c15ULL) ^
               (index * 0xd1b54a32d192ed03ULL);
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

namespace {

double StatusFieldMb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == field) {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_minflt);
}

void ReleaseFreedMemory() { malloc_trim(0); }

double TrimmedRssMb() {
  ReleaseFreedMemory();
  return StatusFieldMb("VmRSS:");
}

double PeakRssMb() { return StatusFieldMb("VmHWM:"); }

namespace {

// Spins for `window_ms`, returning how many fixed-size chunks of integer
// work it completed.
uint64_t Spin(double window_ms) {
  auto start = Clock::now();
  uint64_t chunks = 0;
  uint64_t x = 88172645463325252ULL;
  while (MsSince(start) < window_ms) {
    for (int i = 0; i < 4096; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    ++chunks;
  }
  // Keep the work observable so it is not folded away.
  if (x == 0) std::fputc(' ', stderr);
  return chunks;
}

uint64_t SpinOnPool(sight::ThreadPool* pool, size_t tasks, double window_ms) {
  std::atomic<uint64_t> total{0};
  for (size_t t = 0; t < tasks; ++t) {
    pool->Submit([&total, window_ms] { total += Spin(window_ms); });
  }
  pool->Wait();
  return total.load();
}

}  // namespace

double EffectiveParallelism(size_t threads) {
  constexpr double kWindowMs = 40.0;
  sight::ThreadPool pool(threads);
  uint64_t one = SpinOnPool(&pool, 1, kWindowMs);
  uint64_t all = SpinOnPool(&pool, threads, kWindowMs);
  return one == 0 ? 0.0
                  : static_cast<double>(all) / static_cast<double>(one);
}

double ReferenceTaskMs() {
  constexpr size_t kItems = 150000;
  constexpr size_t kBuckets = 20000;
  constexpr uint64_t kKeys = 50000;
  auto start = Clock::now();
  std::vector<std::vector<uint32_t>> buckets(kBuckets);
  std::unordered_map<uint64_t, uint32_t> counts;
  uint64_t x = 88172645463325252ULL;
  for (size_t i = 0; i < kItems; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    buckets[x % kBuckets].push_back(static_cast<uint32_t>(x >> 40));
    ++counts[x % kKeys];
  }
  uint64_t check = counts.size();
  for (std::vector<uint32_t>& bucket : buckets) {
    std::sort(bucket.begin(), bucket.end());
    if (!bucket.empty()) check += bucket.front();
  }
  // Keep the work observable so it is not folded away.
  if (check == 0) std::fputc(' ', stderr);
  return MsSince(start);
}

namespace {
constexpr uint64_t kAttitudeSeed = 2012;
}  // namespace

World::World() : profiles(sight::sim::FacebookSchema()) {}

std::unique_ptr<World> MakeWorld(size_t num_owners, size_t num_strangers,
                                 uint64_t seed) {
  auto world = std::make_unique<World>();
  sight::sim::GeneratorConfig config;
  config.num_strangers = num_strangers;
  auto generator = sight::sim::FacebookGenerator::Create(config).value();
  // The owners themselves are fixed members of the workload: the paper's
  // three most common locales, mostly male, each with one attitude drawn
  // once from the paper's population model. The seed varies everything
  // random around them: their networks, the oracle's per-stranger noise,
  // the crawl order and the sampling.
  using sight::sim::Gender;
  using sight::sim::Locale;
  const sight::sim::OwnerSpec kSpecs[] = {{Gender::kMale, Locale::kTR},
                                          {Gender::kFemale, Locale::kTR},
                                          {Gender::kMale, Locale::kUS},
                                          {Gender::kMale, Locale::kPL}};
  constexpr size_t kNumSpecs = sizeof(kSpecs) / sizeof(kSpecs[0]);
  for (size_t i = 0; i < num_owners; ++i) {
    const sight::sim::OwnerSpec& spec = kSpecs[i % kNumSpecs];
    sight::Rng rng(DeriveSeed(seed, Stream::kGenerator, i));
    sight::sim::OwnerDataset ds = generator.Generate(spec, &rng).value();

    // Pad with isolated users so owner i gets an id congruent to i: the
    // service shards by owner id modulo the shard count, and one owner
    // per shard is the intended layout.
    while (world->graph.NumUsers() % num_owners != i) world->graph.AddUser();
    const UserId offset = world->graph.AddUsers(ds.graph.NumUsers());
    for (UserId u = 0; u < ds.graph.NumUsers(); ++u) {
      for (UserId v : ds.graph.Neighbors(u)) {
        if (u < v) SIGHT_CHECK(world->graph.AddEdge(u + offset, v + offset).ok());
      }
      if (ds.profiles.Has(u)) {
        SIGHT_CHECK(world->profiles.Set(u + offset, ds.profiles.Get(u)).ok());
      }
      world->visibility.SetMask(u + offset, ds.visibility.Mask(u));
    }
    world->owners.push_back(ds.owner + offset);
    std::vector<UserId> strangers = ds.strangers;
    for (UserId& s : strangers) s += offset;
    world->strangers.push_back(std::move(strangers));
    sight::Rng attitude_rng(kAttitudeSeed + i);
    sight::sim::OwnerAttitude attitude =
        sight::sim::SampleOwnerAttitude(&attitude_rng);
    attitude.noise_seed = DeriveSeed(seed, Stream::kOracleNoise, i);
    world->attitudes.push_back(attitude);
  }
  return world;
}

std::unique_ptr<sight::sim::OwnerModel> MakeOracle(const World& world,
                                                   size_t owner_index) {
  return std::make_unique<sight::sim::OwnerModel>(
      sight::sim::OwnerModel::Create(world.attitudes[owner_index],
                                     &world.profiles, &world.visibility)
          .value());
}

sight::RiskEngineConfig EngineConfig(size_t sparsify_top_k) {
  sight::RiskEngineConfig config;
  config.pools.attribute_weights = sight::sim::PaperAttributeWeights();
  // One engine serves every owner, so it uses the paper's average
  // confidence and Table III theta rather than any one owner's.
  config.learner.confidence = 78.39;
  config.learner.sparsify_top_k = sparsify_top_k;
  config.num_threads = 1;
  return config;
}

bool ReportsBitwiseEqual(const sight::RiskReport& a,
                         const sight::RiskReport& b) {
  return a.carry.partition_reused == b.carry.partition_reused &&
         a.carry.partition_new_strangers == b.carry.partition_new_strangers &&
         a.carry.encode_reused == b.carry.encode_reused &&
         a.carry.encode_rows_appended == b.carry.encode_rows_appended &&
         AssessmentsBitwiseEqual(a, b);
}

bool AssessmentsBitwiseEqual(const sight::RiskReport& a,
                             const sight::RiskReport& b) {
  const sight::AssessmentResult& x = a.assessment;
  const sight::AssessmentResult& y = b.assessment;
  if (a.num_strangers != b.num_strangers || a.num_pools != b.num_pools ||
      a.pool_sizes != b.pool_sizes || x.total_queries != y.total_queries || x.pools_total != y.pools_total ||
      x.pools_converged != y.pools_converged ||
      x.pools_exhausted != y.pools_exhausted ||
      x.pools_round_limit != y.pools_round_limit ||
      x.pools_carried != y.pools_carried || x.mean_rounds != y.mean_rounds ||
      x.validation_matches != y.validation_matches ||
      x.validation_total != y.validation_total ||
      x.rounds.size() != y.rounds.size() ||
      x.strangers.size() != y.strangers.size()) {
    return false;
  }
  for (size_t i = 0; i < x.rounds.size(); ++i) {
    const sight::RoundRecord& r = x.rounds[i];
    const sight::RoundRecord& s = y.rounds[i];
    if (r.pool_index != s.pool_index || r.round != s.round ||
        r.newly_labeled != s.newly_labeled || r.rmse_valid != s.rmse_valid ||
        r.rmse != s.rmse || r.unstabilized != s.unstabilized ||
        r.stabilized != s.stabilized || r.solver != s.solver ||
        r.solve_iterations != s.solve_iterations) {
      return false;
    }
  }
  for (size_t i = 0; i < x.strangers.size(); ++i) {
    const sight::StrangerAssessment& p = x.strangers[i];
    const sight::StrangerAssessment& q = y.strangers[i];
    if (p.stranger != q.stranger ||
        p.network_similarity != q.network_similarity ||
        p.benefit != q.benefit || p.pool_index != q.pool_index ||
        p.predicted_score != q.predicted_score ||
        p.predicted_label != q.predicted_label ||
        p.owner_labeled != q.owner_labeled) {
      return false;
    }
  }
  return true;
}

void CountHeldout(const sight::RiskReport& report,
                  const sight::sim::OwnerModel& oracle, size_t* matches,
                  size_t* total) {
  for (const sight::StrangerAssessment& sa : report.assessment.strangers) {
    if (sa.owner_labeled) continue;
    ++*total;
    if (oracle.TrueLabel(sa.stranger, sa.network_similarity, sa.benefit) ==
        sa.predicted_label) {
      ++*matches;
    }
  }
}

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void RunResult::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::string RunResult::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i == 0 ? "" : ", ") << "\"" << m.name
        << "\": {\"value\": " << Number(m.value) << ", \"unit\": \"" << m.unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

void Context::Add(const std::string& name, double value) {
  fields_.emplace_back(name, Number(value));
}

void Context::Add(const std::string& name, const std::string& value) {
  fields_.emplace_back(name, "\"" + value + "\"");
}

std::string Context::Json() const {
  std::ostringstream out;
  out << "{\"context\": {";
  for (size_t i = 0; i < fields_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << fields_[i].first
        << "\": " << fields_[i].second;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
