// Shared pieces of the end-to-end benchmark: seeds, clocks, quantiles,
// process memory, the spin probe, the reference task, the generated owner
// "world", report comparison, and the result line. Everything here sits
// outside the library and reaches it only through its public headers.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/risk_engine.h"
#include "graph/profile.h"
#include "graph/social_graph.h"
#include "graph/visibility.h"
#include "sim/owner_model.h"

namespace perfbench {

using sight::UserId;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// Independent seed streams, one per random input of a workload.
enum class Stream : uint64_t {
  kGenerator = 1,
  kOracleNoise,
  kCrawler,
  kSampling,
  kColdRng,
  /// Worlds of the set-ups that are timed and discarded.
  kSetUp,
};

/// SplitMix64 of (seed, stream, index): every generator, crawler, oracle
/// and sampling seed of a run derives from the one --seed argument.
uint64_t DeriveSeed(uint64_t seed, Stream stream, uint64_t index = 0);

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}
inline double SecondsSince(Clock::time_point start) {
  return MsSince(start) / 1000.0;
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Sum(const std::vector<double>& values);

/// Minor page faults of the process so far.
double MinorFaults();
/// Returns freed heap memory to the system, so resident-size readings
/// count live data rather than what the allocator kept.
void ReleaseFreedMemory();
/// VmRSS after ReleaseFreedMemory, in MB.
double TrimmedRssMb();
/// VmHWM (peak resident size), in MB.
double PeakRssMb();

/// Cores actually delivered to this process: the spin throughput of
/// `threads` tasks on a sight::ThreadPool over that of one task, each
/// measured over the same short window.
double EffectiveParallelism(size_t threads);

/// Wall time, in ms, of one fixed task of benchmark code that calls no
/// library code: bucketing, hashing and sorting a fixed pseudo-random
/// stream. On a shared virtual machine the same code ran up to about 1.8
/// times slower for seconds to tens of minutes at a time, with no steal
/// time reported; this task's time, taken next to a measurement, says how
/// fast the core was while the measurement ran.
double ReferenceTaskMs();

/// The reference task's time on the machine every reported time is scaled
/// to.
constexpr double kNominalReferenceMs = 10.0;
/// `time` measured while the reference task took `reference_ms`, scaled
/// to the nominal machine: what a code change moves, and a change of the
/// machine's speed mostly does not.
inline double ToNominal(double time, double reference_ms) {
  return time * kNominalReferenceMs / reference_ms;
}

/// Several generated ego networks merged into one id space, so one
/// RiskService can hold all their owners (the generator numbers every
/// network from user 0).
struct World {
  sight::SocialGraph graph;
  sight::ProfileTable profiles;
  sight::VisibilityTable visibility;
  std::vector<UserId> owners;
  /// Per owner, its two-hop strangers in the generator's order.
  std::vector<std::vector<UserId>> strangers;
  /// Per owner, the simulated owner's risk attitude (oracle behaviour);
  /// fixed per owner index except for its per-stranger noise seed.
  std::vector<sight::sim::OwnerAttitude> attitudes;

  World();
};

std::unique_ptr<World> MakeWorld(size_t num_owners, size_t num_strangers,
                                 uint64_t seed);

/// One oracle per owner, answering as that owner's attitude.
std::unique_ptr<sight::sim::OwnerModel> MakeOracle(const World& world,
                                                   size_t owner_index);

/// The engine every workload serves with: paper pool/learner defaults,
/// the paper's attribute weights, a serial engine, and optional top-k
/// sparsification of the classifier graph.
sight::RiskEngineConfig EngineConfig(size_t sparsify_top_k);

/// Field-by-field equality of the assessments with exact double
/// compares: pool shapes, every stranger row, every round record, query
/// and pool-outcome counts. Carry telemetry is not compared.
bool AssessmentsBitwiseEqual(const sight::RiskReport& a,
                             const sight::RiskReport& b);
/// AssessmentsBitwiseEqual and equal carry telemetry.
bool ReportsBitwiseEqual(const sight::RiskReport& a,
                         const sight::RiskReport& b);

/// Held-out agreement: strangers the owner did not label whose predicted
/// label equals the oracle's ground truth. Adds to *matches / *total.
void CountHeldout(const sight::RiskReport& report,
                  const sight::sim::OwnerModel& oracle, size_t* matches,
                  size_t* total);

/// Named metrics of one run, printed as the result line.
class RunResult {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Records one attempted operation; `ok` false counts it as failed.
  void Op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  size_t failed() const { return failed_; }
  /// The one-line JSON object: correct, attempted, failed, metrics.
  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

/// Free-form run context (seed, threads, parallelism, workload-specific
/// figures), printed as one JSON line before the result line.
class Context {
 public:
  void Add(const std::string& name, double value);
  void Add(const std::string& name, const std::string& value);
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
