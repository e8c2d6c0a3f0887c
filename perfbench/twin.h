// The traced twin: a stage-by-stage replica of one owner's assessment,
// built from the library's public stage entry points in the order
// RiskEngine::AssessImpl calls them, with each call wrapped in a span.
//
// A warm Twin shadows one RiskService owner in lockstep: it sees the
// same discovered strangers, keeps its own recorded labels, last
// scores, sampling Rng and AssessCarry, and so must
// produce a report bitwise-equal to the service's snapshot for the same
// event. AssessCold replays RiskService::AssessNow from TwoHopStrangers
// with no carry. The spans give the per-layer times, the reports give
// the per-layer counts.

#ifndef PERFBENCH_TWIN_H_
#define PERFBENCH_TWIN_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/active_learner.h"
#include "core/risk_engine.h"
#include "harness.h"
#include "learning/harmonic.h"
#include "learning/sampling.h"
#include "util/random.h"

namespace perfbench {

enum class Span : size_t {
  kInvalidate,    // AssessCarry::InvalidateOnUpstreamChange
  kTwoHop,        // TwoHopStrangers (cold only)
  kPoolBuild,     // PoolBuilder::BuildForStrangers[Cached]
  kBenefit,       // BenefitModel::ComputeBatch
  kEncode,        // StrangerEncodeCache::Refresh (warm only)
  kLearnerSetup,  // ActiveLearner::Create
  kRounds,        // ActiveLearner::Run
  kHarvest,       // ActiveLearner::HarvestInto (warm only)
  kCount,
};

/// Metric name stem of each span ("<stem>_ms", "<stem>_total_ms").
const char* SpanName(Span span);

/// Spans and stage counts of every traced assessment of a run.
struct Trace {
  std::array<std::vector<double>, static_cast<size_t>(Span::kCount)> ms;
  /// Whole twin assessment, glue code included (span coverage base).
  std::vector<double> assess_wall_ms;
  size_t assessments = 0;
  size_t rounds = 0;
  size_t solve_iterations = 0;
  size_t cg_rounds = 0;
  size_t ps_pairs = 0;
  size_t pools_rebuilt = 0;
  size_t pools_carried = 0;
  size_t pools_total = 0;
  /// Warm (carried) assessments: the base of the two hit ratios.
  size_t warm_assessments = 0;
  size_t partition_hits = 0;
  size_t squeezed_strangers = 0;
  size_t encode_hits = 0;
  size_t encode_rows = 0;

  /// Span sum of the most recent assessment.
  double last_span_sum_ms = 0.0;
};

/// Shared, immutable-per-run pieces a twin needs besides its owner state.
class TwinEngine {
 public:
  explicit TwinEngine(sight::RiskEngineConfig config);

  const sight::RiskEngineConfig& config() const { return config_; }
  const sight::GraphClassifier* classifier() const { return classifier_.get(); }
  const sight::Sampler* sampler() const { return &sampler_; }

 private:
  sight::RiskEngineConfig config_;
  std::unique_ptr<sight::HarmonicFunctionClassifier> classifier_;
  sight::RandomSampler sampler_;
};

class Twin {
 public:
  /// Mirrors an owner registered with `rng_seed` whose background
  /// oracle answers like `oracle` (the twin's own instance).
  Twin(const TwinEngine* engine, const World* world, UserId owner,
       std::unique_ptr<sight::sim::OwnerModel> oracle, uint64_t rng_seed);

  /// An OwnerEvent's discoveries, applied as RiskService applies them.
  void AddStrangers(const std::vector<UserId>& discovered);

  /// One warm assessment (the service's background drain), traced into
  /// `trace`.
  [[nodiscard]] sight::Result<sight::RiskReport> Assess(Trace* trace);

  /// One cold assessment from TwoHopStrangers with no carry and no known
  /// labels (RiskService::AssessNow on a fully discovered owner).
  [[nodiscard]] static sight::Result<sight::RiskReport> AssessCold(
      const TwinEngine& engine, const World& world, UserId owner,
      sight::LabelOracle* oracle, sight::Rng* rng, Trace* trace);

 private:
  const TwinEngine* engine_;
  const World* world_;
  UserId owner_;
  std::unique_ptr<sight::sim::OwnerModel> oracle_;
  sight::Rng rng_;
  std::vector<UserId> strangers_;
  std::unordered_set<UserId> discovered_;
  sight::PoolLearner::KnownLabels known_labels_;
  sight::PoolLearner::KnownLabels last_scores_;
  sight::AssessCarry carry_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TWIN_H_
