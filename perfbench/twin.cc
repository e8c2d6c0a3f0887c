#include "twin.h"

#include <set>
#include <utility>

#include "core/benefit.h"
#include "core/pool_builder.h"
#include "graph/algorithms.h"
#include "util/status.h"

namespace perfbench {
namespace {

using sight::PoolLearner;

// RiskService's recording wrapper: every answer joins the owner's label
// store, so the same stranger is never asked twice across ticks.
class RecordingOracle : public sight::LabelOracle {
 public:
  RecordingOracle(sight::LabelOracle* inner, PoolLearner::KnownLabels* store)
      : inner_(inner), store_(store) {}

  sight::RiskLabel QueryLabel(UserId stranger, double similarity,
                              double benefit) override {
    sight::RiskLabel label = inner_->QueryLabel(stranger, similarity, benefit);
    (*store_)[stranger] = sight::RiskLabelValue(label);
    return label;
  }

 private:
  sight::LabelOracle* inner_;
  PoolLearner::KnownLabels* store_;
};

// Times consecutive stages of one assessment into a Trace.
class Spans {
 public:
  explicit Spans(Trace* trace) : trace_(trace), wall_(Clock::now()) {}

  void Start() { start_ = Clock::now(); }
  void Stop(Span span) {
    double ms = MsSince(start_);
    trace_->ms[static_cast<size_t>(span)].push_back(ms);
    sum_ms_ += ms;
  }
  void Finish() {
    trace_->assess_wall_ms.push_back(MsSince(wall_));
    trace_->last_span_sum_ms = sum_ms_;
    ++trace_->assessments;
  }

 private:
  Trace* trace_;
  Clock::time_point wall_;
  Clock::time_point start_;
  double sum_ms_ = 0.0;
};

void CountRounds(const sight::RiskReport& report, Trace* trace) {
  std::set<size_t> rebuilt;
  for (const sight::RoundRecord& round : report.assessment.rounds) {
    ++trace->rounds;
    trace->solve_iterations += round.solve_iterations;
    if (round.solver == "conjugate-gradient") ++trace->cg_rounds;
    rebuilt.insert(round.pool_index);
  }
  for (size_t pool : rebuilt) {
    size_t n = report.pool_sizes[pool];
    trace->ps_pairs += n * (n - 1) / 2;
  }
  trace->pools_rebuilt += rebuilt.size();
  trace->pools_carried += report.assessment.pools_carried;
  trace->pools_total += report.assessment.pools_total;
}

void FillShape(const sight::PoolSet& pools, sight::RiskReport* report) {
  report->num_strangers = pools.TotalStrangers();
  report->num_pools = pools.pools.size();
  report->pool_sizes.reserve(pools.pools.size());
  for (const sight::StrangerPool& pool : pools.pools) {
    report->pool_sizes.push_back(pool.members.size());
  }
}

}  // namespace

const char* SpanName(Span span) {
  switch (span) {
    case Span::kInvalidate:
      return "core.invalidate";
    case Span::kTwoHop:
      return "graph.two_hop";
    case Span::kPoolBuild:
      return "core.pool_build";
    case Span::kBenefit:
      return "core.benefit";
    case Span::kEncode:
      return "graph.encode";
    case Span::kLearnerSetup:
      return "core.learner_setup";
    case Span::kRounds:
      return "core.rounds";
    case Span::kHarvest:
      return "core.harvest";
    case Span::kCount:
      break;
  }
  return "unknown";
}

TwinEngine::TwinEngine(sight::RiskEngineConfig config)
    : config_(std::move(config)),
      classifier_(std::make_unique<sight::HarmonicFunctionClassifier>(
          sight::HarmonicFunctionClassifier::Create(config_.harmonic)
              .value())) {}

Twin::Twin(const TwinEngine* engine, const World* world, UserId owner,
           std::unique_ptr<sight::sim::OwnerModel> oracle, uint64_t rng_seed)
    : engine_(engine),
      world_(world),
      owner_(owner),
      oracle_(std::move(oracle)),
      rng_(rng_seed) {}

void Twin::AddStrangers(const std::vector<UserId>& discovered) {
  for (UserId s : discovered) {
    if (discovered_.insert(s).second) strangers_.push_back(s);
  }
}

sight::Result<sight::RiskReport> Twin::Assess(Trace* trace) {
  const sight::RiskEngineConfig& config = engine_->config();
  Spans spans(trace);
  RecordingOracle recording(oracle_.get(), &known_labels_);
  const PoolLearner::KnownLabels* prior =
      last_scores_.empty() ? nullptr : &last_scores_;
  sight::RiskReport report;

  spans.Start();
  carry_.InvalidateOnUpstreamChange(world_->graph, world_->profiles,
                                    world_->visibility);
  spans.Stop(Span::kInvalidate);

  spans.Start();
  SIGHT_ASSIGN_OR_RETURN(sight::PoolBuilder builder,
                         sight::PoolBuilder::Create(config.pools));
  size_t known = carry_.partition.num_strangers();
  size_t total = strangers_.size();
  size_t misses_before = carry_.partition.stats().misses;
  SIGHT_ASSIGN_OR_RETURN(
      sight::PoolSet pools,
      builder.BuildForStrangersCached(world_->graph, world_->profiles, owner_,
                                      strangers_, &carry_.partition));
  spans.Stop(Span::kPoolBuild);
  report.carry.partition_reused =
      carry_.partition.stats().misses == misses_before;
  report.carry.partition_new_strangers =
      report.carry.partition_reused ? total - known : total;

  spans.Start();
  SIGHT_ASSIGN_OR_RETURN(sight::BenefitModel benefit,
                         sight::BenefitModel::Create(config.theta));
  std::vector<double> benefits =
      benefit.ComputeBatch(world_->visibility, pools.strangers);
  spans.Stop(Span::kBenefit);

  spans.Start();
  sight::StrangerEncodeCache::RefreshResult refreshed =
      carry_.encode.Refresh(world_->profiles, pools.strangers);
  spans.Stop(Span::kEncode);
  report.carry.encode_reused = refreshed.reused;
  report.carry.encode_rows_appended = refreshed.rows_appended;

  spans.Start();
  SIGHT_ASSIGN_OR_RETURN(
      sight::ActiveLearner learner,
      sight::ActiveLearner::Create(
          pools, world_->profiles, std::move(benefits), config.learner,
          engine_->classifier(), engine_->sampler(), &known_labels_, prior,
          &carry_.learners, &carry_.encode));
  spans.Stop(Span::kLearnerSetup);

  spans.Start();
  SIGHT_ASSIGN_OR_RETURN(report.assessment, learner.Run(&recording, &rng_));
  spans.Stop(Span::kRounds);

  spans.Start();
  learner.HarvestInto(&carry_.learners);
  spans.Stop(Span::kHarvest);

  FillShape(pools, &report);
  last_scores_.clear();
  for (const sight::StrangerAssessment& sa : report.assessment.strangers) {
    last_scores_[sa.stranger] = sa.predicted_score;
  }
  spans.Finish();

  CountRounds(report, trace);
  ++trace->warm_assessments;
  if (report.carry.partition_reused) ++trace->partition_hits;
  trace->squeezed_strangers += report.carry.partition_new_strangers;
  if (refreshed.reused) ++trace->encode_hits;
  trace->encode_rows += refreshed.rows_appended;
  return report;
}

sight::Result<sight::RiskReport> Twin::AssessCold(
    const TwinEngine& engine, const World& world, UserId owner,
    sight::LabelOracle* oracle, sight::Rng* rng, Trace* trace) {
  const sight::RiskEngineConfig& config = engine.config();
  Spans spans(trace);
  sight::RiskReport report;

  spans.Start();
  SIGHT_ASSIGN_OR_RETURN(std::vector<UserId> strangers,
                         sight::TwoHopStrangers(world.graph, owner));
  spans.Stop(Span::kTwoHop);

  spans.Start();
  SIGHT_ASSIGN_OR_RETURN(sight::PoolBuilder builder,
                         sight::PoolBuilder::Create(config.pools));
  size_t total = strangers.size();
  SIGHT_ASSIGN_OR_RETURN(sight::PoolSet pools,
                         builder.BuildForStrangers(world.graph, world.profiles,
                                                   owner, std::move(strangers)));
  spans.Stop(Span::kPoolBuild);

  spans.Start();
  SIGHT_ASSIGN_OR_RETURN(sight::BenefitModel benefit,
                         sight::BenefitModel::Create(config.theta));
  std::vector<double> benefits =
      benefit.ComputeBatch(world.visibility, pools.strangers);
  spans.Stop(Span::kBenefit);

  spans.Start();
  SIGHT_ASSIGN_OR_RETURN(
      sight::ActiveLearner learner,
      sight::ActiveLearner::Create(pools, world.profiles, std::move(benefits),
                                   config.learner, engine.classifier(),
                                   engine.sampler()));
  spans.Stop(Span::kLearnerSetup);

  spans.Start();
  SIGHT_ASSIGN_OR_RETURN(report.assessment, learner.Run(oracle, rng));
  spans.Stop(Span::kRounds);

  FillShape(pools, &report);
  spans.Finish();

  CountRounds(report, trace);
  trace->squeezed_strangers += total;
  return report;
}

}  // namespace perfbench
