#include "core/active_learner.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <utility>

#include "similarity/ps_kernels.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace sight {

Status ActiveLearnerConfig::Validate() const {
  if (labels_per_round == 0) {
    return Status::InvalidArgument("labels_per_round must be positive");
  }
  if (!(rmse_threshold > 0.0)) {
    return Status::InvalidArgument("rmse_threshold must be positive");
  }
  if (!(confidence >= 0.0 && confidence <= 100.0)) {
    return Status::InvalidArgument(
        StrFormat("confidence %f not in [0, 100]", confidence));
  }
  if (stable_rounds == 0) {
    return Status::InvalidArgument("stable_rounds must be positive");
  }
  if (max_rounds == 0) {
    return Status::InvalidArgument("max_rounds must be positive");
  }
  return Status::OK();
}

size_t LearnerCarry::size() const { return retained_.size(); }

void LearnerCarry::Clear() { retained_.clear(); }

bool PoolLearner::CanResume(const StrangerPool& pool,
                            const KnownLabels* known_labels) const {
  if (!finished_ || outcome_ == PoolOutcome::kRoundLimit) return false;
  if (members_ != pool.members) return false;
  if (known_labels == nullptr) return true;
  // Every carried-over label covering a member must already be one of
  // this learner's labels, bit-identical — a label this learner has not
  // incorporated (e.g. imported from another process) forces a rebuild
  // so the seeding path picks it up.
  std::vector<double> label_of(members_.size());
  for (size_t k = 0; k < labeled_.size(); ++k) {
    label_of[labeled_.indices[k]] = labeled_.values[k];
  }
  for (size_t i = 0; i < members_.size(); ++i) {
    auto it = known_labels->find(members_[i]);
    if (it == known_labels->end()) continue;
    if (!is_labeled_[i] || label_of[i] != it->second) return false;
  }
  return true;
}

void PoolLearner::MarkCarried() {
  seeded_count_ = labeled_.size();
  validation_matches_ = 0;
  validation_total_ = 0;
  rounds_run_ = 0;
}

Result<PoolLearner> PoolLearner::Create(
    const StrangerPool& pool, PoolGraph graph,
    std::vector<double> display_similarity,
    std::vector<double> display_benefit, const ActiveLearnerConfig& config,
    const GraphClassifier* classifier, const Sampler* sampler,
    const KnownLabels* known_labels, const KnownLabels* prior_scores) {
  SIGHT_RETURN_IF_ERROR(config.Validate());
  if (pool.members.empty()) {
    return Status::InvalidArgument("pool has no members");
  }
  if (graph.size() != pool.members.size()) {
    return Status::InvalidArgument(
        StrFormat("graph size %zu != pool size %zu", graph.size(),
                  pool.members.size()));
  }
  if (display_similarity.size() != pool.members.size() ||
      display_benefit.size() != pool.members.size()) {
    return Status::InvalidArgument(
        "display similarity/benefit must be parallel to pool members");
  }
  if (classifier == nullptr || sampler == nullptr) {
    return Status::InvalidArgument("classifier and sampler are required");
  }
  PoolLearner learner(pool, std::move(graph),
                      std::move(display_similarity),
                      std::move(display_benefit), config, classifier,
                      sampler);
  if (known_labels != nullptr) {
    for (size_t i = 0; i < learner.members_.size(); ++i) {
      auto it = known_labels->find(learner.members_[i]);
      if (it == known_labels->end()) continue;
      if (!(it->second >= kRiskLabelMin && it->second <= kRiskLabelMax)) {
        return Status::OutOfRange(
            StrFormat("known label %f for stranger %u outside [%d, %d]",
                      it->second, learner.members_[i], kRiskLabelMin,
                      kRiskLabelMax));
      }
      learner.labeled_.Add(i, it->second);
      learner.is_labeled_[i] = true;
      ++learner.seeded_count_;
    }
  }
  if (prior_scores != nullptr) {
    // Previous-tick predicted scores seed the first solve's starting
    // vector: found members keep their old score, the rest start at the
    // mean of the found scores (the same role the label mean plays on a
    // cold start). Only kept when at least one member carries over. Each
    // member is looked up once; the sum runs in member order.
    std::vector<double> seed(learner.members_.size());
    std::vector<size_t> missing;
    double sum = 0.0;
    for (size_t i = 0; i < learner.members_.size(); ++i) {
      auto it = prior_scores->find(learner.members_[i]);
      if (it == prior_scores->end()) {
        missing.push_back(i);
        continue;
      }
      seed[i] = it->second;
      sum += it->second;
    }
    size_t found = seed.size() - missing.size();
    if (found > 0) {
      double mean = sum / static_cast<double>(found);
      for (size_t i : missing) seed[i] = mean;
      learner.seed_f_ = std::move(seed);
    }
  }
  return learner;
}

PoolLearner::PoolLearner(const StrangerPool& pool, PoolGraph graph,
                         std::vector<double> display_similarity,
                         std::vector<double> display_benefit,
                         const ActiveLearnerConfig& config,
                         const GraphClassifier* classifier,
                         const Sampler* sampler)
    : members_(pool.members), graph_(std::move(graph)),
      display_similarity_(std::move(display_similarity)),
      display_benefit_(std::move(display_benefit)), config_(config),
      classifier_(classifier), sampler_(sampler),
      is_labeled_(pool.members.size(), false),
      predictions_(pool.members.size(), 0.0) {}

Status PoolLearner::Repredict() {
  // One step of the solve chain: the state is created on the first call
  // (seeded with the cross-tick vector, if any) and carried across every
  // later one, so each round solves only its newest labeled set.
  if (!state_created_) {
    solve_state_ = classifier_->MakeState();
    state_created_ = true;
    if (solve_state_ != nullptr && !seed_f_.empty()) {
      solve_state_->SeedSolution(std::move(seed_f_));
    }
  }
  SIGHT_ASSIGN_OR_RETURN(
      predictions_, classifier_->PredictWithState(graph_, labeled_,
                                                  solve_state_.get(),
                                                  &last_solve_));
  has_predictions_ = true;
  return Status::OK();
}

Result<RoundRecord> PoolLearner::RunRound(LabelOracle* oracle, Rng* rng) {
  if (oracle == nullptr || rng == nullptr) {
    return Status::InvalidArgument("oracle and rng are required");
  }
  if (finished_) {
    return Status::FailedPrecondition("pool learner already finished");
  }

  RoundRecord record;
  record.round = ++rounds_run_;

  // Labels seeded at creation (incremental flow) have not produced
  // predictions yet; do that first so this round can validate against
  // them.
  if (!has_predictions_ && labeled_.size() > 0) {
    SIGHT_RETURN_IF_ERROR(Repredict());
  }

  // 1. Sample unlabeled strangers.
  std::vector<size_t> unlabeled;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (!is_labeled_[i]) unlabeled.push_back(i);
  }
  if (unlabeled.empty()) {
    // Fully covered by carried-over labels: nothing to ask.
    finished_ = true;
    outcome_ = PoolOutcome::kExhausted;
    return record;
  }
  SamplingContext context{unlabeled,
                          has_predictions_ ? predictions_
                                           : std::vector<double>()};
  std::vector<size_t> picked =
      sampler_->Select(context, config_.labels_per_round, rng);
  record.newly_labeled = picked.size();

  // 2. Query the oracle; validate previous-round predictions against the
  //    fresh owner labels (Definition 4).
  double square_error = 0.0;
  std::vector<double> owner_values;
  owner_values.reserve(picked.size());
  for (size_t idx : picked) {
    RiskLabel label = oracle->QueryLabel(
        members_[idx], display_similarity_[idx], display_benefit_[idx]);
    double value = RiskLabelValue(label);
    owner_values.push_back(value);
    if (has_predictions_) {
      int predicted =
          RoundToLabel(predictions_[idx], kRiskLabelMin, kRiskLabelMax);
      double diff = static_cast<double>(predicted) - value;
      square_error += diff * diff;
      ++validation_total_;
      if (predicted == static_cast<int>(label)) ++validation_matches_;
    }
  }
  if (has_predictions_ && !picked.empty()) {
    record.rmse_valid = true;
    record.rmse =
        std::sqrt(square_error / static_cast<double>(picked.size()));
    last_rmse_valid_ = true;
    last_rmse_ = record.rmse;
  }

  // 3. Move samples into the labeled set.
  for (size_t i = 0; i < picked.size(); ++i) {
    labeled_.Add(picked[i], owner_values[i]);
    is_labeled_[picked[i]] = true;
  }

  // 4. Retrain / repredict.
  std::vector<double> previous = predictions_;
  bool had_predictions = has_predictions_;
  SIGHT_RETURN_IF_ERROR(Repredict());
  record.solver = last_solve_.solver;
  record.solve_iterations = last_solve_.iterations;

  // 5. Stabilization check (Definition 5) over still-unlabeled members.
  //    The stop decision only needs "did anything move" — the scan exits
  //    at the first unstable member unless the exact count was requested.
  double tolerance = config_.StabilizationTolerance();
  size_t unstable = 0;
  if (had_predictions) {
    for (size_t i = 0; i < members_.size(); ++i) {
      if (is_labeled_[i]) continue;
      if (std::fabs(predictions_[i] - previous[i]) >= tolerance) {
        ++unstable;
        if (!config_.count_all_unstabilized) break;
      }
    }
    record.unstabilized = unstable;
    record.stabilized = unstable == 0;
    consecutive_stable_ = record.stabilized ? consecutive_stable_ + 1 : 0;
  } else {
    // First prediction: nothing to compare; count all as unstabilized.
    size_t remaining = 0;
    for (size_t i = 0; i < members_.size(); ++i) {
      if (!is_labeled_[i]) ++remaining;
    }
    record.unstabilized = remaining;
    record.stabilized = false;
  }

  // 6. Stopping conditions.
  bool all_labeled =
      std::all_of(is_labeled_.begin(), is_labeled_.end(),
                  [](bool b) { return b; });
  if (all_labeled) {
    finished_ = true;
    outcome_ = PoolOutcome::kExhausted;
  } else if (consecutive_stable_ >= config_.stable_rounds &&
             last_rmse_valid_ && last_rmse_ < config_.rmse_threshold) {
    finished_ = true;
    outcome_ = PoolOutcome::kConverged;
  } else if (rounds_run_ >= config_.max_rounds) {
    finished_ = true;
    outcome_ = PoolOutcome::kRoundLimit;
  }
  return record;
}

Result<std::vector<RoundRecord>> PoolLearner::RunToCompletion(
    LabelOracle* oracle, Rng* rng) {
  std::vector<RoundRecord> records;
  while (!finished_) {
    SIGHT_ASSIGN_OR_RETURN(RoundRecord record, RunRound(oracle, rng));
    records.push_back(record);
  }
  return records;
}

RiskLabel PoolLearner::PredictedLabel(size_t i) const {
  SIGHT_CHECK(i < members_.size());
  int value = RoundToLabel(predictions_[i], kRiskLabelMin, kRiskLabelMax);
  return static_cast<RiskLabel>(value);
}

Result<ActiveLearner> ActiveLearner::Create(
    const PoolSet& pools, const ProfileTable& profiles,
    const std::vector<double>& display_benefits, ActiveLearnerConfig config,
    const GraphClassifier* classifier, const Sampler* sampler,
    const PoolLearner::KnownLabels* known_labels,
    const PoolLearner::KnownLabels* prior_scores, LearnerCarry* carry,
    const StrangerEncodeCache* encode) {
  SIGHT_RETURN_IF_ERROR(config.Validate());
  if (display_benefits.size() != pools.strangers.size()) {
    return Status::InvalidArgument(
        "display_benefits must be parallel to the pool set's strangers");
  }
  if (pools.network_similarities.size() != pools.strangers.size()) {
    return Status::InvalidArgument(
        "network_similarities must be parallel to the pool set's strangers");
  }
  if (classifier == nullptr || sampler == nullptr) {
    return Status::InvalidArgument("classifier and sampler are required");
  }

  ActiveLearner learner;
  std::unordered_map<UserId, size_t> position;
  position.reserve(pools.strangers.size());
  for (size_t i = 0; i < pools.strangers.size(); ++i) {
    if (!position.emplace(pools.strangers[i], i).second) {
      return Status::InvalidArgument(
          StrFormat("stranger %u is listed twice", pools.strangers[i]));
    }
  }

  SIGHT_ASSIGN_OR_RETURN(ProfileSimilarity ps,
                         ProfileSimilarity::Create(profiles.schema()));

  size_t num_pools = pools.pools.size();

  // Cross-tick carry-over: a pool whose membership fingerprint matches a
  // retained learner (and whose carried labels it already holds) reuses
  // that learner wholesale and skips the graph build below. Retained
  // learners are consumed either way — unmatched ones are stale (their
  // pool changed shape) and are dropped with the carry.
  std::vector<std::optional<PoolLearner>> carried(num_pools);
  if (carry != nullptr) {
    std::vector<bool> consumed(carry->retained_.size(), false);
    for (size_t p = 0; p < num_pools; ++p) {
      for (size_t r = 0; r < carry->retained_.size(); ++r) {
        if (consumed[r]) continue;
        if (!carry->retained_[r].CanResume(pools.pools[p], known_labels)) {
          continue;
        }
        carried[p].emplace(std::move(carry->retained_[r]));
        consumed[r] = true;
        ++learner.pools_carried_;
        break;
      }
    }
    carry->retained_.clear();
  }

  // Every pool gathers its member rows from one owner-level encode: the
  // caller's (refreshed against `profiles` this tick), or a fresh one
  // that dies with the call. BuildGraphs builds each pool's graph against
  // value frequencies of its own rows (Section III-C), indexed by those
  // codes. Carried pools keep all of this from their previous tick.
  // Profile similarity only sees code equality and per-value counts, and
  // a factored graph orders its sums by member, never by code, so no
  // injective re-coding changes a bit: every pool builds and solves as it
  // would under a dictionary of its own.
  StrangerEncodeCache fresh;
  if (encode == nullptr) {
    fresh.Refresh(profiles, pools.strangers);
    encode = &fresh;
  }
  // Every member belongs to exactly one pool. A carried pool passes no
  // rows: its learner already holds its graph.
  std::vector<bool> pooled(pools.strangers.size(), false);
  std::vector<std::vector<uint32_t>> rows(num_pools);
  std::vector<ps_kernels::PoolRows> inputs(num_pools);
  std::vector<std::vector<double>> sims(num_pools);
  std::vector<std::vector<double>> bens(num_pools);
  for (size_t p = 0; p < num_pools; ++p) {
    const StrangerPool& pool = pools.pools[p];
    const bool build = !carried[p].has_value();
    size_t n = pool.members.size();
    if (build) {
      sims[p].assign(n, 0.0);
      bens[p].assign(n, 0.0);
    }
    for (size_t i = 0; i < n; ++i) {
      auto it = position.find(pool.members[i]);
      if (it == position.end()) {
        return Status::InvalidArgument(
            StrFormat("pool member %u missing from the stranger list",
                      pool.members[i]));
      }
      if (pooled[it->second]) {
        return Status::InvalidArgument(StrFormat(
            "stranger %u is a member of two pools", pool.members[i]));
      }
      pooled[it->second] = true;
      if (build) {
        sims[p][i] = pools.network_similarities[it->second];
        bens[p][i] = display_benefits[it->second];
      }
    }
    if (!build) continue;
    if (!encode->GatherRows(pool.members, &rows[p])) {
      return Status::FailedPrecondition(StrFormat(
          "the encode cache has no row for some member of pool %zu; "
          "refresh it over the pool set's strangers first",
          p));
    }
    if (encode->num_attributes() != ps.normalized_weights().size()) {
      return Status::FailedPrecondition(StrFormat(
          "the encode cache rows have %zu attributes, the profiles' schema "
          "%zu; refresh it against these profiles first",
          encode->num_attributes(), ps.normalized_weights().size()));
    }
    inputs[p] = ps_kernels::PoolRows{rows[p].data(), n};
  }

  // The classifier graphs (similarity/ps_kernels.h): a dense pool's is
  // its factored PS graph, with no pair scored; with sparsify_top_k > 0
  // a pool's rows are scored on the batched kernel and stream into the
  // top-k selection that emits its CSR.
  std::vector<PoolGraph> graphs =
      ps_kernels::BuildGraphs(inputs, ps, config.sparsify_top_k);

  // One learner per pool, in pool order. Carried learners only
  // rebaseline their per-tick counters.
  learner.learners_.reserve(num_pools);
  for (size_t p = 0; p < num_pools; ++p) {
    if (carried[p].has_value()) {
      carried[p]->MarkCarried();
      learner.learners_.push_back(std::move(*carried[p]));
      continue;
    }
    SIGHT_ASSIGN_OR_RETURN(
        PoolLearner created,
        PoolLearner::Create(pools.pools[p], std::move(graphs[p]),
                            std::move(sims[p]), std::move(bens[p]), config,
                            classifier, sampler, known_labels,
                            prior_scores));
    learner.learners_.push_back(std::move(created));
  }
  return learner;
}

void ActiveLearner::HarvestInto(LearnerCarry* carry) {
  SIGHT_CHECK(carry != nullptr);
  carry->retained_.clear();
  carry->retained_.reserve(learners_.size());
  for (PoolLearner& learner : learners_) {
    carry->retained_.push_back(std::move(learner));
  }
  learners_.clear();
}

Result<AssessmentResult> ActiveLearner::Run(LabelOracle* oracle, Rng* rng) {
  if (oracle == nullptr || rng == nullptr) {
    return Status::InvalidArgument("oracle and rng are required");
  }
  AssessmentResult result;
  result.pools_total = learners_.size();
  result.pools_carried = pools_carried_;

  double rounds_sum = 0.0;
  for (size_t li = 0; li < learners_.size(); ++li) {
    PoolLearner& learner = learners_[li];
    SIGHT_ASSIGN_OR_RETURN(std::vector<RoundRecord> records,
                           learner.RunToCompletion(oracle, rng));
    for (RoundRecord& record : records) {
      record.pool_index = li;
      result.rounds.push_back(record);
    }
    rounds_sum += static_cast<double>(learner.rounds_run());
    result.total_queries += learner.num_queries();
    result.validation_matches += learner.validation_matches();
    result.validation_total += learner.validation_total();
    switch (learner.outcome()) {
      case PoolOutcome::kConverged:
        ++result.pools_converged;
        break;
      case PoolOutcome::kExhausted:
        ++result.pools_exhausted;
        break;
      case PoolOutcome::kRoundLimit:
        ++result.pools_round_limit;
        break;
    }

    const auto& members = learner.members();
    for (size_t i = 0; i < members.size(); ++i) {
      StrangerAssessment sa;
      sa.stranger = members[i];
      sa.pool_index = li;
      sa.predicted_score = learner.predictions()[i];
      sa.predicted_label = learner.PredictedLabel(i);
      sa.owner_labeled = learner.IsOwnerLabeled(i);
      sa.network_similarity = learner.display_similarity(i);
      sa.benefit = learner.display_benefit(i);
      result.strangers.push_back(sa);
    }
  }
  if (!learners_.empty()) {
    result.mean_rounds = rounds_sum / static_cast<double>(learners_.size());
  }
  return result;
}

}  // namespace sight
