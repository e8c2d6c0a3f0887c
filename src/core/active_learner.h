// The paper's active risk-learning process (Section III, Figure 1).
//
// For every pool of strangers, rounds of (sample -> owner labels ->
// classifier prediction) run until the stopping condition of Section III-D
// holds:
//
//   * accuracy  — Definition 4: the RMSE between the labels predicted in
//     round i and the owner labels collected for the same strangers in
//     round i+1 is below a threshold (paper: 0.5);
//   * stability — Definition 5: no stranger's predicted label moved by at
//     least the confidence-derived tolerance for n consecutive rounds
//     (paper: n=2).
//
// On the Definition 5 tolerance: the paper prints
// (Lmax - Lmin) * 100 / (100 - c), which for c=80 yields 10 — a change no
// 3-level label can reach, and under which c=100 ("label everything
// manually") would stop immediately, contradicting the text. We implement
// the evidently intended (Lmax - Lmin) * (100 - c) / 100: c=80 gives a 0.4
// tolerance on the continuous scores, and c=100 gives 0, which never
// stabilizes — exactly the "owner labels all strangers" behaviour the
// paper describes.

#ifndef SIGHT_CORE_ACTIVE_LEARNER_H_
#define SIGHT_CORE_ACTIVE_LEARNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pool_builder.h"
#include "core/risk_label.h"
#include "graph/profile.h"
#include "graph/profile_codec.h"
#include "graph/types.h"
#include "learning/classifier.h"
#include "learning/sampling.h"
#include "learning/pool_graph.h"
#include "similarity/profile_similarity.h"
#include "util/random.h"
#include "util/status.h"

namespace sight {

/// The annotator of the active-learning loop — in production the human
/// owner behind the Sight UI, in experiments a simulated OwnerModel.
class LabelOracle {
 public:
  virtual ~LabelOracle() = default;

  /// The owner's answer to the paper's Section III-A question for
  /// `stranger`, who is `similarity`/1.0 similar and provides
  /// `benefit`/1.0 benefits (the two values the UI displays).
  virtual RiskLabel QueryLabel(UserId stranger, double similarity,
                               double benefit) = 0;
};

struct ActiveLearnerConfig {
  /// Strangers queried per pool per round (paper: 3).
  size_t labels_per_round = 3;
  /// Definition 4 stop threshold (paper: 0.5).
  double rmse_threshold = 0.5;
  /// Owner confidence c in [0, 100] (paper's owners averaged 78.39).
  double confidence = 80.0;
  /// Rounds without classification change required to stop (paper: 2).
  size_t stable_rounds = 2;
  /// Hard safety bound per pool.
  size_t max_rounds = 64;
  /// Keep only the top-k profile-similarity edges per pool member when
  /// building the classifier graph; 0 = dense. ActiveLearner::Create
  /// passes it to ps_kernels::BuildGraphs, and it also picks the graph's
  /// representation: a dense pool gets its complete PS graph as a
  /// FactoredPsGraph (no pair scored, O(n * attributes) bytes), a top-k
  /// pool the CSR its pairs stream into. PoolLearner::Create takes the
  /// graph it is given as is.
  size_t sparsify_top_k = 0;
  /// When false (default) the Definition-5 stabilization scan stops at
  /// the first still-unlabeled member that moved >= tolerance, so
  /// RoundRecord::unstabilized is 0 or 1 on unstable rounds. fig6-style
  /// consumers that need the exact count set this to true.
  bool count_all_unstabilized = false;
  [[nodiscard]] Status Validate() const;

  /// Definition 5 tolerance derived from `confidence`.
  double StabilizationTolerance() const {
    return static_cast<double>(kRiskLabelMax - kRiskLabelMin) *
           (100.0 - confidence) / 100.0;
  }
};

/// What happened in one labeling round of one pool.
struct RoundRecord {
  size_t pool_index = 0;
  /// 1-based round number within the pool.
  size_t round = 0;
  size_t newly_labeled = 0;
  /// Definition 4 RMSE for this round; valid from round 2 (there must be a
  /// previous prediction to validate).
  bool rmse_valid = false;
  double rmse = 0.0;
  /// Strangers whose continuous prediction moved >= tolerance. With the
  /// default early-exit scan (ActiveLearnerConfig::count_all_unstabilized
  /// == false) this is 0 or 1; the exact count needs the flag.
  size_t unstabilized = 0;
  bool stabilized = false;
  /// Solver that produced this round's predictions ("gauss-seidel",
  /// "conjugate-gradient", or the classifier name) — kAuto's per-round
  /// choice is no longer hidden.
  std::string solver;
  /// Sweeps/iterations of this round's solve.
  size_t solve_iterations = 0;
};

enum class PoolOutcome : uint8_t {
  /// Stopping condition met (accuracy + stability).
  kConverged,
  /// Every member was owner-labeled before convergence.
  kExhausted,
  /// max_rounds hit first.
  kRoundLimit,
};

class PoolLearner;

/// Cross-tick carry-over of per-pool learner state (the resident-service
/// flow, DESIGN.md §13). After an assessment the ActiveLearner's finished
/// PoolLearners — classifier graph (a dense pool's factored PS graph,
/// O(n * attributes) bytes; a top-k pool's CSR), labeled set, converged
/// solve state — are harvested into a LearnerCarry; on the next tick,
/// pools whose membership fingerprint (the exact member list) matches a
/// retained learner reuse it wholesale, skipping the graph rebuild and
/// the re-convergence rounds. Stale state is rejected structurally: any
/// membership change, any label the learner has not seen, or a
/// round-limit outcome falls back to the full rebuild, and the
/// append-only labeled-set fingerprint inside HarmonicSolveState guards
/// the solve layer independently (DESIGN.md §12).
class LearnerCarry {
 public:
  LearnerCarry() = default;
  LearnerCarry(LearnerCarry&&) = default;
  LearnerCarry& operator=(LearnerCarry&&) = default;

  /// Retained learners available for reuse.
  size_t size() const;
  /// Drops all retained state (e.g. after an upstream data change the
  /// membership fingerprint cannot see, such as edited profiles).
  void Clear();

 private:
  friend class ActiveLearner;
  std::vector<PoolLearner> retained_;
};

/// Active learning over a single pool.
///
/// The pool's classifier graph is the profile-similarity graph over its
/// members (the paper's adaptation of Zhu's classifier to categorical
/// data).
class PoolLearner {
 public:
  /// Owner labels carried over from a previous assessment (incremental
  /// flow): stranger id -> numeric label value.
  using KnownLabels = std::unordered_map<UserId, double>;

  /// `graph` is the classifier graph over the pool's members (what
  /// ps_kernels::BuildGraphs builds). `display_similarity` /
  /// `display_benefit` are parallel to `pool.members` and are surfaced
  /// to the oracle with each query.
  /// Members found in `known_labels` start out owner-labeled, so the
  /// oracle is never asked about them again. `prior_scores` (optional)
  /// are continuous predicted scores from an earlier assessment (crawler
  /// tick); members found there seed the first solve's starting vector,
  /// warm-starting across ticks without constraining the labeled set.
  [[nodiscard]]
  static Result<PoolLearner> Create(const StrangerPool& pool,
                                    PoolGraph graph,
                                    std::vector<double> display_similarity,
                                    std::vector<double> display_benefit,
                                    const ActiveLearnerConfig& config,
                                    const GraphClassifier* classifier,
                                    const Sampler* sampler,
                                    const KnownLabels* known_labels = nullptr,
                                    const KnownLabels* prior_scores = nullptr);

  /// Runs one round; no-op error if already finished.
  [[nodiscard]] Result<RoundRecord> RunRound(LabelOracle* oracle, Rng* rng);

  /// Runs rounds until the pool finishes; returns all round records.
  [[nodiscard]]
  Result<std::vector<RoundRecord>> RunToCompletion(LabelOracle* oracle,
                                                   Rng* rng);

  bool finished() const { return finished_; }
  PoolOutcome outcome() const { return outcome_; }
  size_t rounds_run() const { return rounds_run_; }
  /// Fresh oracle queries this learner issued (carried-over labels from
  /// `known_labels` are not re-counted).
  size_t num_queries() const { return labeled_.size() - seeded_count_; }

  const std::vector<UserId>& members() const { return members_; }

  /// Network similarity and benefit of member i, as the oracle sees them.
  double display_similarity(size_t i) const { return display_similarity_[i]; }
  double display_benefit(size_t i) const { return display_benefit_[i]; }

  /// Continuous scores, one per member (label values after exhaustion).
  const std::vector<double>& predictions() const { return predictions_; }

  /// Rounded predicted label of member `i` (the owner's label when given).
  RiskLabel PredictedLabel(size_t i) const;

  /// True when member i was labeled by the owner.
  bool IsOwnerLabeled(size_t i) const { return is_labeled_[i]; }

  /// During validation queries, number of previously-predicted labels that
  /// exactly matched the owner's label / total validated.
  size_t validation_matches() const { return validation_matches_; }
  size_t validation_total() const { return validation_total_; }

  /// True when this retained learner can serve `pool` unchanged on a new
  /// tick: it finished (and not by hitting the round limit — those get a
  /// fresh rebuild and another chance to converge), the member list is
  /// identical, and every carried-over label covering a member is one the
  /// learner already holds with a bit-identical value. Any mismatch means
  /// the pool is rebuilt from scratch.
  bool CanResume(const StrangerPool& pool,
                 const KnownLabels* known_labels) const;

  /// Rebaselines per-tick counters after a carry-over: labels already
  /// collected stop counting as fresh queries, validation tallies and the
  /// round counter restart, so reports aggregate per-assessment effort
  /// exactly like a rebuilt learner's.
  void MarkCarried();

 private:
  PoolLearner(const StrangerPool& pool, PoolGraph graph,
              std::vector<double> display_similarity,
              std::vector<double> display_benefit,
              const ActiveLearnerConfig& config,
              const GraphClassifier* classifier, const Sampler* sampler);

  [[nodiscard]] Status Repredict();

  std::vector<UserId> members_;
  PoolGraph graph_;
  std::vector<double> display_similarity_;
  std::vector<double> display_benefit_;
  ActiveLearnerConfig config_;
  const GraphClassifier* classifier_;
  const Sampler* sampler_;

  LabeledSet labeled_;
  size_t seeded_count_ = 0;
  std::vector<bool> is_labeled_;
  std::vector<double> predictions_;
  bool has_predictions_ = false;

  // The solve chain: every Repredict() solves the current labeled set
  // once, continuing from `solve_state_`, so round r's predictions are the
  // r-th iterate of one warm chain — bitwise what a fresh state replaying
  // every earlier labeled set would reach (DESIGN.md §12). `seed_f_` is
  // the optional cross-tick starting vector; the first Repredict() moves
  // it into the new state.
  std::unique_ptr<ClassifierState> solve_state_;
  bool state_created_ = false;
  std::vector<double> seed_f_;
  SolveStats last_solve_;

  size_t rounds_run_ = 0;
  size_t consecutive_stable_ = 0;
  bool last_rmse_valid_ = false;
  double last_rmse_ = 0.0;
  bool finished_ = false;
  PoolOutcome outcome_ = PoolOutcome::kRoundLimit;

  size_t validation_matches_ = 0;
  size_t validation_total_ = 0;
};

/// Per-stranger outcome of a full assessment.
struct StrangerAssessment {
  UserId stranger = kInvalidUser;
  double network_similarity = 0.0;
  double benefit = 0.0;
  size_t pool_index = 0;
  double predicted_score = 0.0;
  RiskLabel predicted_label = RiskLabel::kNotRisky;
  bool owner_labeled = false;
};

/// Aggregate result of running the learner over every pool of an owner.
struct AssessmentResult {
  std::vector<StrangerAssessment> strangers;
  std::vector<RoundRecord> rounds;
  size_t total_queries = 0;
  size_t pools_total = 0;
  size_t pools_converged = 0;
  size_t pools_exhausted = 0;
  size_t pools_round_limit = 0;
  /// Pools served by a carried-over learner (no graph rebuild, no
  /// re-convergence rounds) — only non-zero when a LearnerCarry was
  /// supplied.
  size_t pools_carried = 0;
  /// Mean rounds per pool until it finished.
  double mean_rounds = 0.0;
  /// Exact-match validation across pools (the paper's 83.36% metric).
  size_t validation_matches = 0;
  size_t validation_total = 0;

  double ValidationAccuracy() const {
    return validation_total == 0
               ? 0.0
               : static_cast<double>(validation_matches) /
                     static_cast<double>(validation_total);
  }
};

/// Orchestrates PoolLearners over a PoolSet: one learner per pool, in
/// pool order, each on the graph ps_kernels::BuildGraphs built for it.
class ActiveLearner {
 public:
  /// `display_benefits` and `pools.network_similarities` are parallel to
  /// `pools.strangers`, which lists each stranger once; every pool member
  /// is one of them, in exactly one pool. A pool set that breaks this is
  /// InvalidArgument.
  /// `classifier` and `sampler` must outlive the learner. Strangers found
  /// in `known_labels` (optional) start out labeled in their pools;
  /// strangers found in `prior_scores` (optional) seed each pool's first
  /// solve with the previous tick's predicted scores. `carry` (optional)
  /// supplies retained learners from the previous tick: pools that
  /// CanResume one skip the graph build entirely; retained learners are
  /// consumed whether or not they match (call HarvestInto after Run to
  /// refill the carry for the next tick). `encode` (optional) is the
  /// owner-level encoded stranger table, refreshed against `profiles`
  /// over `pools.strangers` this tick; without one, a fresh table is
  /// refreshed here and dies with the call. Pools gather their member
  /// rows from it, so when some pool is built, a supplied table that
  /// lacks a row for one of its members, or whose rows have another
  /// attribute count than `profiles`' schema, is FailedPrecondition.
  [[nodiscard]]
  static Result<ActiveLearner> Create(
      const PoolSet& pools, const ProfileTable& profiles,
      const std::vector<double>& display_benefits, ActiveLearnerConfig config,
      const GraphClassifier* classifier, const Sampler* sampler,
      const PoolLearner::KnownLabels* known_labels = nullptr,
      const PoolLearner::KnownLabels* prior_scores = nullptr,
      LearnerCarry* carry = nullptr,
      const StrangerEncodeCache* encode = nullptr);

  /// Runs every pool to completion. Each stranger's NS and benefit are
  /// the ones its pool's learner shows the oracle; a carried learner's
  /// are from the tick that built it, which holds because a carry is
  /// dropped on any graph, profile or visibility change.
  [[nodiscard]] Result<AssessmentResult> Run(LabelOracle* oracle, Rng* rng);

  /// Moves every finished learner into `carry` for the next tick
  /// (replacing whatever it held). The ActiveLearner is spent afterwards;
  /// call only after Run.
  void HarvestInto(LearnerCarry* carry);

 private:
  ActiveLearner() = default;

  size_t pools_carried_ = 0;
  // One per pool, in pool order: learners_[p] serves pools.pools[p].
  std::vector<PoolLearner> learners_;
};

}  // namespace sight

#endif  // SIGHT_CORE_ACTIVE_LEARNER_H_
