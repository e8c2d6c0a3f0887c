// Graph-based semi-supervised classifier interface.
//
// Classifiers in the risk pipeline see a weighted similarity graph over a
// pool's instances plus a few labeled instances, and output a continuous
// score per instance (real-valued risk in [label_min, label_max], rounded
// to a discrete label by the caller). The graph is a PoolGraph
// (learning/pool_graph.h): a dense pool's factored PS graph or a top-k
// pool's CSR, as ps_kernels::BuildGraphs built it; PoolLearner solves on
// it every round. This matches how the paper plugs Zhu's
// harmonic-function method in and lets baselines (kNN, majority) swap in
// for the ablation bench.

#ifndef SIGHT_LEARNING_CLASSIFIER_H_
#define SIGHT_LEARNING_CLASSIFIER_H_

#include <memory>
#include <string>
#include <vector>

#include "learning/pool_graph.h"
#include "util/status.h"

namespace sight {

/// The labeled subset of a pool: parallel vectors of instance index and
/// numeric label value.
struct LabeledSet {
  std::vector<size_t> indices;
  std::vector<double> values;

  size_t size() const { return indices.size(); }
  void Add(size_t index, double value) {
    indices.push_back(index);
    values.push_back(value);
  }
};

/// Opaque per-pool solver state carried across successive predictions of
/// the same pool (active-learning rounds, crawler ticks). Created by
/// GraphClassifier::MakeState(), threaded through PredictWithState().
class ClassifierState {
 public:
  virtual ~ClassifierState() = default;

  /// Seeds the next solve's starting vector (one value per pool member)
  /// without recording any labeled-set history — the cross-tick warm
  /// start of the RiskService crawler flow. Stateless classifiers ignore
  /// it.
  virtual void SeedSolution(std::vector<double> f) { (void)f; }
};

/// What a single predict/solve actually did — surfaced per round in
/// RoundRecord and by the perf benches.
struct SolveStats {
  /// Solver that ran ("gauss-seidel", "conjugate-gradient"; the
  /// classifier name for classifiers without an inner solver choice).
  std::string solver;
  /// Sweeps (Gauss-Seidel) or iterations (conjugate gradient) of the
  /// solve; 0 for non-iterative classifiers.
  size_t iterations = 0;
  /// Whether the solve continued from a prior solution instead of the
  /// label-mean cold start.
  bool warm = false;
  /// Final residual: last sweep's max score delta (Gauss-Seidel) or
  /// ||r|| (conjugate gradient).
  double residual = 0.0;
};

/// Predicts continuous label scores for all instances of a pool.
class GraphClassifier {
 public:
  virtual ~GraphClassifier() = default;

  /// Returns one score per instance (size graph.size()). Labeled
  /// instances keep their given value in the output. Errors when the
  /// labeled set is empty or references out-of-range indices.
  [[nodiscard]]
  virtual Result<std::vector<double>> Predict(
      const PoolGraph& graph, const LabeledSet& labeled) const = 0;

  /// State-carrying variant for incremental re-solves. `state` (from
  /// MakeState()) holds the previous solution and labeled-set
  /// fingerprint; the solve continues from it and updates it. The
  /// labeled set must extend the one the state last saw (append-only);
  /// anything else is an InvalidArgument. `state == nullptr` is the cold
  /// case and behaves exactly like Predict(). The default implementation
  /// ignores the state and forwards to Predict().
  [[nodiscard]]
  virtual Result<std::vector<double>> PredictWithState(
      const PoolGraph& graph, const LabeledSet& labeled,
      ClassifierState* state, SolveStats* stats = nullptr) const;

  /// Fresh empty state for PredictWithState(), or nullptr when the
  /// classifier keeps no state between predictions (the default).
  [[nodiscard]] virtual std::unique_ptr<ClassifierState> MakeState() const;

  /// Human-readable name for reports ("harmonic", "knn", ...).
  virtual std::string name() const = 0;
};

namespace internal {
/// Shared validation: labeled set non-empty, indices in range, no
/// duplicates.
[[nodiscard]] Status ValidateLabeledSet(size_t n, const LabeledSet& labeled);
}  // namespace internal

/// Rounds a continuous score to the nearest integer label in
/// [label_min, label_max].
int RoundToLabel(double score, int label_min, int label_max);

}  // namespace sight

#endif  // SIGHT_LEARNING_CLASSIFIER_H_
