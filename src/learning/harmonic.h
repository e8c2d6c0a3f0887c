// Semi-supervised learning with Gaussian fields and harmonic functions
// (Zhu, Ghahramani, Lafferty, ICML 2003) — the classifier the risk paper
// adopts.
//
// Given a weighted graph over labeled and unlabeled nodes, the predicted
// score vector f is the harmonic function: f equals the given labels on
// labeled nodes and satisfies f(u) = sum_v w(u,v) f(v) / sum_v w(u,v) on
// unlabeled nodes — each unlabeled node takes the weight-averaged value of
// its neighbors. This is the unique minimizer of the quadratic energy
// E(f) = 1/2 sum w(u,v) (f(u) - f(v))^2 with the labels clamped, i.e. the
// solution of (D_uu - W_uu) f_u = W_ul f_l, and equals the expected label
// under the absorbing random walk the paper mentions ("the random walk
// strategy presented in [18]").
//
// Two solvers: Gauss-Seidel label propagation (monotone, simple) and
// conjugate gradient on the Laplacian system (faster convergence on
// poorly mixing graphs). Each loop is written once over the pool graph's
// representation (learning/pool_graph.h):
//
//  * on a CSR SimilarityMatrix (a top-k pool) they iterate per-row
//    neighbor lists, so a sweep or product costs O(edges); CG first
//    copies the unlabeled block's own edges into a compact CSR of block
//    positions, scratch of that one solve, so each product reads only
//    the edges between unlabeled nodes, in the graph's order;
//  * on a FactoredPsGraph (a dense pool) the degrees come from the graph,
//    CG's right-hand side is one product of the labeled values and each
//    iteration one product W x, O(n * A + V); a Gauss-Seidel node update
//    reads running per-value sums, O(A log V).
//
// Isolated unlabeled nodes fall back to the mean of the given labels.

#ifndef SIGHT_LEARNING_HARMONIC_H_
#define SIGHT_LEARNING_HARMONIC_H_

#include <memory>
#include <string>
#include <vector>

#include "learning/classifier.h"
#include "learning/pool_graph.h"
#include "util/status.h"

namespace sight {

/// Persistent solve state for warm-started incremental re-solves across
/// active-learning rounds (and crawler ticks). Holds the previous
/// converged solution plus a fingerprint of the labeled set it was
/// solved against; PredictWithState() seeds the next solve from the
/// stored vector and requires the new labeled set to extend the
/// fingerprint append-only (indices and bit-identical values), so the
/// warm iterate chain is exactly the chain a from-scratch replay of the
/// label history would produce — see DESIGN.md §12 for why that makes
/// warm and cold bitwise-equal.
class HarmonicSolveState final : public ClassifierState {
 public:
  /// Installs a starting vector (one value per pool member) without any
  /// labeled-set history — the cross-tick seed of the RiskService
  /// crawler flow. The next solve starts from it and may extend it with
  /// any labeled set.
  void SeedSolution(std::vector<double> f) override;

  bool has_solution() const { return has_solution_; }
  const std::vector<double>& solution() const { return f_; }
  /// Labeled set of the last completed solve (empty after SeedSolution).
  const LabeledSet& labeled_fingerprint() const { return labeled_; }
  /// Sweeps/iterations accumulated across every solve through this
  /// state.
  size_t total_iterations() const { return total_iterations_; }
  double last_residual() const { return last_residual_; }

 private:
  friend class HarmonicFunctionClassifier;

  std::vector<double> f_;
  LabeledSet labeled_;
  bool has_solution_ = false;
  size_t total_iterations_ = 0;
  double last_residual_ = 0.0;
};

enum class HarmonicSolver {
  kGaussSeidel,
  kConjugateGradient,
  /// Gauss-Seidel for small systems, conjugate gradient above 128
  /// unlabeled nodes (CG converges in far fewer passes over the graph on
  /// big pools).
  kAuto,
};

struct HarmonicConfig {
  HarmonicSolver solver = HarmonicSolver::kAuto;
  size_t max_iterations = 1000;
  /// Convergence: max absolute score change per sweep (Gauss-Seidel) or
  /// residual norm relative to ||b|| (CG) below this stops iterating.
  double tolerance = 1e-7;
};

class HarmonicFunctionClassifier : public GraphClassifier {
 public:
  [[nodiscard]]
  static Result<HarmonicFunctionClassifier> Create(HarmonicConfig config);

  [[nodiscard]]
  Result<std::vector<double>> Predict(const PoolGraph& graph,
                                      const LabeledSet& labeled) const override;

  /// Warm-startable variant: with a HarmonicSolveState carrying a prior
  /// solution, the solve starts from it (Gauss-Seidel seeds its sweeps
  /// from the stored f; CG computes the initial residual against it) and
  /// the state is updated with the converged result. The labeled set
  /// must extend the state's fingerprint append-only. `state == nullptr`
  /// is the cold case, identical to Predict(). Passing a state of any
  /// other classifier is an InvalidArgument.
  [[nodiscard]]
  Result<std::vector<double>> PredictWithState(
      const PoolGraph& graph, const LabeledSet& labeled,
      ClassifierState* state, SolveStats* stats = nullptr) const override;

  [[nodiscard]] std::unique_ptr<ClassifierState> MakeState() const override;

  std::string name() const override { return "harmonic"; }

  const HarmonicConfig& config() const { return config_; }

 private:
  explicit HarmonicFunctionClassifier(HarmonicConfig config)
      : config_(config) {}

  /// Shared predict core: cold when `state` is null or empty, warm
  /// otherwise. Fills `stats` (never null here) and updates `state`.
  [[nodiscard]]
  Result<std::vector<double>> Solve(const PoolGraph& graph,
                                    const LabeledSet& labeled,
                                    HarmonicSolveState* state,
                                    SolveStats* stats) const;

  HarmonicConfig config_;
};

}  // namespace sight

#endif  // SIGHT_LEARNING_HARMONIC_H_
