#include "learning/harmonic.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "util/logging.h"
#include "util/string_util.h"

namespace sight {
namespace {

// kAuto runs conjugate gradient above this many unlabeled nodes (128),
// Gauss-Seidel at or below it.
constexpr size_t kAutoCgThreshold = 128;

// The new labeled set must extend the state's fingerprint append-only:
// same indices with bit-identical values as a prefix. Anything else means
// the caller is reusing state across unrelated solves, where a warm start
// would silently change the chained-solve semantics.
Status ValidateStateExtends(const LabeledSet& prev, const LabeledSet& now) {
  if (prev.size() > now.size()) {
    return Status::InvalidArgument(
        "labeled set shrank since the last solve");
  }
  for (size_t i = 0; i < prev.size(); ++i) {
    if (prev.indices[i] != now.indices[i] ||
        prev.values[i] != now.values[i]) {
      return Status::InvalidArgument(
          StrFormat("labeled entry %zu changed since the last solve "
                    "(incremental state requires append-only labels)",
                    i));
    }
  }
  return Status::OK();
}

}  // namespace

void HarmonicSolveState::SeedSolution(std::vector<double> f) {
  f_ = std::move(f);
  labeled_ = LabeledSet{};
  has_solution_ = true;
}

Result<HarmonicFunctionClassifier> HarmonicFunctionClassifier::Create(
    HarmonicConfig config) {
  if (config.max_iterations == 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  if (!(config.tolerance > 0.0)) {
    return Status::InvalidArgument("tolerance must be positive");
  }
  return HarmonicFunctionClassifier(config);
}

Result<std::vector<double>> HarmonicFunctionClassifier::Predict(
    const SimilarityMatrix& weights, const LabeledSet& labeled) const {
  SolveStats stats;
  return Solve(weights, labeled, nullptr, &stats);
}

Result<std::vector<double>> HarmonicFunctionClassifier::PredictWithState(
    const SimilarityMatrix& weights, const LabeledSet& labeled,
    ClassifierState* state, SolveStats* stats) const {
  HarmonicSolveState* harmonic_state = nullptr;
  if (state != nullptr) {
    harmonic_state = dynamic_cast<HarmonicSolveState*>(state);
    if (harmonic_state == nullptr) {
      return Status::InvalidArgument(
          "state was not created by HarmonicFunctionClassifier::MakeState");
    }
  }
  SolveStats local_stats;
  SIGHT_ASSIGN_OR_RETURN(
      std::vector<double> f,
      Solve(weights, labeled, harmonic_state, &local_stats));
  if (stats != nullptr) *stats = local_stats;
  return f;
}

std::unique_ptr<ClassifierState> HarmonicFunctionClassifier::MakeState()
    const {
  return std::make_unique<HarmonicSolveState>();
}

Result<std::vector<double>> HarmonicFunctionClassifier::Solve(
    const SimilarityMatrix& weights, const LabeledSet& labeled,
    HarmonicSolveState* state, SolveStats* stats) const {
  size_t n = weights.size();
  SIGHT_RETURN_IF_ERROR(internal::ValidateLabeledSet(n, labeled));

  double label_mean =
      std::accumulate(labeled.values.begin(), labeled.values.end(), 0.0) /
      static_cast<double>(labeled.size());

  const bool warm = state != nullptr && state->has_solution_;
  if (warm) {
    if (state->f_.size() != n) {
      return Status::InvalidArgument(
          StrFormat("solve state size %zu != pool size %zu",
                    state->f_.size(), n));
    }
    SIGHT_RETURN_IF_ERROR(ValidateStateExtends(state->labeled_, labeled));
  }

  std::vector<bool> is_labeled(n, false);
  // Start vector: the prior solution when warm, the label mean when cold;
  // labeled nodes clamp to their given values either way.
  std::vector<double> f =
      warm ? state->f_ : std::vector<double>(n, label_mean);
  for (size_t i = 0; i < labeled.size(); ++i) {
    is_labeled[labeled.indices[i]] = true;
    f[labeled.indices[i]] = labeled.values[i];
  }

  HarmonicSolver solver = config_.solver;
  if (solver == HarmonicSolver::kAuto) {
    size_t unlabeled = n - labeled.size();
    solver = unlabeled > kAutoCgThreshold
                 ? HarmonicSolver::kConjugateGradient
                 : HarmonicSolver::kGaussSeidel;
  }
  stats->warm = warm;
  std::vector<double> result;
  switch (solver) {
    case HarmonicSolver::kGaussSeidel:
      result = SolveGaussSeidel(weights, is_labeled, std::move(f),
                                label_mean, stats);
      break;
    case HarmonicSolver::kConjugateGradient:
      result = SolveConjugateGradient(weights, is_labeled, std::move(f),
                                      label_mean, stats);
      break;
    case HarmonicSolver::kAuto:
      return Status::Internal("unknown harmonic solver");
  }
  if (state != nullptr) {
    state->f_ = result;
    state->labeled_ = labeled;
    state->has_solution_ = true;
    state->total_iterations_ += stats->iterations;
    state->last_residual_ = stats->residual;
  }
  return result;
}

std::vector<double> HarmonicFunctionClassifier::SolveGaussSeidel(
    const SimilarityMatrix& w, const std::vector<bool>& is_labeled,
    std::vector<double> f, double label_mean, SolveStats* stats) const {
  size_t n = w.size();
  std::vector<size_t> unlabeled;
  for (size_t i = 0; i < n; ++i) {
    if (!is_labeled[i]) unlabeled.push_back(i);
  }
  std::vector<double> row_sums(n, 0.0);
  for (size_t u : unlabeled) {
    double sum = 0.0;
    for (const Neighbor& nb : w.Neighbors(u)) sum += nb.weight;
    row_sums[u] = sum;
    // Isolated nodes take the mean of the current labels. On a cold
    // start f[u] is already the mean, so this only moves values when a
    // warm start carried in a stale mean from an earlier labeled set.
    if (sum <= 0.0) f[u] = label_mean;
  }

  stats->solver = "gauss-seidel";
  stats->iterations = 0;
  stats->residual = 0.0;
  for (size_t iter = 0; iter < config_.max_iterations; ++iter) {
    double max_delta = 0.0;
    for (size_t u : unlabeled) {
      if (row_sums[u] <= 0.0) continue;  // isolated: stays at label mean
      double acc = 0.0;
      for (const Neighbor& nb : w.Neighbors(u)) acc += nb.weight * f[nb.index];
      double next = acc / row_sums[u];
      max_delta = std::max(max_delta, std::fabs(next - f[u]));
      f[u] = next;
    }
    ++stats->iterations;
    stats->residual = max_delta;
    if (max_delta < config_.tolerance) break;
  }
  return f;
}

std::vector<double> HarmonicFunctionClassifier::SolveConjugateGradient(
    const SimilarityMatrix& w, const std::vector<bool>& is_labeled,
    std::vector<double> f, double label_mean, SolveStats* stats) const {
  stats->solver = "conjugate-gradient";
  stats->iterations = 0;
  stats->residual = 0.0;
  size_t n = w.size();
  std::vector<size_t> unlabeled;
  // Position of node v in the unlabeled block, or SIZE_MAX for labeled
  // nodes, so the sparse matvec can map neighbor indices in O(1).
  constexpr size_t kLabeled = static_cast<size_t>(-1);
  std::vector<size_t> position(n, kLabeled);
  for (size_t i = 0; i < n; ++i) {
    if (!is_labeled[i]) {
      position[i] = unlabeled.size();
      unlabeled.push_back(i);
    }
  }
  size_t m = unlabeled.size();
  if (m == 0) return f;

  // System (D_uu - W_uu + eps I) x = W_ul f_l + eps * mean.
  // The tiny ridge keeps the system SPD even when an unlabeled component
  // has no labeled attachment (which would otherwise make the Laplacian
  // block singular); such components settle at the initialization mean.
  constexpr double kRidge = 1e-8;

  std::vector<double> diag(m, kRidge);
  std::vector<double> b(m, kRidge * label_mean);
  for (size_t a = 0; a < m; ++a) {
    size_t u = unlabeled[a];
    for (const Neighbor& nb : w.Neighbors(u)) {
      diag[a] += nb.weight;
      if (position[nb.index] == kLabeled) b[a] += nb.weight * f[nb.index];
    }
  }

  auto matvec = [&](const std::vector<double>& x, std::vector<double>* out) {
    for (size_t a = 0; a < m; ++a) {
      double acc = diag[a] * x[a];
      size_t u = unlabeled[a];
      for (const Neighbor& nb : w.Neighbors(u)) {
        size_t c = position[nb.index];
        if (c != kLabeled) acc -= nb.weight * x[c];
      }
      (*out)[a] = acc;
    }
  };

  // Start from the incoming f (cold: the label mean everywhere; warm: the
  // prior solution) so the initial residual measures distance from it.
  std::vector<double> x(m);
  for (size_t a = 0; a < m; ++a) x[a] = f[unlabeled[a]];
  std::vector<double> ax(m);
  matvec(x, &ax);
  std::vector<double> r(m);
  for (size_t a = 0; a < m; ++a) r[a] = b[a] - ax[a];
  std::vector<double> p = r;
  std::vector<double> ap(m);

  // Converge on the residual relative to ||b|| so the stopping point does
  // not drift with pool size or label scale; the max(1, ...) floor keeps
  // near-zero right-hand sides (no labeled attachment anywhere) from
  // demanding impossible absolute accuracy.
  double b_norm = std::sqrt(std::inner_product(b.begin(), b.end(), b.begin(),
                                               0.0));
  const double stop_threshold = config_.tolerance * std::max(1.0, b_norm);

  double rs_old = std::inner_product(r.begin(), r.end(), r.begin(), 0.0);
  for (size_t iter = 0; iter < config_.max_iterations && iter < m + 8;
       ++iter) {
    if (std::sqrt(rs_old) < stop_threshold) break;
    matvec(p, &ap);
    double p_ap = std::inner_product(p.begin(), p.end(), ap.begin(), 0.0);
    if (p_ap <= 0.0) break;  // numerical safety
    double alpha = rs_old / p_ap;
    for (size_t a = 0; a < m; ++a) {
      x[a] += alpha * p[a];
      r[a] -= alpha * ap[a];
    }
    double rs_new = std::inner_product(r.begin(), r.end(), r.begin(), 0.0);
    double beta = rs_new / rs_old;
    for (size_t a = 0; a < m; ++a) p[a] = r[a] + beta * p[a];
    rs_old = rs_new;
    ++stats->iterations;
  }
  stats->residual = std::sqrt(rs_old);

  for (size_t a = 0; a < m; ++a) f[unlabeled[a]] = x[a];
  return f;
}

}  // namespace sight
