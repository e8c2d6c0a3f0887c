#include "learning/harmonic.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
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

// CG's system is (D_uu - W_uu + eps I) x = W_ul f_l + eps * mean. The tiny
// ridge keeps it SPD even when an unlabeled component has no labeled
// attachment (which would otherwise make the Laplacian block singular);
// such components settle at the initialization mean.
constexpr double kRidge = 1e-8;

// The unlabeled block of a solve: its nodes ascending, and each node's
// position in it (kLabeled for labeled nodes), so a product can map
// neighbor indices in O(1).
constexpr size_t kLabeled = static_cast<size_t>(-1);
struct UnlabeledBlock {
  std::vector<size_t> nodes;
  std::vector<size_t> position;

  explicit UnlabeledBlock(const std::vector<bool>& is_labeled)
      : position(is_labeled.size(), kLabeled) {
    for (size_t i = 0; i < is_labeled.size(); ++i) {
      if (!is_labeled[i]) {
        position[i] = nodes.size();
        nodes.push_back(i);
      }
    }
  }
};

// What the two loops read of a graph, one class per representation.
// Gauss-Seidel: Degree(u), then per sweep BeginSweep(f), and per node
// Row(u, f) = (W f)_u followed by Moved(u, delta) once f[u] changes.
// Conjugate gradient: System() fills the diagonal and right-hand side of
// the unlabeled block, Product() one matvec of it.

// A CSR graph: per-row neighbor lists, summed in index order. CG's
// System() also records the unlabeled block's own CSR — for each
// unlabeled row, its unlabeled neighbors' block positions and weights,
// in neighbor order — so Product() maps no index and skips no labeled
// neighbor, while each row keeps the order of its subtractions, and so
// its bits. The block is the solve's scratch and dies with it.
class CsrOperator {
 public:
  explicit CsrOperator(const SimilarityMatrix& w) : w_(w) {}

  double Degree(size_t u) const {
    double sum = 0.0;
    for (const Neighbor& nb : w_.Neighbors(u)) sum += nb.weight;
    return sum;
  }
  void BeginSweep(const std::vector<double>& /*f*/) {}
  double Row(size_t u, const std::vector<double>& f) const {
    double acc = 0.0;
    for (const Neighbor& nb : w_.Neighbors(u)) acc += nb.weight * f[nb.index];
    return acc;
  }
  void Moved(size_t /*u*/, double /*delta*/) {}

  void System(const UnlabeledBlock& block, const std::vector<double>& f,
              double label_mean, std::vector<double>* diag,
              std::vector<double>* b) {
    const size_t m = block.nodes.size();
    SIGHT_CHECK(m <= std::numeric_limits<uint32_t>::max());
    diag->assign(m, kRidge);
    b->assign(m, kRidge * label_mean);
    size_t edges = 0;  // every edge of an unlabeled row: an upper bound
    for (size_t u : block.nodes) edges += w_.Neighbors(u).size();
    block_offsets_.assign(1, 0);
    block_offsets_.reserve(m + 1);
    block_index_.clear();
    block_index_.reserve(edges);
    block_weight_.clear();
    block_weight_.reserve(edges);
    for (size_t a = 0; a < m; ++a) {
      for (const Neighbor& nb : w_.Neighbors(block.nodes[a])) {
        (*diag)[a] += nb.weight;
        const size_t c = block.position[nb.index];
        if (c == kLabeled) {
          (*b)[a] += nb.weight * f[nb.index];
        } else {
          block_index_.push_back(static_cast<uint32_t>(c));
          block_weight_.push_back(nb.weight);
        }
      }
      block_offsets_.push_back(block_index_.size());
    }
  }
  // Rows go two at a time, their subtractions interleaved while both
  // have entries left: each row still subtracts in its own order, and
  // the two rows' dependency chains overlap instead of running back to
  // back.
  void Product(const UnlabeledBlock& /*block*/,
               const std::vector<double>& diag, const std::vector<double>& x,
               std::vector<double>* out) {
    const size_t m = diag.size();
    const size_t* offsets = block_offsets_.data();
    const uint32_t* index = block_index_.data();
    const double* weight = block_weight_.data();
    size_t a = 0;
    for (; a + 1 < m; a += 2) {
      double acc0 = diag[a] * x[a];
      double acc1 = diag[a + 1] * x[a + 1];
      size_t e0 = offsets[a];
      size_t e1 = offsets[a + 1];
      const size_t end0 = offsets[a + 1];
      const size_t end1 = offsets[a + 2];
      for (; e0 < end0 && e1 < end1; ++e0, ++e1) {
        acc0 -= weight[e0] * x[index[e0]];
        acc1 -= weight[e1] * x[index[e1]];
      }
      for (; e0 < end0; ++e0) acc0 -= weight[e0] * x[index[e0]];
      for (; e1 < end1; ++e1) acc1 -= weight[e1] * x[index[e1]];
      (*out)[a] = acc0;
      (*out)[a + 1] = acc1;
    }
    if (a < m) {
      double acc = diag[a] * x[a];
      for (size_t e = offsets[a]; e < offsets[a + 1]; ++e) {
        acc -= weight[e] * x[index[e]];
      }
      (*out)[a] = acc;
    }
  }

 private:
  const SimilarityMatrix& w_;
  // The unlabeled block's CSR: row a is [block_offsets_[a],
  // block_offsets_[a + 1]) of the two parallel arrays.
  std::vector<size_t> block_offsets_;
  std::vector<uint32_t> block_index_;
  std::vector<double> block_weight_;
};

// A factored PS graph: degrees from the graph, products through it. The
// scratch lives here, so it is the solve's own and is reused across its
// iterations.
class FactoredOperator {
 public:
  explicit FactoredOperator(const FactoredPsGraph& g) : g_(g), running_(g) {}

  double Degree(size_t u) const { return g_.Degrees()[u]; }
  void BeginSweep(const std::vector<double>& f) { running_.Reset(f); }
  double Row(size_t u, const std::vector<double>& f) const {
    return running_.Row(u, f[u]);
  }
  void Moved(size_t u, double delta) { running_.Move(u, delta); }

  // b is W_ul f_l: one product of the labeled values.
  void System(const UnlabeledBlock& block, const std::vector<double>& f,
              double label_mean, std::vector<double>* diag,
              std::vector<double>* b) {
    const size_t m = block.nodes.size();
    z_.assign(g_.size(), 0.0);
    wz_.resize(g_.size());
    for (size_t i = 0; i < g_.size(); ++i) {
      if (block.position[i] == kLabeled) z_[i] = f[i];
    }
    g_.Apply(z_, wz_, &scratch_);
    diag->resize(m);
    b->resize(m);
    for (size_t a = 0; a < m; ++a) {
      (*diag)[a] = kRidge + g_.Degrees()[block.nodes[a]];
      (*b)[a] = kRidge * label_mean + wz_[block.nodes[a]];
    }
  }
  // (D_uu - W_uu + eps I) x: W applied to x spread over the unlabeled
  // nodes, zero on the labeled ones.
  void Product(const UnlabeledBlock& block, const std::vector<double>& diag,
               const std::vector<double>& x, std::vector<double>* out) {
    std::fill(z_.begin(), z_.end(), 0.0);
    for (size_t a = 0; a < block.nodes.size(); ++a) z_[block.nodes[a]] = x[a];
    g_.Apply(z_, wz_, &scratch_);
    for (size_t a = 0; a < block.nodes.size(); ++a) {
      (*out)[a] = diag[a] * x[a] - wz_[block.nodes[a]];
    }
  }

 private:
  const FactoredPsGraph& g_;
  FactoredPsGraph::RunningProduct running_;
  FactoredPsGraph::Scratch scratch_;
  std::vector<double> z_;
  std::vector<double> wz_;
};

template <typename Operator>
std::vector<double> SolveGaussSeidel(Operator& w, const HarmonicConfig& config,
                                     const std::vector<bool>& is_labeled,
                                     std::vector<double> f, double label_mean,
                                     SolveStats* stats) {
  size_t n = f.size();
  std::vector<size_t> unlabeled;
  for (size_t i = 0; i < n; ++i) {
    if (!is_labeled[i]) unlabeled.push_back(i);
  }
  std::vector<double> row_sums(n, 0.0);
  for (size_t u : unlabeled) {
    double sum = w.Degree(u);
    row_sums[u] = sum;
    // Isolated nodes take the mean of the current labels. On a cold
    // start f[u] is already the mean, so this only moves values when a
    // warm start carried in a stale mean from an earlier labeled set.
    if (sum <= 0.0) f[u] = label_mean;
  }

  stats->solver = "gauss-seidel";
  stats->iterations = 0;
  stats->residual = 0.0;
  for (size_t iter = 0; iter < config.max_iterations; ++iter) {
    w.BeginSweep(f);
    double max_delta = 0.0;
    for (size_t u : unlabeled) {
      if (row_sums[u] <= 0.0) continue;  // isolated: stays at label mean
      double next = w.Row(u, f) / row_sums[u];
      max_delta = std::max(max_delta, std::fabs(next - f[u]));
      w.Moved(u, next - f[u]);
      f[u] = next;
    }
    ++stats->iterations;
    stats->residual = max_delta;
    if (max_delta < config.tolerance) break;
  }
  return f;
}

template <typename Operator>
std::vector<double> SolveConjugateGradient(
    Operator& w, const HarmonicConfig& config,
    const std::vector<bool>& is_labeled, std::vector<double> f,
    double label_mean, SolveStats* stats) {
  stats->solver = "conjugate-gradient";
  stats->iterations = 0;
  stats->residual = 0.0;
  const UnlabeledBlock block(is_labeled);
  const std::vector<size_t>& unlabeled = block.nodes;
  size_t m = unlabeled.size();
  if (m == 0) return f;

  std::vector<double> diag;
  std::vector<double> b;
  w.System(block, f, label_mean, &diag, &b);

  // Start from the incoming f (cold: the label mean everywhere; warm: the
  // prior solution) so the initial residual measures distance from it.
  std::vector<double> x(m);
  for (size_t a = 0; a < m; ++a) x[a] = f[unlabeled[a]];
  std::vector<double> ax(m);
  w.Product(block, diag, x, &ax);
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
  const double stop_threshold = config.tolerance * std::max(1.0, b_norm);

  double rs_old = std::inner_product(r.begin(), r.end(), r.begin(), 0.0);
  for (size_t iter = 0; iter < config.max_iterations && iter < m + 8;
       ++iter) {
    if (std::sqrt(rs_old) < stop_threshold) break;
    w.Product(block, diag, p, &ap);
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
    const PoolGraph& graph, const LabeledSet& labeled) const {
  SolveStats stats;
  return Solve(graph, labeled, nullptr, &stats);
}

Result<std::vector<double>> HarmonicFunctionClassifier::PredictWithState(
    const PoolGraph& graph, const LabeledSet& labeled,
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
      Solve(graph, labeled, harmonic_state, &local_stats));
  if (stats != nullptr) *stats = local_stats;
  return f;
}

std::unique_ptr<ClassifierState> HarmonicFunctionClassifier::MakeState()
    const {
  return std::make_unique<HarmonicSolveState>();
}

Result<std::vector<double>> HarmonicFunctionClassifier::Solve(
    const PoolGraph& graph, const LabeledSet& labeled,
    HarmonicSolveState* state, SolveStats* stats) const {
  size_t n = graph.size();
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
  auto run = [&](auto w) {
    return solver == HarmonicSolver::kGaussSeidel
               ? SolveGaussSeidel(w, config_, is_labeled, std::move(f),
                                  label_mean, stats)
               : SolveConjugateGradient(w, config_, is_labeled, std::move(f),
                                        label_mean, stats);
  };
  std::vector<double> result = graph.factored() != nullptr
                                   ? run(FactoredOperator(*graph.factored()))
                                   : run(CsrOperator(*graph.csr()));
  if (state != nullptr) {
    state->f_ = result;
    state->labeled_ = labeled;
    state->has_solution_ = true;
    state->total_iterations_ += stats->iterations;
    state->last_residual_ = stats->residual;
  }
  return result;
}

}  // namespace sight
