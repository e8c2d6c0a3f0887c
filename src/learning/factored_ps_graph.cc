#include "learning/factored_ps_graph.h"

#include <algorithm>
#include <numeric>

#include "graph/profile_codec.h"
#include "util/logging.h"

namespace sight {
namespace {

// Fenwick trees over one attribute's `len` ranks, 0-based: entry k - 1
// covers ranks (k - (k & -k), k]. Prefix(k) sums ranks [0, k).
double Prefix(const double* tree, size_t k) {
  double sum = 0.0;
  for (; k > 0; k &= k - 1) sum += tree[k - 1];
  return sum;
}

void Add(double* tree, size_t len, size_t rank, double delta) {
  for (size_t k = rank + 1; k <= len; k += k & (~k + 1)) tree[k - 1] += delta;
}

// Turns `len` per-rank values in place into their Fenwick tree, in O(len).
void Build(double* tree, size_t len) {
  for (size_t k = 1; k <= len; ++k) {
    const size_t parent = k + (k & (~k + 1));
    if (parent <= len) tree[parent - 1] += tree[k - 1];
  }
}

}  // namespace

FactoredPsGraph::FactoredPsGraph(
    const uint32_t* rows, size_t num_rows, std::span<const double> weights,
    std::span<const std::span<const double>> frequencies)
    : n_(num_rows), weights_(weights.begin(), weights.end()) {
  const size_t attributes = weights_.size();
  SIGHT_CHECK(frequencies.size() == attributes);
  values_.assign(n_ * attributes, kMissing);
  offsets_.assign(attributes + 1, 0);
  // code -> value id on the current attribute, kMissing while unseen.
  std::vector<uint32_t> local;
  for (size_t a = 0; a < attributes; ++a) {
    const std::span<const double> f = frequencies[a];
    const uint32_t first = offsets_[a];
    local.clear();
    for (size_t i = 0; i < n_; ++i) {
      const uint32_t code = rows[i * attributes + a];
      if (code == ProfileCodec::kMissingCode) continue;
      if (code >= local.size()) local.resize(size_t{code} + 1, kMissing);
      if (local[code] == kMissing) {
        local[code] = static_cast<uint32_t>(frequency_.size());
        frequency_.push_back(code < f.size() ? f[code] : 0.0);
      }
      values_[i * attributes + a] = local[code];
    }
    const uint32_t last = static_cast<uint32_t>(frequency_.size());
    offsets_[a + 1] = last;
    order_.resize(last);
    std::iota(order_.begin() + first, order_.end(), first);
    std::sort(order_.begin() + first, order_.end(),
              [this](uint32_t x, uint32_t y) {
                return frequency_[x] != frequency_[y]
                           ? frequency_[x] < frequency_[y]
                           : x < y;
              });
  }
  rank_.resize(frequency_.size());
  for (size_t a = 0; a < attributes; ++a) {
    for (uint32_t k = offsets_[a]; k < offsets_[a + 1]; ++k) {
      rank_[order_[k]] = k - offsets_[a];
    }
  }
  // W 1: every per-value sum of ones is that value's count, exact in a
  // double, so a member's own term (count - 1) and the other values'
  // terms are each exactly zero when no other member is present there.
  Scratch scratch;
  degrees_.assign(n_, 0.0);
  Apply(std::vector<double>(n_, 1.0), degrees_, &scratch);
}

double FactoredPsGraph::Get(size_t i, size_t j) const {
  SIGHT_CHECK(i < n_ && j < n_);
  if (i == j) return 0.0;
  double total = 0.0;
  for (size_t a = 0; a < weights_.size(); ++a) {
    const uint32_t vi = ValueOf(i, a);
    const uint32_t vj = ValueOf(j, a);
    if (vi == kMissing || vj == kMissing) continue;
    const double sim =
        vi == vj ? 1.0 : std::min(frequency_[vi], frequency_[vj]);
    total += weights_[a] * sim;
  }
  return total;
}

void FactoredPsGraph::Apply(std::span<const double> x, std::span<double> out,
                            Scratch* scratch) const {
  SIGHT_CHECK(x.size() == n_ && out.size() == n_);
  const size_t attributes = weights_.size();
  std::vector<double>& sums = scratch->sums;
  std::vector<double>& others = scratch->others;
  // 1. X per value, summed in member order.
  sums.assign(frequency_.size(), 0.0);
  for (size_t i = 0; i < n_; ++i) {
    for (size_t a = 0; a < attributes; ++a) {
      const uint32_t v = ValueOf(i, a);
      if (v != kMissing) sums[v] += x[i];
    }
  }
  // 2. sum_{u != v} min(f_v, f_u) X_u per value, over the values in
  // (frequency, id) order: f_v times the X above v's rank, plus the f X
  // below it. A tie's min is either frequency, so ties may sit on either
  // side.
  others.resize(frequency_.size());
  for (size_t a = 0; a < attributes; ++a) {
    const uint32_t* begin = order_.data() + offsets_[a];
    const uint32_t* end = order_.data() + offsets_[a + 1];
    double above = 0.0;
    for (const uint32_t* it = end; it != begin;) {
      const uint32_t v = *--it;
      others[v] = frequency_[v] * above;
      above += sums[v];
    }
    double below = 0.0;
    for (const uint32_t* it = begin; it != end; ++it) {
      others[*it] += below;
      below += frequency_[*it] * sums[*it];
    }
  }
  // 3. Back to the members, in attribute order, less each one's own x.
  for (size_t i = 0; i < n_; ++i) {
    double acc = 0.0;
    for (size_t a = 0; a < attributes; ++a) {
      const uint32_t v = ValueOf(i, a);
      if (v == kMissing) continue;
      acc += weights_[a] * ((sums[v] - x[i]) + others[v]);
    }
    out[i] = acc;
  }
}

FactoredPsGraph::RunningProduct::RunningProduct(const FactoredPsGraph& graph)
    : graph_(graph),
      sums_(graph.frequency_.size()),
      below_(graph.frequency_.size()),
      above_(graph.frequency_.size()) {}

void FactoredPsGraph::RunningProduct::Reset(std::span<const double> x) {
  const FactoredPsGraph& g = graph_;
  SIGHT_CHECK(x.size() == g.n_);
  const size_t attributes = g.weights_.size();
  std::fill(sums_.begin(), sums_.end(), 0.0);
  for (size_t i = 0; i < g.n_; ++i) {
    for (size_t a = 0; a < attributes; ++a) {
      const uint32_t v = g.ValueOf(i, a);
      if (v != kMissing) sums_[v] += x[i];
    }
  }
  for (size_t a = 0; a < attributes; ++a) {
    const uint32_t first = g.offsets_[a];
    const size_t len = g.offsets_[a + 1] - first;
    for (size_t k = 0; k < len; ++k) {
      const uint32_t v = g.order_[first + k];
      below_[first + k] = g.frequency_[v] * sums_[v];
      above_[first + len - 1 - k] = sums_[v];
    }
    Build(below_.data() + first, len);
    Build(above_.data() + first, len);
  }
}

double FactoredPsGraph::RunningProduct::Row(size_t u, double x_u) const {
  const FactoredPsGraph& g = graph_;
  double acc = 0.0;
  for (size_t a = 0; a < g.weights_.size(); ++a) {
    const uint32_t v = g.ValueOf(u, a);
    if (v == kMissing) continue;
    const uint32_t first = g.offsets_[a];
    const size_t len = g.offsets_[a + 1] - first;
    const size_t rank = g.rank_[v];
    const double others =
        g.frequency_[v] * Prefix(above_.data() + first, len - 1 - rank) +
        Prefix(below_.data() + first, rank);
    acc += g.weights_[a] * ((sums_[v] - x_u) + others);
  }
  return acc;
}

void FactoredPsGraph::RunningProduct::Move(size_t u, double delta) {
  const FactoredPsGraph& g = graph_;
  for (size_t a = 0; a < g.weights_.size(); ++a) {
    const uint32_t v = g.ValueOf(u, a);
    if (v == kMissing) continue;
    const uint32_t first = g.offsets_[a];
    const size_t len = g.offsets_[a + 1] - first;
    const size_t rank = g.rank_[v];
    sums_[v] += delta;
    Add(below_.data() + first, len, rank, g.frequency_[v] * delta);
    Add(above_.data() + first, len, len - 1 - rank, delta);
  }
}

}  // namespace sight
