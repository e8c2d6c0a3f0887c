#include "learning/baselines.h"

#include <algorithm>
#include <map>
#include <numeric>

namespace sight {

Result<KnnClassifier> KnnClassifier::Create(size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  return KnnClassifier(k);
}

Result<std::vector<double>> KnnClassifier::Predict(
    const PoolGraph& graph, const LabeledSet& labeled) const {
  size_t n = graph.size();
  SIGHT_RETURN_IF_ERROR(internal::ValidateLabeledSet(n, labeled));

  double label_mean =
      std::accumulate(labeled.values.begin(), labeled.values.end(), 0.0) /
      static_cast<double>(labeled.size());

  std::vector<double> f(n, label_mean);
  std::vector<bool> is_labeled(n, false);
  for (size_t i = 0; i < labeled.size(); ++i) {
    is_labeled[labeled.indices[i]] = true;
    f[labeled.indices[i]] = labeled.values[i];
  }

  std::vector<std::pair<double, double>> sims;  // (similarity, label value)
  for (size_t u = 0; u < n; ++u) {
    if (is_labeled[u]) continue;
    sims.clear();
    for (size_t i = 0; i < labeled.size(); ++i) {
      double w = graph.Get(u, labeled.indices[i]);
      if (w > 0.0) sims.emplace_back(w, labeled.values[i]);
    }
    if (sims.empty()) continue;  // stays at mean
    size_t take = std::min(k_, sims.size());
    std::partial_sort(sims.begin(), sims.begin() + static_cast<ptrdiff_t>(take),
                      sims.end(), std::greater<>());
    double wsum = 0.0;
    double acc = 0.0;
    for (size_t t = 0; t < take; ++t) {
      wsum += sims[t].first;
      acc += sims[t].first * sims[t].second;
    }
    f[u] = acc / wsum;
  }
  return f;
}

Result<std::vector<double>> MajorityClassifier::Predict(
    const PoolGraph& graph, const LabeledSet& labeled) const {
  size_t n = graph.size();
  SIGHT_RETURN_IF_ERROR(internal::ValidateLabeledSet(n, labeled));

  std::map<double, size_t> counts;
  for (double v : labeled.values) ++counts[v];
  double majority = counts.begin()->first;
  size_t best = counts.begin()->second;
  for (const auto& [value, count] : counts) {
    if (count > best) {  // ties keep the smaller label
      best = count;
      majority = value;
    }
  }

  std::vector<double> f(n, majority);
  for (size_t i = 0; i < labeled.size(); ++i) {
    f[labeled.indices[i]] = labeled.values[i];
  }
  return f;
}

}  // namespace sight
