#include "learning/multiclass_harmonic.h"

#include <cmath>
#include <optional>

#include "util/string_util.h"
#include "util/thread_pool.h"

namespace sight {

Result<MulticlassHarmonicClassifier> MulticlassHarmonicClassifier::Create(
    MulticlassHarmonicConfig config) {
  if (config.label_min > config.label_max) {
    return Status::InvalidArgument(
        StrFormat("invalid label range [%d, %d]", config.label_min,
                  config.label_max));
  }
  SIGHT_ASSIGN_OR_RETURN(HarmonicFunctionClassifier base,
                         HarmonicFunctionClassifier::Create(config.solver));
  return MulticlassHarmonicClassifier(config, std::move(base));
}

Result<std::vector<std::vector<double>>>
MulticlassHarmonicClassifier::ClassScores(const PoolGraph& graph,
                                          const LabeledSet& labeled) const {
  size_t n = graph.size();
  SIGHT_RETURN_IF_ERROR(internal::ValidateLabeledSet(n, labeled));

  size_t classes = num_classes();
  std::vector<size_t> class_of_label(labeled.size());
  std::vector<size_t> class_counts(classes, 0);
  for (size_t i = 0; i < labeled.size(); ++i) {
    double v = labeled.values[i];
    double rounded = std::round(v);
    if (!(std::fabs(v - rounded) <= 1e-9 && rounded >= config_.label_min &&
          rounded <= config_.label_max)) {
      return Status::InvalidArgument(StrFormat(
          "labeled value %f is not an integer label in [%d, %d]", v,
          config_.label_min, config_.label_max));
    }
    size_t c = static_cast<size_t>(static_cast<int>(rounded) -
                                   config_.label_min);
    class_of_label[i] = c;
    ++class_counts[c];
  }

  std::vector<bool> is_labeled(n, false);
  for (size_t idx : labeled.indices) is_labeled[idx] = true;

  // One harmonic solve per class with one-hot boundary values. The solves
  // are independent, so they fan out across the configured pool; CMN
  // scoring below stays serial and in class order, keeping results
  // identical to the single-threaded path.
  std::vector<std::optional<Result<std::vector<double>>>> solved(classes);
  ParallelFor(config_.thread_pool, classes, [&](size_t c) {
    LabeledSet one_hot;
    for (size_t i = 0; i < labeled.size(); ++i) {
      one_hot.Add(labeled.indices[i], class_of_label[i] == c ? 1.0 : 0.0);
    }
    solved[c].emplace(base_.Predict(graph, one_hot));
  });

  std::vector<std::vector<double>> scores(n,
                                          std::vector<double>(classes, 0.0));
  for (size_t c = 0; c < classes; ++c) {
    if (!solved[c]->ok()) return solved[c]->status();
    const std::vector<double>& f = solved[c]->value();
    double mass = 0.0;
    for (size_t u = 0; u < n; ++u) {
      if (!is_labeled[u]) mass += std::max(0.0, f[u]);
    }
    double scale = 1.0;
    if (config_.class_mass_normalization && mass > 0.0) {
      double prior = static_cast<double>(class_counts[c]) /
                     static_cast<double>(labeled.size());
      scale = prior / mass;
    }
    for (size_t u = 0; u < n; ++u) {
      scores[u][c] = is_labeled[u] ? f[u] : std::max(0.0, f[u]) * scale;
    }
  }
  return scores;
}

Result<std::vector<double>> MulticlassHarmonicClassifier::Predict(
    const PoolGraph& graph, const LabeledSet& labeled) const {
  SIGHT_ASSIGN_OR_RETURN(std::vector<std::vector<double>> scores,
                         ClassScores(graph, labeled));
  size_t n = graph.size();
  size_t classes = num_classes();

  double label_mean = 0.0;
  for (double v : labeled.values) label_mean += v;
  label_mean /= static_cast<double>(labeled.size());

  std::vector<double> f(n, label_mean);
  for (size_t u = 0; u < n; ++u) {
    double total = 0.0;
    double expectation = 0.0;
    for (size_t c = 0; c < classes; ++c) {
      double label_value = static_cast<double>(config_.label_min) +
                           static_cast<double>(c);
      total += scores[u][c];
      expectation += label_value * scores[u][c];
    }
    if (total > 0.0) f[u] = expectation / total;
  }
  // Labeled nodes keep their exact values.
  for (size_t i = 0; i < labeled.size(); ++i) {
    f[labeled.indices[i]] = labeled.values[i];
  }
  return f;
}

}  // namespace sight
