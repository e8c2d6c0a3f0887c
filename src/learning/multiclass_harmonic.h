// Multiclass harmonic-function classifier with Class Mass Normalization
// (the full formulation of Zhu, Ghahramani, Lafferty 2003).
//
// HarmonicFunctionClassifier embeds the ordinal labels {1,2,3} as reals
// and solves one harmonic problem — compact and usually sufficient. The
// original paper instead solves one harmonic function per class c with
// boundary values 1[y = c]; f_c(u) is then the probability that the
// absorbing random walk from u first hits a c-labeled node. Class Mass
// Normalization (CMN) rescales those scores so the predicted class mass
// matches the empirical class priors of the labeled set — Zhu et al.'s
// fix for harmonic solutions drifting toward whichever class dominates
// the labeled sample.
//
// The continuous output is the posterior-expected label value
// sum_c c * p_c(u), which keeps the GraphClassifier contract (rounding
// gives a discrete label; values stay in [label_min, label_max]).

#ifndef SIGHT_LEARNING_MULTICLASS_HARMONIC_H_
#define SIGHT_LEARNING_MULTICLASS_HARMONIC_H_

#include <string>
#include <vector>

#include "learning/classifier.h"
#include "learning/harmonic.h"
#include "util/status.h"

namespace sight {

class ThreadPool;

struct MulticlassHarmonicConfig {
  HarmonicConfig solver;
  /// Apply Zhu et al.'s Class Mass Normalization.
  bool class_mass_normalization = true;
  /// Discrete label range; labeled values must be integers in this range.
  int label_min = 1;
  int label_max = 3;
  /// Optional worker pool for the independent per-class harmonic solves
  /// (non-owning; must outlive the classifier). Null runs them serially;
  /// scores are identical either way.
  ThreadPool* thread_pool = nullptr;
};

class MulticlassHarmonicClassifier : public GraphClassifier {
 public:
  [[nodiscard]]
  static Result<MulticlassHarmonicClassifier> Create(
      MulticlassHarmonicConfig config);

  /// Labeled values must be (numerically) integers within the configured
  /// label range; InvalidArgument otherwise.
  [[nodiscard]]
  Result<std::vector<double>> Predict(const PoolGraph& graph,
                                      const LabeledSet& labeled) const override;

  std::string name() const override {
    return config_.class_mass_normalization ? "harmonic-cmn"
                                            : "harmonic-multiclass";
  }

  /// Per-class scores for unlabeled nodes (row-major: node-major, one
  /// entry per class), exposed for tests and diagnostics. Labeled nodes
  /// get a one-hot row. The per-class solves share `graph`, which every
  /// representation allows: a solve keeps its scratch to itself.
  [[nodiscard]]
  Result<std::vector<std::vector<double>>> ClassScores(
      const PoolGraph& graph, const LabeledSet& labeled) const;

 private:
  explicit MulticlassHarmonicClassifier(MulticlassHarmonicConfig config,
                                        HarmonicFunctionClassifier base)
      : config_(config), base_(std::move(base)) {}

  size_t num_classes() const {
    return static_cast<size_t>(config_.label_max - config_.label_min + 1);
  }

  MulticlassHarmonicConfig config_;
  HarmonicFunctionClassifier base_;
};

}  // namespace sight

#endif  // SIGHT_LEARNING_MULTICLASS_HARMONIC_H_
