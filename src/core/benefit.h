// The paper's benefit measure (Section II):
//
//   B(o, s) = (1 / |M|) * sum_{i in M} theta_i * V_s(i, o)
//
// M is the set of benefit items on the stranger's profile (the seven items
// of graph/visibility.h), theta_i the owner-assigned importance of item i,
// and V_s(i, o) = 1 iff item i of s's profile is visible to the owner.

#ifndef SIGHT_CORE_BENEFIT_H_
#define SIGHT_CORE_BENEFIT_H_

#include <array>
#include <vector>

#include "graph/types.h"
#include "graph/visibility.h"
#include "util/status.h"

namespace sight {

/// Owner-assigned importance coefficients, indexed by ProfileItem.
struct ThetaWeights {
  std::array<double, kNumProfileItems> values;

  /// Uniform weights (theta_i = 1 for all items).
  static ThetaWeights Uniform();

  /// The paper's average owner-given weights (Table III), normalized to
  /// sum 1: hometown .155, friend .149, photo .147, location .143,
  /// education .1393, wall .1328, work .1321.
  static ThetaWeights PaperTable3();

  double operator[](ProfileItem item) const {
    return values[static_cast<size_t>(item)];
  }
  double& operator[](ProfileItem item) {
    return values[static_cast<size_t>(item)];
  }

  /// InvalidArgument when any weight is negative or not finite, when
  /// their sum overflows, or when all are zero.
  [[nodiscard]] Status Validate() const;
};

/// Computes B(o, s) over a visibility table.
class BenefitModel {
 public:
  [[nodiscard]] static Result<BenefitModel> Create(ThetaWeights theta);

  /// B(o, s) in [0, max theta]. With theta in [0,1] the result is in
  /// [0, 1]. The owner argument is implicit in the visibility table (which
  /// stores stranger-facing visibility).
  double Compute(const VisibilityTable& visibility, UserId stranger) const;

  /// Benefit for each stranger, in order.
  std::vector<double> ComputeBatch(const VisibilityTable& visibility,
                                   const std::vector<UserId>& strangers) const;

  const ThetaWeights& theta() const { return theta_; }

 private:
  explicit BenefitModel(ThetaWeights theta) : theta_(theta) {}

  ThetaWeights theta_;
};

}  // namespace sight

#endif  // SIGHT_CORE_BENEFIT_H_
