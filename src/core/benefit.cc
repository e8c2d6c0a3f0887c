#include "core/benefit.h"

#include <cmath>

namespace sight {

ThetaWeights ThetaWeights::Uniform() {
  ThetaWeights theta;
  theta.values.fill(1.0);
  return theta;
}

ThetaWeights ThetaWeights::PaperTable3() {
  ThetaWeights theta;
  theta[ProfileItem::kHometown] = 0.155;
  theta[ProfileItem::kFriendList] = 0.149;
  theta[ProfileItem::kPhoto] = 0.147;
  theta[ProfileItem::kLocation] = 0.143;
  theta[ProfileItem::kEducation] = 0.1393;
  theta[ProfileItem::kWall] = 0.1328;
  theta[ProfileItem::kWork] = 0.1321;
  return theta;
}

Status ThetaWeights::Validate() const {
  double sum = 0.0;
  for (double v : values) {
    if (!(std::isfinite(v) && v >= 0.0)) {
      return Status::InvalidArgument(
          "theta weights must be finite and non-negative");
    }
    sum += v;
  }
  if (!std::isfinite(sum)) {
    return Status::InvalidArgument("theta weights must have a finite sum");
  }
  if (!(sum > 0.0)) {
    return Status::InvalidArgument("theta weights must not all be zero");
  }
  return Status::OK();
}

Result<BenefitModel> BenefitModel::Create(ThetaWeights theta) {
  SIGHT_RETURN_IF_ERROR(theta.Validate());
  return BenefitModel(theta);
}

double BenefitModel::Compute(const VisibilityTable& visibility,
                             UserId stranger) const {
  double sum = 0.0;
  for (ProfileItem item : kAllProfileItems) {
    if (visibility.IsVisible(stranger, item)) sum += theta_[item];
  }
  return sum / static_cast<double>(kNumProfileItems);
}

std::vector<double> BenefitModel::ComputeBatch(
    const VisibilityTable& visibility,
    const std::vector<UserId>& strangers) const {
  std::vector<double> result;
  result.reserve(strangers.size());
  for (UserId s : strangers) result.push_back(Compute(visibility, s));
  return result;
}

}  // namespace sight
