#include "core/label_policy.h"

namespace sight {

LabelAccessPolicy LabelAccessPolicy::Default() {
  LabelAccessPolicy policy;
  for (ProfileItem item : kAllProfileItems) {
    policy.Allow(RiskLabel::kNotRisky, item);
  }
  policy.Allow(RiskLabel::kRisky, ProfileItem::kPhoto);
  policy.Allow(RiskLabel::kRisky, ProfileItem::kHometown);
  policy.Allow(RiskLabel::kRisky, ProfileItem::kLocation);
  // Very risky: nothing.
  return policy;
}

void LabelAccessPolicy::Allow(RiskLabel label, ProfileItem item,
                              bool allowed) {
  uint8_t bit = static_cast<uint8_t>(1u << static_cast<uint8_t>(item));
  if (allowed) {
    masks_[IndexOf(label)] |= bit;
  } else {
    masks_[IndexOf(label)] &= static_cast<uint8_t>(~bit);
  }
}

bool LabelAccessPolicy::IsAllowed(RiskLabel label, ProfileItem item) const {
  return (masks_[IndexOf(label)] >> static_cast<uint8_t>(item)) & 1u;
}

uint8_t LabelAccessPolicy::AllowedMask(RiskLabel label) const {
  return masks_[IndexOf(label)];
}

bool LabelAccessPolicy::IsMonotone() const {
  // mask(not risky) ⊇ mask(risky) ⊇ mask(very risky).
  uint8_t not_risky = masks_[0];
  uint8_t risky = masks_[1];
  uint8_t very_risky = masks_[2];
  return (not_risky & risky) == risky && (risky & very_risky) == very_risky;
}

std::vector<StrangerAccess> ApplyAccessPolicy(
    const AssessmentResult& assessment, const LabelAccessPolicy& policy) {
  std::vector<StrangerAccess> result;
  result.reserve(assessment.strangers.size());
  for (const StrangerAssessment& sa : assessment.strangers) {
    StrangerAccess access;
    access.stranger = sa.stranger;
    access.label = sa.predicted_label;
    access.allowed_mask = policy.AllowedMask(sa.predicted_label);
    result.push_back(access);
  }
  return result;
}

Result<std::vector<PrivacySuggestion>> SuggestPrivacySettings(
    const AssessmentResult& assessment, const VisibilityTable& visibility,
    UserId owner, double risky_fraction_threshold) {
  if (assessment.strangers.empty()) {
    return Status::InvalidArgument("assessment covers no strangers");
  }
  if (!(risky_fraction_threshold >= 0.0 &&
        risky_fraction_threshold <= 1.0)) {
    return Status::InvalidArgument(
        "risky_fraction_threshold must be in [0, 1]");
  }
  size_t risky = 0;
  for (const StrangerAssessment& sa : assessment.strangers) {
    if (sa.predicted_label != RiskLabel::kNotRisky) ++risky;
  }
  double risky_fraction = static_cast<double>(risky) /
                          static_cast<double>(assessment.strangers.size());

  std::vector<PrivacySuggestion> suggestions;
  suggestions.reserve(kNumProfileItems);
  for (ProfileItem item : kAllProfileItems) {
    PrivacySuggestion suggestion;
    suggestion.item = item;
    suggestion.currently_visible = visibility.IsVisible(owner, item);
    suggestion.risky_fraction = risky_fraction;
    suggestion.recommend_hide = suggestion.currently_visible &&
                                risky_fraction >= risky_fraction_threshold;
    suggestions.push_back(suggestion);
  }
  return suggestions;
}

}  // namespace sight
