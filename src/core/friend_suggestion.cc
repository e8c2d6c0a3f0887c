#include "core/friend_suggestion.h"

#include <algorithm>

namespace sight {

Result<std::vector<FriendSuggestion>> SuggestFriends(
    const AssessmentResult& assessment,
    const FriendSuggestionConfig& config) {
  if (!(config.ns_weight >= 0.0 && config.ns_weight <= 1.0)) {
    return Status::InvalidArgument("ns_weight must be in [0, 1]");
  }
  std::vector<FriendSuggestion> suggestions;
  for (const StrangerAssessment& sa : assessment.strangers) {
    if (static_cast<int>(sa.predicted_label) >
        static_cast<int>(config.max_label)) {
      continue;
    }
    FriendSuggestion suggestion;
    suggestion.stranger = sa.stranger;
    suggestion.network_similarity = sa.network_similarity;
    suggestion.benefit = sa.benefit;
    suggestion.affinity = config.ns_weight * sa.network_similarity +
                          (1.0 - config.ns_weight) * sa.benefit;
    suggestions.push_back(suggestion);
  }
  std::sort(suggestions.begin(), suggestions.end(),
            [](const FriendSuggestion& a, const FriendSuggestion& b) {
              if (a.affinity != b.affinity) return a.affinity > b.affinity;
              return a.stranger < b.stranger;
            });
  if (suggestions.size() > config.max_suggestions) {
    suggestions.resize(config.max_suggestions);
  }
  return suggestions;
}

}  // namespace sight
