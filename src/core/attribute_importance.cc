#include "core/attribute_importance.h"

#include <algorithm>
#include <numeric>

#include "graph/profile_codec.h"
#include "learning/info_gain.h"
#include "util/string_util.h"

namespace sight {
namespace {

Status CheckParallel(size_t strangers, size_t labels) {
  if (strangers != labels) {
    return Status::InvalidArgument(
        StrFormat("strangers/labels size mismatch: %zu vs %zu", strangers,
                  labels));
  }
  if (strangers == 0) {
    return Status::InvalidArgument("no labeled strangers");
  }
  return Status::OK();
}

// Normalizes raw gain ratios into importances (Definition 6); all-zero
// IGRs degrade to a uniform distribution.
std::vector<AttributeImportance> Normalize(
    std::vector<std::string> names, const std::vector<double>& ratios) {
  double total = std::accumulate(ratios.begin(), ratios.end(), 0.0);
  std::vector<AttributeImportance> result(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    result[i].name = std::move(names[i]);
    result[i].gain_ratio = ratios[i];
    result[i].importance = total > 0.0
                               ? ratios[i] / total
                               : 1.0 / static_cast<double>(ratios.size());
  }
  return result;
}

}  // namespace

Result<std::vector<AttributeImportance>> ProfileAttributeImportance(
    const ProfileTable& profiles, const std::vector<UserId>& strangers,
    const std::vector<RiskLabel>& labels) {
  SIGHT_RETURN_IF_ERROR(CheckParallel(strangers.size(), labels.size()));
  // The gain-ratio measures partition by value identity only, and the
  // codec maps equal strings to equal codes ("" to kMissingCode), so the
  // strangers are encoded once and mined on code columns.
  const EncodedProfileTable encoded =
      EncodedProfileTable::Build(profiles, strangers);
  const ProfileSchema& schema = profiles.schema();

  std::vector<int> label_values;
  label_values.reserve(labels.size());
  for (RiskLabel l : labels) label_values.push_back(static_cast<int>(l));

  std::vector<std::string> names;
  std::vector<double> ratios;
  std::vector<uint32_t> column(encoded.num_rows());
  for (AttributeId a = 0; a < schema.num_attributes(); ++a) {
    for (size_t i = 0; i < encoded.num_rows(); ++i) {
      column[i] = encoded.code(i, a);
    }
    SIGHT_ASSIGN_OR_RETURN(double igr,
                           CorrectedGainRatio(column, label_values));
    names.push_back(schema.name(a));
    ratios.push_back(igr);
  }
  return Normalize(std::move(names), ratios);
}

Result<std::vector<AttributeImportance>> BenefitItemImportance(
    const VisibilityTable& visibility, const std::vector<UserId>& strangers,
    const std::vector<RiskLabel>& labels) {
  SIGHT_RETURN_IF_ERROR(CheckParallel(strangers.size(), labels.size()));

  std::vector<int> label_values;
  label_values.reserve(labels.size());
  for (RiskLabel l : labels) label_values.push_back(static_cast<int>(l));

  std::vector<std::string> names;
  std::vector<double> ratios;
  // Visibility bits as code columns (the measures only partition by
  // equality, so 0/1 codes behave exactly like "0"/"1" strings).
  std::vector<uint32_t> column;
  column.reserve(strangers.size());
  for (ProfileItem item : kAllProfileItems) {
    column.clear();
    for (UserId s : strangers) {
      column.push_back(visibility.IsVisible(s, item) ? 1u : 0u);
    }
    SIGHT_ASSIGN_OR_RETURN(double igr,
                           CorrectedGainRatio(column, label_values));
    names.push_back(ProfileItemName(item));
    ratios.push_back(igr);
  }
  return Normalize(std::move(names), ratios);
}

std::vector<size_t> ImportanceRanks(
    const std::vector<AttributeImportance>& importances) {
  std::vector<size_t> order(importances.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return importances[a].importance > importances[b].importance;
  });
  std::vector<size_t> ranks(importances.size());
  for (size_t rank = 0; rank < order.size(); ++rank) {
    ranks[order[rank]] = rank;
  }
  return ranks;
}

}  // namespace sight
