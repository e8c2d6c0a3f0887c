// Attribute and benefit-item importance mining (the paper's Definition 6,
// Tables I and II).
//
// For an owner's labeled strangers, the importance of a profile attribute
// (or of a benefit item's visibility bit) is its information gain ratio
// w.r.t. the risk labels, normalized so importances sum to 1 across the
// attribute set. Rankings of these importances are what Tables I and II
// aggregate over owners.
//
// The gain ratio is chance-corrected (see CorrectedGainRatio in
// learning/info_gain.h): on the paper's ~86-label samples, a raw gain
// ratio rewards high-arity attributes (last name) for accidental purity;
// after the correction, last name collapses to near zero — matching the
// paper's Table I, where it averages 0.0542.

#ifndef SIGHT_CORE_ATTRIBUTE_IMPORTANCE_H_
#define SIGHT_CORE_ATTRIBUTE_IMPORTANCE_H_

#include <string>
#include <vector>

#include "core/risk_label.h"
#include "graph/profile.h"
#include "graph/types.h"
#include "graph/visibility.h"
#include "util/status.h"

namespace sight {

/// Importance of one attribute/item for one owner.
struct AttributeImportance {
  std::string name;
  /// Normalized information gain ratio (Definition 6); sums to 1 over the
  /// attribute set. All-zero IGRs yield uniform importances.
  double importance = 0.0;
  /// Raw (unnormalized) information gain ratio.
  double gain_ratio = 0.0;
};

/// Definition 6 over profile attributes: IGR of each schema attribute's
/// values w.r.t. the owner labels, normalized across attributes.
/// `strangers` and `labels` are parallel; requires at least one instance.
/// Encodes the strangers' profiles once and mines each attribute's code
/// column (the measures only group rows by value).
[[nodiscard]]
Result<std::vector<AttributeImportance>> ProfileAttributeImportance(
    const ProfileTable& profiles, const std::vector<UserId>& strangers,
    const std::vector<RiskLabel>& labels);

/// Definition 6 over benefit items: attribute values are the visibility
/// bits ("0"/"1") of each of the seven items.
[[nodiscard]]
Result<std::vector<AttributeImportance>> BenefitItemImportance(
    const VisibilityTable& visibility, const std::vector<UserId>& strangers,
    const std::vector<RiskLabel>& labels);

/// Positions (0-based ranks) of each attribute when sorted by descending
/// importance; ties broken by input order.
std::vector<size_t> ImportanceRanks(
    const std::vector<AttributeImportance>& importances);

}  // namespace sight

#endif  // SIGHT_CORE_ATTRIBUTE_IMPORTANCE_H_
