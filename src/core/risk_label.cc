#include "core/risk_label.h"

#include "util/string_util.h"

namespace sight {

Result<RiskLabel> RiskLabelFromInt(int value) {
  if (!(value >= kRiskLabelMin && value <= kRiskLabelMax)) {
    return Status::OutOfRange(
        StrFormat("risk label %d outside [%d, %d]", value, kRiskLabelMin,
                  kRiskLabelMax));
  }
  return static_cast<RiskLabel>(value);
}

const char* RiskLabelName(RiskLabel label) {
  switch (label) {
    case RiskLabel::kNotRisky:
      return "not risky";
    case RiskLabel::kRisky:
      return "risky";
    case RiskLabel::kVeryRisky:
      return "very risky";
  }
  return "unknown";
}

}  // namespace sight
