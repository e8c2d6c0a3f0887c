#include "similarity/profile_similarity.h"

#include <algorithm>

namespace sight {

ValueFrequencyTable ValueFrequencyTable::BuildFromCodes(
    const uint32_t* rows, size_t num_rows, size_t num_attributes) {
  std::vector<std::vector<size_t>> counts(num_attributes);
  ValueFrequencyTable result;
  result.totals_.assign(num_attributes, 0);
  for (size_t i = 0; i < num_rows; ++i) {
    const uint32_t* row = rows + i * num_attributes;
    for (AttributeId a = 0; a < num_attributes; ++a) {
      uint32_t code = row[a];
      if (code == ProfileCodec::kMissingCode) continue;
      if (code >= counts[a].size()) counts[a].resize(code + 1, 0);
      ++counts[a][code];
      ++result.totals_[a];
    }
  }
  result.freq_.resize(num_attributes);
  result.distinct_.assign(num_attributes, 0);
  for (AttributeId a = 0; a < num_attributes; ++a) {
    // One count/total division per value, precomputed: a lookup is then
    // a single array load.
    result.freq_[a].assign(counts[a].size(), 0.0);
    double total = static_cast<double>(result.totals_[a]);
    for (uint32_t code = 1; code < counts[a].size(); ++code) {
      if (counts[a][code] == 0) continue;
      ++result.distinct_[a];
      result.freq_[a][code] = static_cast<double>(counts[a][code]) / total;
    }
  }
  return result;
}

size_t ValueFrequencyTable::Support(AttributeId attr) const {
  return attr < totals_.size() ? totals_[attr] : 0;
}

size_t ValueFrequencyTable::NumDistinct(AttributeId attr) const {
  return attr < distinct_.size() ? distinct_[attr] : 0;
}

Result<ProfileSimilarity> ProfileSimilarity::Create(
    const ProfileSchema& schema, std::vector<double> weights) {
  SIGHT_ASSIGN_OR_RETURN(
      std::vector<double> normalized,
      NormalizeAttributeWeights(schema, std::move(weights)));
  return ProfileSimilarity(std::move(normalized));
}

double ProfileSimilarity::Compute(const uint32_t* a, const uint32_t* b,
                                  const ValueFrequencyTable& freqs) const {
  double total = 0.0;
  for (AttributeId attr = 0; attr < weights_.size(); ++attr) {
    uint32_t ca = a[attr];
    uint32_t cb = b[attr];
    if (ca == ProfileCodec::kMissingCode ||
        cb == ProfileCodec::kMissingCode) {
      continue;
    }
    double sim = ca == cb ? 1.0
                          : std::min(freqs.FrequencyByCode(attr, ca),
                                     freqs.FrequencyByCode(attr, cb));
    total += weights_[attr] * sim;
  }
  return total;
}

}  // namespace sight
