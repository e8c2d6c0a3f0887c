// Profile similarity PS(a, b) between two categorical profiles.
//
// Reconstruction of the PS measure of Akcora et al. (IRI 2011) as described
// in the risk paper (Section III-C): "For each attribute, if values are
// identical on both profiles the attribute similarity is set to 1. If they
// are non-identical, a non-zero value is computed by considering the
// frequency of the item values in the data set (i.e., the profiles in the
// considered pool)."
//
// Concretely, attribute similarity for differing values va != vb is
// min(f(va), f(vb)) where f is the relative frequency of the value in the
// reference population: sharing a *common* trait variant is weaker evidence
// of dissimilarity than clashing on rare variants, so common-but-different
// values keep some similarity mass. Missing values contribute 0. The total
// is the weighted mean over attributes.
//
// PS needs only whether two values are equal and how often a value
// occurs in the pool, so it runs on dictionary codes (graph/
// profile_codec.h): profiles are encoded once, at the boundary, the
// frequency table is code-indexed arrays, and PS over two code rows is an
// integer compare plus two array loads per attribute.

#ifndef SIGHT_SIMILARITY_PROFILE_SIMILARITY_H_
#define SIGHT_SIMILARITY_PROFILE_SIMILARITY_H_

#include <cstdint>
#include <vector>

#include "graph/profile.h"
#include "graph/profile_codec.h"
#include "graph/types.h"
#include "util/status.h"

namespace sight {

/// Per-attribute relative frequencies of values in a reference population
/// (typically the profiles of the pool under consideration), stored as
/// code-indexed arrays.
class ValueFrequencyTable {
 public:
  /// Builds frequencies from row-major code rows (`num_rows` x
  /// `num_attributes`), e.g. a pool's rows gathered from the owner-level
  /// encode (StrangerEncodeCache). The frequency of a value is its count
  /// over the non-missing observations of its attribute; missing values
  /// are excluded from the denominators.
  static ValueFrequencyTable BuildFromCodes(const uint32_t* rows,
                                            size_t num_rows,
                                            size_t num_attributes);

  /// Relative frequency in [0, 1] of the value encoded as `code`. Codes
  /// that do not occur in the rows the table was built from (including
  /// ProfileCodec::kUnknownValue) read as 0.
  double FrequencyByCode(AttributeId attr, uint32_t code) const {
    const std::vector<double>& f = freq_[attr];
    return code < f.size() ? f[code] : 0.0;
  }

  /// Count of non-missing observations for `attr`.
  size_t Support(AttributeId attr) const;

  /// Number of distinct values observed for `attr`.
  size_t NumDistinct(AttributeId attr) const;

  size_t num_attributes() const { return freq_.size(); }

  /// The raw code-indexed frequency array for `attr` (entry [0], the
  /// missing-value slot, is always 0.0; codes past the end read as 0).
  /// similarity/ps_kernels.h reads it when it lays rows out as columns
  /// and hands it to a dense pool's FactoredPsGraph; everything else
  /// should prefer FrequencyByCode. `attr` must be < num_attributes().
  const std::vector<double>& FrequencyArray(AttributeId attr) const {
    return freq_[attr];
  }

 private:
  ValueFrequencyTable() = default;

  std::vector<std::vector<double>> freq_;  // [attr][code]; [attr][0] = 0
  std::vector<size_t> totals_;
  std::vector<size_t> distinct_;
};

/// PS over a fixed schema with per-attribute weights.
class ProfileSimilarity {
 public:
  /// `weights` must have one finite, non-negative entry per schema
  /// attribute with a finite, positive sum (NormalizeAttributeWeights).
  /// Pass an empty vector for uniform weights.
  [[nodiscard]]
  static Result<ProfileSimilarity> Create(const ProfileSchema& schema,
                                          std::vector<double> weights = {});

  /// PS(a, b) in [0, 1] over two code rows (one code per attribute) from
  /// the dictionary `freqs` was built on.
  double Compute(const uint32_t* a, const uint32_t* b,
                 const ValueFrequencyTable& freqs) const;

  const std::vector<double>& normalized_weights() const { return weights_; }

 private:
  explicit ProfileSimilarity(std::vector<double> weights)
      : weights_(std::move(weights)) {}

  std::vector<double> weights_;  // normalized to sum 1
};

}  // namespace sight

#endif  // SIGHT_SIMILARITY_PROFILE_SIMILARITY_H_
