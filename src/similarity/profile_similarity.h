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
// Hot path: the table dictionary-encodes its population (graph/
// profile_codec.h), stores code-indexed frequency arrays, and PS over code
// rows is an integer compare plus two array loads per attribute. The
// string-based overloads are thin wrappers that encode values on the fly
// through the same codec, so both paths produce bitwise-identical values.

#ifndef SIGHT_SIMILARITY_PROFILE_SIMILARITY_H_
#define SIGHT_SIMILARITY_PROFILE_SIMILARITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/profile.h"
#include "graph/profile_codec.h"
#include "graph/types.h"
#include "util/status.h"

namespace sight {

/// Per-attribute relative frequencies of values in a reference population
/// (typically the profiles of the pool under consideration), stored as
/// code-indexed arrays over the population's dictionary encoding.
class ValueFrequencyTable {
 public:
  /// Builds frequencies from the profiles of `users` in `table`,
  /// dictionary-encoding the population as it goes. Missing values are
  /// excluded from the denominators.
  static ValueFrequencyTable Build(const ProfileTable& table,
                                   const std::vector<UserId>& users);

  /// Builds frequencies from an already-encoded population; the resulting
  /// table copies `encoded.codec()`, so FrequencyByCode agrees with the
  /// codes in `encoded` (and in any table built on top of that codec).
  static ValueFrequencyTable Build(const EncodedProfileTable& encoded);

  /// Builds frequencies straight from row-major code rows (`num_rows` x
  /// `num_attributes`), without copying any codec — the assessment
  /// pipeline's per-pool path over rows gathered from a shared
  /// owner-level encode (StrangerEncodeCache). FrequencyByCode agrees
  /// with the codes in `rows`; the frequency of a value is its count over
  /// the non-missing observations, identical to the codec-carrying
  /// builders. The string-keyed Frequency() lookups on such a table
  /// answer 0 (there is no dictionary to resolve them), which no hot path
  /// uses.
  static ValueFrequencyTable BuildFromCodes(const uint32_t* rows,
                                            size_t num_rows,
                                            size_t num_attributes);

  /// Relative frequency of `value` for `attr` in [0, 1]; 0 for unseen
  /// values or empty populations.
  double Frequency(AttributeId attr, const std::string& value) const;

  /// Relative frequency of the value encoded as `code` under codec().
  /// Codes outside the population's dictionary (including
  /// ProfileCodec::kUnknownValue and codes interned on top of this codec)
  /// read as 0.
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
  /// The batched kernels in similarity/ps_kernels.h hoist `data()` and
  /// `size()` out of their inner loops through this accessor; everything
  /// else should prefer FrequencyByCode. `attr` must be <
  /// num_attributes().
  const std::vector<double>& FrequencyArray(AttributeId attr) const {
    return freq_[attr];
  }

  /// The dictionary the frequency arrays are indexed by.
  const ProfileCodec& codec() const { return codec_; }

 private:
  ValueFrequencyTable() : codec_(0) {}

  static ValueFrequencyTable FromCounts(
      ProfileCodec codec, std::vector<std::vector<size_t>> counts,
      std::vector<size_t> totals);

  ProfileCodec codec_;
  std::vector<std::vector<double>> freq_;  // [attr][code]; [attr][0] = 0
  std::vector<size_t> totals_;
  std::vector<size_t> distinct_;
};

/// PS over a fixed schema with per-attribute weights.
class ProfileSimilarity {
 public:
  /// `weights` must have one non-negative entry per schema attribute with a
  /// positive sum. Pass an empty vector for uniform weights.
  [[nodiscard]]
  static Result<ProfileSimilarity> Create(const ProfileSchema& schema,
                                          std::vector<double> weights = {});

  /// PS(a, b) in [0, 1] with frequencies from `freqs`.
  double Compute(const Profile& a, const Profile& b,
                 const ValueFrequencyTable& freqs) const;

  /// Convenience over users in a table.
  double Compute(const ProfileTable& table, UserId a, UserId b,
                 const ValueFrequencyTable& freqs) const;

  /// Hot path: PS over code rows (one code per attribute) produced by the
  /// codec the frequency table is indexed by — rows of an
  /// EncodedProfileTable built from `freqs.codec()` or sharing its
  /// dictionary prefix. Bitwise-identical to the string overloads.
  double Compute(const uint32_t* a, const uint32_t* b,
                 const ValueFrequencyTable& freqs) const;

  /// Convenience over rows of an encoded pool.
  double Compute(const EncodedProfileTable& encoded, size_t row_a,
                 size_t row_b, const ValueFrequencyTable& freqs) const {
    return Compute(encoded.row(row_a), encoded.row(row_b), freqs);
  }

  const std::vector<double>& normalized_weights() const { return weights_; }

 private:
  explicit ProfileSimilarity(std::vector<double> weights)
      : weights_(std::move(weights)) {}

  std::vector<double> weights_;  // normalized to sum 1
};

}  // namespace sight

#endif  // SIGHT_SIMILARITY_PROFILE_SIMILARITY_H_
