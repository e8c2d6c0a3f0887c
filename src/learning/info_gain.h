// Entropy, information gain, and information gain ratio (Quinlan C4.5 /
// MacKay) over categorical attributes and discrete labels.
//
// The paper uses information gain ratio to mine attribute importance
// (Definition 6, Tables I and II): an attribute whose values strongly
// reduce label entropy carries more of the owner's labeling rationale.

// Every measure takes a code column: one dictionary code per instance
// (graph/profile_codec.h), of which only equality matters, so
// kMissingCode partitions like any value. Each reduces to one core over
// dense ids assigned in first-occurrence order, so partitions are
// iterated — and their floating-point contributions summed — in the
// column's own order rather than a hash table's.

#ifndef SIGHT_LEARNING_INFO_GAIN_H_
#define SIGHT_LEARNING_INFO_GAIN_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace sight {

/// Shannon entropy (bits) of a discrete distribution given by counts.
/// Zero-count entries are ignored; all-zero counts give 0.
double EntropyFromCounts(const std::vector<size_t>& counts);

/// Entropy (bits) of the label multiset.
double LabelEntropy(const std::vector<int>& labels);

/// Information gain of `attribute_codes` w.r.t. `labels`:
/// H(labels) - sum_v p(v) H(labels | value = v).
/// Errors on size mismatch or empty input.
[[nodiscard]]
Result<double> InformationGain(const std::vector<uint32_t>& attribute_codes,
                               const std::vector<int>& labels);

/// Split information: entropy of the attribute-value distribution itself.
[[nodiscard]]
Result<double> SplitInformation(const std::vector<uint32_t>& attribute_codes);

/// C4.5 gain ratio: InformationGain / SplitInformation. Returns 0 when the
/// attribute has a single value (no split, no information).
[[nodiscard]]
Result<double> GainRatio(const std::vector<uint32_t>& attribute_codes,
                         const std::vector<int>& labels);

/// Chance-corrected gain ratio: subtracts the expected information gain of
/// a *random* attribute with the same arity before normalizing,
/// IG_adj = max(0, IG - (V-1)(L-1) / (2 N ln 2)) (the Miller-Madow bias of
/// the plug-in conditional entropy), where V = distinct attribute values,
/// L = distinct labels, N = samples.
///
/// On small labeled samples (the paper mines importance from ~86 labels
/// per owner) a high-arity attribute like last name scores a large raw
/// gain purely by chance — dozens of near-singleton partitions are pure by
/// accident. The correction removes exactly that chance mass, so
/// informative low-arity attributes (gender) keep their score while noise
/// attributes collapse to ~0.
[[nodiscard]]
Result<double> CorrectedGainRatio(
    const std::vector<uint32_t>& attribute_codes,
    const std::vector<int>& labels);

}  // namespace sight

#endif  // SIGHT_LEARNING_INFO_GAIN_H_
