#include "learning/info_gain.h"

#include <cmath>
#include <map>
#include <unordered_map>

#include "util/string_util.h"

namespace sight {
namespace {

Status CheckInput(size_t values, size_t labels) {
  if (values != labels) {
    return Status::InvalidArgument(
        StrFormat("attribute/label size mismatch: %zu vs %zu", values,
                  labels));
  }
  if (values == 0) return Status::InvalidArgument("empty input");
  return Status::OK();
}

// A column reduced to dense ids 0..num_values-1 assigned in
// first-occurrence order. Every measure funnels through this, which pins
// the partition iteration order — and with it the floating-point
// summation order — to the column's own order rather than to a hash
// table's.
struct DenseColumn {
  std::vector<uint32_t> ids;  // parallel to the input column
  size_t num_values = 0;
};

DenseColumn Densify(const std::vector<uint32_t>& codes) {
  DenseColumn d;
  d.ids.reserve(codes.size());
  std::unordered_map<uint32_t, uint32_t> first_seen;
  for (uint32_t c : codes) {
    auto [it, inserted] =
        first_seen.emplace(c, static_cast<uint32_t>(first_seen.size()));
    d.ids.push_back(it->second);
  }
  d.num_values = first_seen.size();
  return d;
}

double InformationGainDense(const DenseColumn& column,
                            const std::vector<int>& labels) {
  double base = LabelEntropy(labels);

  // Partition labels by dense value id; per-partition label counts stay
  // ordered by label (std::map) so every partition's entropy sums its
  // terms in ascending label order.
  std::vector<std::map<int, size_t>> partitions(column.num_values);
  for (size_t i = 0; i < column.ids.size(); ++i) {
    ++partitions[column.ids[i]][labels[i]];
  }

  const double n = static_cast<double>(labels.size());
  double conditional = 0.0;
  std::vector<size_t> count_vec;
  for (const std::map<int, size_t>& label_counts : partitions) {
    size_t part_size = 0;
    count_vec.clear();
    count_vec.reserve(label_counts.size());
    for (const auto& [label, count] : label_counts) {
      part_size += count;
      count_vec.push_back(count);
    }
    conditional += (static_cast<double>(part_size) / n) *
                   EntropyFromCounts(count_vec);
  }
  return base - conditional;
}

double SplitInformationDense(const DenseColumn& column) {
  std::vector<size_t> counts(column.num_values, 0);
  for (uint32_t id : column.ids) ++counts[id];
  return EntropyFromCounts(counts);
}

Result<double> GainRatioDense(const DenseColumn& column,
                              const std::vector<int>& labels) {
  double gain = InformationGainDense(column, labels);
  double split = SplitInformationDense(column);
  if (split <= 0.0) return 0.0;  // single-valued attribute: no information
  return gain / split;
}

Result<double> CorrectedGainRatioDense(const DenseColumn& column,
                                       const std::vector<int>& labels) {
  double gain = InformationGainDense(column, labels);
  double split = SplitInformationDense(column);
  if (split <= 0.0) return 0.0;

  std::map<int, size_t> label_values;
  for (int l : labels) ++label_values[l];

  double v = static_cast<double>(column.num_values);
  double l = static_cast<double>(label_values.size());
  double n = static_cast<double>(labels.size());
  // Expected gain of an independent attribute (Miller-Madow, in bits).
  double chance = (v - 1.0) * (l - 1.0) / (2.0 * n * std::log(2.0));
  double adjusted = gain - chance;
  if (adjusted <= 0.0) return 0.0;
  return adjusted / split;
}

}  // namespace

double EntropyFromCounts(const std::vector<size_t>& counts) {
  size_t total = 0;
  for (size_t c : counts) total += c;
  if (total == 0) return 0.0;
  double h = 0.0;
  for (size_t c : counts) {
    if (c == 0) continue;
    double p = static_cast<double>(c) / static_cast<double>(total);
    h -= p * std::log2(p);
  }
  return h;
}

double LabelEntropy(const std::vector<int>& labels) {
  std::map<int, size_t> counts;
  for (int l : labels) ++counts[l];
  std::vector<size_t> count_vec;
  count_vec.reserve(counts.size());
  for (const auto& [label, count] : counts) count_vec.push_back(count);
  return EntropyFromCounts(count_vec);
}

Result<double> InformationGain(const std::vector<uint32_t>& attribute_codes,
                               const std::vector<int>& labels) {
  SIGHT_RETURN_IF_ERROR(CheckInput(attribute_codes.size(), labels.size()));
  return InformationGainDense(Densify(attribute_codes), labels);
}

Result<double> SplitInformation(
    const std::vector<uint32_t>& attribute_codes) {
  if (attribute_codes.empty()) {
    return Status::InvalidArgument("empty input");
  }
  return SplitInformationDense(Densify(attribute_codes));
}

Result<double> GainRatio(const std::vector<uint32_t>& attribute_codes,
                         const std::vector<int>& labels) {
  SIGHT_RETURN_IF_ERROR(CheckInput(attribute_codes.size(), labels.size()));
  return GainRatioDense(Densify(attribute_codes), labels);
}

Result<double> CorrectedGainRatio(
    const std::vector<uint32_t>& attribute_codes,
    const std::vector<int>& labels) {
  SIGHT_RETURN_IF_ERROR(CheckInput(attribute_codes.size(), labels.size()));
  return CorrectedGainRatioDense(Densify(attribute_codes), labels);
}

}  // namespace sight
