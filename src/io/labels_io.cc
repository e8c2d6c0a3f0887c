#include "io/labels_io.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "core/risk_label.h"
#include "io/user_id.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace sight::io {

Status SaveKnownLabels(const PoolLearner::KnownLabels& labels,
                       std::ostream* out) {
  if (out == nullptr) return Status::InvalidArgument("output is required");
  CsvWriter writer({"stranger", "label"});
  // Deterministic output order.
  std::vector<std::pair<UserId, double>> sorted(labels.begin(), labels.end());
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [stranger, value] : sorted) {
    writer.AddRow({StrFormat("%u", stranger),
                   StrFormat("%d", static_cast<int>(value))});
  }
  writer.Write(*out);
  if (!out->good()) return Status::Internal("labels write failed");
  return Status::OK();
}

Result<PoolLearner::KnownLabels> LoadKnownLabels(std::istream* in) {
  if (in == nullptr) return Status::InvalidArgument("input is required");
  CsvReader reader(in);
  std::vector<std::string> record;
  if (!reader.Next(&record)) {
    SIGHT_RETURN_IF_ERROR(reader.status());
    return Status::InvalidArgument("empty labels CSV");
  }
  if (record != std::vector<std::string>{"stranger", "label"}) {
    return Status::InvalidArgument(
        "labels CSV header must be 'stranger,label'");
  }
  PoolLearner::KnownLabels labels;
  while (reader.Next(&record)) {
    if (record.size() == 1 && record[0].empty()) continue;
    if (record.size() != 2) {
      return Status::InvalidArgument(StrFormat(
          "labels row %zu has %zu fields, expected 2",
          reader.records_read(), record.size()));
    }
    // Only the id type bounds a stranger here: ImportLabels rejects
    // users the owner's graph does not have.
    SIGHT_ASSIGN_OR_RETURN(UserId stranger,
                           ParseUserId(record[0], kInvalidUser));
    char* end = nullptr;
    long value = std::strtol(record[1].c_str(), &end, 10);
    if (record[1].empty() || end == nullptr || *end != '\0' ||
        !(value >= kRiskLabelMin && value <= kRiskLabelMax)) {
      return Status::OutOfRange(
          StrFormat("bad label '%s' (must be %d..%d)", record[1].c_str(),
                    kRiskLabelMin, kRiskLabelMax));
    }
    if (!labels.emplace(stranger, static_cast<double>(value)).second) {
      return Status::AlreadyExists(StrFormat(
          "labels row %zu repeats stranger %u", reader.records_read(),
          stranger));
    }
  }
  SIGHT_RETURN_IF_ERROR(reader.status());
  return labels;
}

Status SaveKnownLabelsToFile(const PoolLearner::KnownLabels& labels,
                             const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  return SaveKnownLabels(labels, &out);
}

Result<PoolLearner::KnownLabels> LoadKnownLabelsFromFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  return LoadKnownLabels(&in);
}

}  // namespace sight::io
