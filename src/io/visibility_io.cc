#include "io/visibility_io.h"

#include <fstream>
#include <unordered_set>

#include "io/user_id.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace sight::io {

Status SaveVisibility(const VisibilityTable& visibility,
                      UserId user_id_bound, std::ostream* out) {
  if (out == nullptr) return Status::InvalidArgument("output is required");
  std::vector<std::string> header = {"user_id"};
  for (ProfileItem item : kAllProfileItems) {
    header.push_back(ProfileItemName(item));
  }
  CsvWriter writer(header);
  for (UserId u = 0; u < user_id_bound; ++u) {
    if (visibility.Mask(u) == 0) continue;
    std::vector<std::string> row = {StrFormat("%u", u)};
    for (ProfileItem item : kAllProfileItems) {
      row.push_back(visibility.IsVisible(u, item) ? "1" : "0");
    }
    writer.AddRow(std::move(row));
  }
  writer.Write(*out);
  if (!out->good()) return Status::Internal("visibility write failed");
  return Status::OK();
}

Result<VisibilityTable> LoadVisibility(std::istream* in,
                                       UserId user_id_bound) {
  if (in == nullptr) return Status::InvalidArgument("input is required");
  CsvReader reader(in);
  std::vector<std::string> record;
  if (!reader.Next(&record)) {
    SIGHT_RETURN_IF_ERROR(reader.status());
    return Status::InvalidArgument("empty visibility CSV");
  }
  if (record.size() != kNumProfileItems + 1 || record[0] != "user_id") {
    return Status::InvalidArgument(
        "visibility CSV header must be user_id plus the seven items");
  }
  // Header order defines the item per column (any permutation accepted).
  std::vector<ProfileItem> column_items;
  for (size_t i = 1; i < record.size(); ++i) {
    SIGHT_ASSIGN_OR_RETURN(ProfileItem item, ProfileItemFromName(record[i]));
    column_items.push_back(item);
  }

  VisibilityTable table;
  std::unordered_set<UserId> seen;
  while (reader.Next(&record)) {
    if (record.size() == 1 && record[0].empty()) continue;
    if (record.size() != kNumProfileItems + 1) {
      return Status::InvalidArgument(StrFormat(
          "visibility row %zu has %zu fields, expected %zu",
          reader.records_read(), record.size(), kNumProfileItems + 1));
    }
    SIGHT_ASSIGN_OR_RETURN(UserId user,
                           ParseUserId(record[0], user_id_bound));
    if (!seen.insert(user).second) {
      return Status::AlreadyExists(StrFormat(
          "visibility row %zu repeats user %u", reader.records_read(), user));
    }
    for (size_t i = 0; i < kNumProfileItems; ++i) {
      const std::string& cell = record[i + 1];
      if (cell != "0" && cell != "1") {
        return Status::InvalidArgument(StrFormat(
            "visibility cell '%s' must be 0 or 1", cell.c_str()));
      }
      table.SetVisible(user, column_items[i], cell == "1");
    }
  }
  SIGHT_RETURN_IF_ERROR(reader.status());
  return table;
}

Status SaveVisibilityToFile(const VisibilityTable& visibility,
                            UserId user_id_bound, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  return SaveVisibility(visibility, user_id_bound, &out);
}

Result<VisibilityTable> LoadVisibilityFromFile(const std::string& path,
                                               UserId user_id_bound) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  return LoadVisibility(&in, user_id_bound);
}

}  // namespace sight::io
