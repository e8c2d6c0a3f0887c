#include "io/profile_io.h"

#include <fstream>

#include "io/user_id.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace sight::io {
Status SaveProfiles(const ProfileTable& profiles, std::ostream* out) {
  if (out == nullptr) return Status::InvalidArgument("output is required");
  std::vector<std::string> header = {"user_id"};
  for (const std::string& name : profiles.schema().names()) {
    header.push_back(name);
  }
  CsvWriter writer(header);
  for (UserId u = 0; u < profiles.user_id_bound(); ++u) {
    if (!profiles.Has(u)) continue;
    std::vector<std::string> row = {StrFormat("%u", u)};
    const Profile& p = profiles.Get(u);
    for (const std::string& value : p.values) row.push_back(value);
    writer.AddRow(std::move(row));
  }
  writer.Write(*out);
  if (!out->good()) return Status::Internal("profile write failed");
  return Status::OK();
}

Result<ProfileTable> LoadProfiles(std::istream* in, UserId user_id_bound) {
  if (in == nullptr) return Status::InvalidArgument("input is required");
  CsvReader reader(in);
  std::vector<std::string> record;
  if (!reader.Next(&record)) {
    SIGHT_RETURN_IF_ERROR(reader.status());
    return Status::InvalidArgument("empty profile CSV");
  }
  if (record.empty() || record[0] != "user_id") {
    return Status::InvalidArgument(
        "profile CSV header must start with 'user_id'");
  }
  std::vector<std::string> attr_names(record.begin() + 1, record.end());
  SIGHT_ASSIGN_OR_RETURN(ProfileSchema schema,
                         ProfileSchema::Create(attr_names));
  ProfileTable table(std::move(schema));

  while (reader.Next(&record)) {
    if (record.size() == 1 && record[0].empty()) continue;  // blank line
    if (record.size() != attr_names.size() + 1) {
      return Status::InvalidArgument(StrFormat(
          "profile row %zu has %zu fields, expected %zu",
          reader.records_read(), record.size(), attr_names.size() + 1));
    }
    SIGHT_ASSIGN_OR_RETURN(UserId user,
                           ParseUserId(record[0], user_id_bound));
    if (table.Has(user)) {
      return Status::AlreadyExists(StrFormat(
          "profile row %zu repeats user %u", reader.records_read(), user));
    }
    Profile profile;
    profile.values.assign(record.begin() + 1, record.end());
    SIGHT_RETURN_IF_ERROR(table.Set(user, std::move(profile)));
  }
  SIGHT_RETURN_IF_ERROR(reader.status());
  return table;
}

Status SaveProfilesToFile(const ProfileTable& profiles,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  return SaveProfiles(profiles, &out);
}

Result<ProfileTable> LoadProfilesFromFile(const std::string& path,
                                          UserId user_id_bound) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  return LoadProfiles(&in, user_id_bound);
}

}  // namespace sight::io
