// CSV serialization of ProfileTable.
//
// Format: RFC 4180 CSV whose header is `user_id,<attr1>,<attr2>,...`
// (the header defines the schema); one row per user with a profile.
// Missing attribute values are empty fields. User ids are plain decimal
// digits below the loader's `user_id_bound` (io/user_id.h).

#ifndef SIGHT_IO_PROFILE_IO_H_
#define SIGHT_IO_PROFILE_IO_H_

#include <istream>
#include <ostream>
#include <string>

#include "graph/profile.h"
#include "graph/types.h"
#include "util/status.h"

namespace sight::io {

[[nodiscard]]
Status SaveProfiles(const ProfileTable& profiles, std::ostream* out);

/// `user_id_bound` is the graph's user count (graph.NumUsers()): a row
/// for any other user is OutOfRange, so the table never allocates past
/// the graph.
[[nodiscard]]
Result<ProfileTable> LoadProfiles(std::istream* in, UserId user_id_bound);

[[nodiscard]]
Status SaveProfilesToFile(const ProfileTable& profiles,
                          const std::string& path);
[[nodiscard]]
Result<ProfileTable> LoadProfilesFromFile(const std::string& path,
                                          UserId user_id_bound);

}  // namespace sight::io

#endif  // SIGHT_IO_PROFILE_IO_H_
