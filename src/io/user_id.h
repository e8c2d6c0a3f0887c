// The user-id column shared by the CSV readers (profiles, visibility,
// owner labels).

#ifndef SIGHT_IO_USER_ID_H_
#define SIGHT_IO_USER_ID_H_

#include <string>

#include "graph/types.h"
#include "util/status.h"

namespace sight::io {

/// Parses a user-id field: one or more ASCII digits and nothing else (no
/// sign, no blanks), naming a user below `bound` — the graph's user
/// count for tables indexed by user, kInvalidUser where only the id type
/// limits it. InvalidArgument when the field is not all digits,
/// OutOfRange when the id is not below `bound`.
[[nodiscard]]
Result<UserId> ParseUserId(const std::string& field, UserId bound);

}  // namespace sight::io

#endif  // SIGHT_IO_USER_ID_H_
