// CSV serialization of VisibilityTable.
//
// Format: header `user_id,wall,photo,friend,location,education,work,
// hometown`; one row per user with at least one visible item; cells are
// 0/1. Users absent from the file are all-hidden (the table's default).
// User ids are plain decimal digits below the loader's `user_id_bound`
// (io/user_id.h).

#ifndef SIGHT_IO_VISIBILITY_IO_H_
#define SIGHT_IO_VISIBILITY_IO_H_

#include <istream>
#include <ostream>
#include <string>

#include "graph/types.h"
#include "graph/visibility.h"
#include "util/status.h"

namespace sight::io {

/// `user_id_bound` limits the save scan (use graph.NumUsers()).
[[nodiscard]]
Status SaveVisibility(const VisibilityTable& visibility, UserId user_id_bound,
                      std::ostream* out);

/// `user_id_bound` is the graph's user count (graph.NumUsers()): a row
/// for any other user is OutOfRange, so the table never allocates past
/// the graph.
[[nodiscard]]
Result<VisibilityTable> LoadVisibility(std::istream* in,
                                       UserId user_id_bound);

[[nodiscard]]
Status SaveVisibilityToFile(const VisibilityTable& visibility,
                            UserId user_id_bound, const std::string& path);
[[nodiscard]]
Result<VisibilityTable> LoadVisibilityFromFile(const std::string& path,
                                               UserId user_id_bound);

}  // namespace sight::io

#endif  // SIGHT_IO_VISIBILITY_IO_H_
