#include "io/user_id.h"

#include <cstdint>

#include "util/string_util.h"

namespace sight::io {

Result<UserId> ParseUserId(const std::string& field, UserId bound) {
  if (field.empty()) return Status::InvalidArgument("empty user id");
  // Accumulation stops once the id reaches `bound`, so it cannot
  // overflow however many digits follow.
  uint64_t value = 0;
  for (char c : field) {
    if (!(c >= '0' && c <= '9')) {
      return Status::InvalidArgument(
          StrFormat("bad user id '%s'", field.c_str()));
    }
    if (value < bound) value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  if (value >= bound) {
    return Status::OutOfRange(
        StrFormat("user id '%s' not below %u", field.c_str(), bound));
  }
  return static_cast<UserId>(value);
}

}  // namespace sight::io
