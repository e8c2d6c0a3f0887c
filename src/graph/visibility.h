// Per-item profile visibility (the paper's V_s(i, o) predicate).
//
// The paper's benefit measure B(o, s) depends on which profile items of a
// stranger are visible to the owner: wall, photo albums, friend list,
// location, education, work, hometown (the seven items of Tables II-V).
// VisibilityTable stores one bitmask per user. The model here is the
// "visible to non-friends" setting, which is what an owner browsing a
// stranger's profile observes.

#ifndef SIGHT_GRAPH_VISIBILITY_H_
#define SIGHT_GRAPH_VISIBILITY_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/table_version.h"
#include "graph/types.h"
#include "util/status.h"

namespace sight {

/// The benefit/visibility items used throughout the paper's evaluation.
enum class ProfileItem : uint8_t {
  kWall = 0,
  kPhoto = 1,
  kFriendList = 2,
  kLocation = 3,
  kEducation = 4,
  kWork = 5,
  kHometown = 6,
};

inline constexpr size_t kNumProfileItems = 7;

/// All items, in the paper's table order.
constexpr std::array<ProfileItem, kNumProfileItems> kAllProfileItems = {
    ProfileItem::kWall,      ProfileItem::kPhoto,    ProfileItem::kFriendList,
    ProfileItem::kLocation,  ProfileItem::kEducation, ProfileItem::kWork,
    ProfileItem::kHometown};

/// Stable lowercase name ("wall", "photo", ...).
const char* ProfileItemName(ProfileItem item);

/// Inverse of ProfileItemName; NotFound for unknown names.
[[nodiscard]] Result<ProfileItem> ProfileItemFromName(const std::string& name);

/// Per-user visibility bitmasks over the seven profile items.
class VisibilityTable {
 public:
  VisibilityTable() = default;

  /// Marks `item` of `user`'s profile as visible (to strangers).
  void SetVisible(UserId user, ProfileItem item, bool visible = true);

  /// The paper's V_s(i, o): 1 when item i of s's profile is visible to the
  /// observing owner, 0 otherwise. Users never configured are all-hidden.
  bool IsVisible(UserId user, ProfileItem item) const;

  /// Number of visible items for `user` (0..7).
  size_t VisibleCount(UserId user) const;

  /// Raw 7-bit mask (bit i = item i visible).
  uint8_t Mask(UserId user) const;

  void SetMask(UserId user, uint8_t mask);

  /// Identity of the current contents (graph/table_version.h): the epoch
  /// is bumped by every mutation (SetVisible / SetMask). Carried learner
  /// state whose display benefits were derived from this table records
  /// the version and is dropped when it no longer matches.
  TableVersion version() const { return {stamp_.id(), mutation_epoch_}; }

 private:
  std::vector<uint8_t> masks_;
  uint64_t mutation_epoch_ = 0;
  VersionStamp stamp_;
};

}  // namespace sight

#endif  // SIGHT_GRAPH_VISIBILITY_H_
