// Categorical user profiles.
//
// OSN profiles in the paper are categorical records (gender, locale,
// last name, hometown, education, work). A ProfileSchema names the
// attributes; a ProfileTable stores one value vector per user, aligned with
// the schema. The empty string represents a missing value.

#ifndef SIGHT_GRAPH_PROFILE_H_
#define SIGHT_GRAPH_PROFILE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/table_version.h"
#include "graph/types.h"
#include "util/status.h"

namespace sight {

/// Index of an attribute within a schema.
using AttributeId = uint32_t;

inline constexpr const char* kMissingValue = "";

/// Ordered, named set of categorical attributes.
class ProfileSchema {
 public:
  ProfileSchema() = default;

  /// Creates a schema from attribute names; names must be unique and
  /// non-empty.
  [[nodiscard]]
  static Result<ProfileSchema> Create(std::vector<std::string> names);

  size_t num_attributes() const { return names_.size(); }
  const std::string& name(AttributeId id) const { return names_[id]; }
  const std::vector<std::string>& names() const { return names_; }

  /// NotFound when no attribute has this name.
  [[nodiscard]]
  Result<AttributeId> FindAttribute(const std::string& name) const;

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, AttributeId> index_;
};

/// Per-attribute weights over `schema`, normalized to sum 1: one finite,
/// non-negative weight per attribute with a finite, positive sum, or an
/// empty vector for uniform weights. InvalidArgument otherwise, and for
/// a schema without attributes.
[[nodiscard]]
Result<std::vector<double>> NormalizeAttributeWeights(
    const ProfileSchema& schema, std::vector<double> weights);

/// One user's attribute values, aligned with a schema (missing = "").
struct Profile {
  std::vector<std::string> values;

  bool IsMissing(AttributeId attr) const {
    return attr >= values.size() || values[attr].empty();
  }
  const std::string& value(AttributeId attr) const { return values[attr]; }
};

/// Profiles for a set of users sharing one schema.
///
/// The table does not require a profile for every graph user; absent users
/// read as all-missing profiles.
class ProfileTable {
 public:
  explicit ProfileTable(ProfileSchema schema)
      : schema_(std::move(schema)),
        missing_profile_{std::vector<std::string>(schema_.num_attributes(),
                                                  kMissingValue)} {}

  const ProfileSchema& schema() const { return schema_; }

  /// Stores a profile for `user`. The value vector must match the schema
  /// arity.
  [[nodiscard]] Status Set(UserId user, Profile profile);

  /// Convenience: set a single attribute value, creating an all-missing
  /// profile on first touch.
  [[nodiscard]]
  Status SetValue(UserId user, AttributeId attr, std::string value);

  bool Has(UserId user) const;

  /// Profile for `user`; all-missing when never set.
  const Profile& Get(UserId user) const;

  /// Value of `attr` for `user` ("" when missing).
  const std::string& Value(UserId user, AttributeId attr) const;

  size_t num_profiles() const { return count_; }

  /// Exclusive upper bound on user ids that may have a profile
  /// (Has(u) is false for all u >= user_id_bound()). For iteration.
  UserId user_id_bound() const {
    return static_cast<UserId>(profiles_.size());
  }

  /// Identity of the current contents (graph/table_version.h): the epoch
  /// is bumped by every successful mutation (Set / SetValue). Caches
  /// derived from the table (encoded rows, carried partitions) record the
  /// version they were built at and fall back to a cold rebuild when it
  /// no longer matches.
  TableVersion version() const { return {stamp_.id(), mutation_epoch_}; }

 private:
  ProfileSchema schema_;
  std::vector<Profile> profiles_;
  std::vector<bool> present_;
  size_t count_ = 0;
  uint64_t mutation_epoch_ = 0;
  VersionStamp stamp_;
  // What Get returns for a user without a profile. Built with the schema
  // and never written after, so concurrent reads need no lock.
  Profile missing_profile_;
};

}  // namespace sight

#endif  // SIGHT_GRAPH_PROFILE_H_
