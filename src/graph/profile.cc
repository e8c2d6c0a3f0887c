#include "graph/profile.h"

#include <cmath>

#include "util/string_util.h"

namespace sight {

Result<ProfileSchema> ProfileSchema::Create(std::vector<std::string> names) {
  ProfileSchema schema;
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i].empty()) {
      return Status::InvalidArgument("attribute names must be non-empty");
    }
    auto [it, inserted] =
        schema.index_.emplace(names[i], static_cast<AttributeId>(i));
    if (!inserted) {
      return Status::InvalidArgument(
          StrFormat("duplicate attribute name '%s'", names[i].c_str()));
    }
  }
  schema.names_ = std::move(names);
  return schema;
}

Result<AttributeId> ProfileSchema::FindAttribute(
    const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound(
        StrFormat("no attribute named '%s'", name.c_str()));
  }
  return it->second;
}

Result<std::vector<double>> NormalizeAttributeWeights(
    const ProfileSchema& schema, std::vector<double> weights) {
  const size_t n = schema.num_attributes();
  if (n == 0) return Status::InvalidArgument("schema has no attributes");
  if (weights.empty()) {
    weights.assign(n, 1.0 / static_cast<double>(n));
    return weights;
  }
  if (weights.size() != n) {
    return Status::InvalidArgument(
        StrFormat("got %zu weights for %zu attributes", weights.size(), n));
  }
  double sum = 0.0;
  for (double w : weights) {
    if (!(std::isfinite(w) && w >= 0.0)) {
      return Status::InvalidArgument(
          "attribute weights must be finite and >= 0");
    }
    sum += w;
  }
  if (!std::isfinite(sum)) {
    return Status::InvalidArgument("attribute weights must have a finite sum");
  }
  if (!(sum > 0.0)) {
    return Status::InvalidArgument("attribute weights must not all be zero");
  }
  for (double& w : weights) w /= sum;
  return weights;
}

Status ProfileTable::Set(UserId user, Profile profile) {
  if (profile.values.size() != schema_.num_attributes()) {
    return Status::InvalidArgument(StrFormat(
        "profile has %zu values, schema expects %zu", profile.values.size(),
        schema_.num_attributes()));
  }
  if (user >= profiles_.size()) {
    profiles_.resize(user + 1);
    present_.resize(user + 1, false);
  }
  if (!present_[user]) {
    present_[user] = true;
    ++count_;
  }
  profiles_[user] = std::move(profile);
  ++mutation_epoch_;
  return Status::OK();
}

Status ProfileTable::SetValue(UserId user, AttributeId attr,
                              std::string value) {
  if (attr >= schema_.num_attributes()) {
    return Status::InvalidArgument(
        StrFormat("attribute id %u out of range", attr));
  }
  if (user >= profiles_.size()) {
    profiles_.resize(user + 1);
    present_.resize(user + 1, false);
  }
  if (!present_[user]) {
    profiles_[user].values.assign(schema_.num_attributes(), kMissingValue);
    present_[user] = true;
    ++count_;
  }
  profiles_[user].values[attr] = std::move(value);
  ++mutation_epoch_;
  return Status::OK();
}

bool ProfileTable::Has(UserId user) const {
  return user < present_.size() && present_[user];
}

const Profile& ProfileTable::Get(UserId user) const {
  return Has(user) ? profiles_[user] : missing_profile_;
}

const std::string& ProfileTable::Value(UserId user, AttributeId attr) const {
  return Get(user).values[attr];
}

}  // namespace sight
