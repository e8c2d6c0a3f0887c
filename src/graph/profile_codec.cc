#include "graph/profile_codec.h"

#include <cstring>

#include "util/logging.h"

namespace sight {

uint32_t ProfileCodec::Intern(AttributeId attr, const std::string& value) {
  if (value.empty()) return kMissingCode;
  auto& dict = dicts_[attr];
  auto it = dict.find(value);
  if (it != dict.end()) return it->second;
  uint32_t code = static_cast<uint32_t>(values_[attr].size());
  dict.emplace(value, code);
  values_[attr].push_back(value);
  return code;
}

uint32_t ProfileCodec::Code(AttributeId attr, const std::string& value) const {
  if (value.empty()) return kMissingCode;
  const auto& dict = dicts_[attr];
  auto it = dict.find(value);
  return it == dict.end() ? kUnknownValue : it->second;
}

void ProfileCodec::EncodeInto(const Profile& profile, uint32_t* out) {
  for (AttributeId a = 0; a < dicts_.size(); ++a) {
    out[a] = profile.IsMissing(a) ? kMissingCode : Intern(a, profile.value(a));
  }
}

EncodedProfileTable EncodedProfileTable::Build(
    const ProfileTable& table, const std::vector<UserId>& users) {
  size_t num_attrs = table.schema().num_attributes();
  EncodedProfileTable result(ProfileCodec(num_attrs), users, num_attrs);
  result.codes_.resize(users.size() * num_attrs);
  uint32_t* out = result.codes_.data();
  for (UserId u : users) {
    result.codec_.EncodeInto(table.Get(u), out);
    out += num_attrs;
  }
  return result;
}

void EncodedProfileTable::AppendRows(const ProfileTable& table,
                                     const std::vector<UserId>& users) {
  SIGHT_CHECK(table.schema().num_attributes() == num_attributes_);
  size_t old_rows = users_.size();
  users_.insert(users_.end(), users.begin(), users.end());
  codes_.resize(users_.size() * num_attributes_);
  uint32_t* out = codes_.data() + old_rows * num_attributes_;
  for (UserId u : users) {
    codec_.EncodeInto(table.Get(u), out);
    out += num_attributes_;
  }
}

StrangerEncodeCache::RefreshResult StrangerEncodeCache::Refresh(
    const ProfileTable& profiles, const std::vector<UserId>& strangers) {
  RefreshResult result;
  bool valid = encoded_.has_value() && source_version_ == profiles.version() &&
               encoded_->num_attributes() ==
                   profiles.schema().num_attributes() &&
               encoded_->num_rows() <= strangers.size();
  if (valid) {
    // The discovery list is append-only in the serving flow; anything
    // else (reordering, removal) breaks the prefix and rebuilds.
    const std::vector<UserId>& cached = encoded_->users();
    for (size_t i = 0; i < cached.size(); ++i) {
      if (cached[i] != strangers[i]) {
        valid = false;
        break;
      }
    }
  }
  if (!valid) {
    encoded_.emplace(EncodedProfileTable::Build(profiles, strangers));
    row_of_.clear();
    row_of_.reserve(strangers.size());
    for (size_t i = 0; i < strangers.size(); ++i) row_of_[strangers[i]] = i;
    source_version_ = profiles.version();
    result.reused = false;
    result.rows_appended = strangers.size();
    return result;
  }
  size_t old_rows = encoded_->num_rows();
  if (old_rows < strangers.size()) {
    std::vector<UserId> suffix(strangers.begin() +
                                   static_cast<ptrdiff_t>(old_rows),
                               strangers.end());
    encoded_->AppendRows(profiles, suffix);
    for (size_t i = old_rows; i < strangers.size(); ++i) {
      row_of_[strangers[i]] = i;
    }
  }
  result.reused = true;
  result.rows_appended = strangers.size() - old_rows;
  return result;
}

bool StrangerEncodeCache::GatherRows(const std::vector<UserId>& users,
                                     std::vector<uint32_t>* out) const {
  if (!encoded_.has_value()) return false;
  const size_t stride = encoded_->num_attributes();
  out->resize(users.size() * stride);
  uint32_t* dst = out->data();
  for (UserId u : users) {
    auto it = row_of_.find(u);
    if (it == row_of_.end()) return false;
    std::memcpy(dst, encoded_->row(it->second), stride * sizeof(uint32_t));
    dst += stride;
  }
  return true;
}

void StrangerEncodeCache::Clear() {
  encoded_.reset();
  row_of_.clear();
  source_version_ = {};
}

}  // namespace sight
