// Dictionary encoding for categorical profiles.
//
// The paper's profile similarity (Definition 2/3) and Squeezer clustering
// only ever ask two questions of an attribute value: "are these two values
// the same?" and "how often does this value occur in the pool?". Strings
// answer both slowly (byte compares, hash lookups); interning each
// attribute's observed values into dense uint32_t codes answers them with
// an integer compare and an array load. A ProfileCodec holds the
// per-attribute dictionaries; an EncodedProfileTable is a user list's
// profiles re-expressed as flat code rows. The assessment pipeline keeps
// one per owner (StrangerEncodeCache) and gathers each pool's rows from
// it for the pool graph build (similarity/ps_kernels.h).
//
// Code space per attribute: kMissingCode (0) is the sentinel for missing
// values; observed values get codes 1..NumCodes-1 in first-seen order.
// Code() on a never-interned value returns kUnknownValue, which no code
// array contains, so support/frequency lookups for it are 0 — the answer
// an unordered_map keyed by the strings would give on a miss.

#ifndef SIGHT_GRAPH_PROFILE_CODEC_H_
#define SIGHT_GRAPH_PROFILE_CODEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/profile.h"
#include "graph/types.h"

namespace sight {

/// Per-attribute string -> dense code dictionaries. Interning is
/// append-only: a value's code never changes once assigned, so encoded
/// rows stay valid as the dictionary grows (the incremental-Squeezer
/// arrangement). Not thread-safe for concurrent Intern; const lookups on
/// a no-longer-growing codec are safe to share across threads.
class ProfileCodec {
 public:
  /// Sentinel code for missing values (the empty string).
  static constexpr uint32_t kMissingCode = 0;
  /// Returned by Code() for values never interned. Larger than any real
  /// code, so bounds-checked array lookups naturally read it as "absent".
  static constexpr uint32_t kUnknownValue = 0xFFFFFFFFu;

  explicit ProfileCodec(size_t num_attributes)
      : dicts_(num_attributes), values_(num_attributes) {
    for (auto& v : values_) v.emplace_back();  // code 0 = ""
  }

  size_t num_attributes() const { return dicts_.size(); }

  /// Code for `value` under `attr`, interning it when unseen. "" maps to
  /// kMissingCode without touching the dictionary.
  uint32_t Intern(AttributeId attr, const std::string& value);

  /// Code for `value` under `attr`; kMissingCode for "", kUnknownValue
  /// when never interned.
  uint32_t Code(AttributeId attr, const std::string& value) const;

  /// Exclusive upper bound on codes assigned for `attr` (1 + distinct
  /// interned values). Every Intern() result is < NumCodes(attr).
  size_t NumCodes(AttributeId attr) const { return values_[attr].size(); }

  /// The string a code decodes to ("" for kMissingCode). `code` must be
  /// < NumCodes(attr).
  const std::string& Value(AttributeId attr, uint32_t code) const {
    return values_[attr][code];
  }

  /// Encodes one profile into `out` (num_attributes() entries), interning
  /// unseen values. Short value vectors read as missing.
  void EncodeInto(const Profile& profile, uint32_t* out);

 private:
  std::vector<std::unordered_map<std::string, uint32_t>> dicts_;
  // values_[attr][code] is the decoded string; slot 0 is "".
  std::vector<std::vector<std::string>> values_;
};

/// The profiles of a user list as a row-major matrix of codes: row i is
/// users()[i]'s profile, one uint32_t per schema attribute. The
/// similarity hot paths run entirely on the codes.
class EncodedProfileTable {
 public:
  /// Encodes the profiles of `users` from `table` with a fresh codec.
  static EncodedProfileTable Build(const ProfileTable& table,
                                   const std::vector<UserId>& users);

  /// Appends one row per user, encoding through this table's codec.
  /// Because interning is append-only, Build(prefix) + AppendRows(suffix)
  /// assigns exactly the codes Build(prefix + suffix) would — existing
  /// rows are never touched. `table` must have the same arity the table
  /// was built with.
  void AppendRows(const ProfileTable& table, const std::vector<UserId>& users);

  size_t num_rows() const { return users_.size(); }
  size_t num_attributes() const { return num_attributes_; }

  /// Row of codes for the i-th user (num_attributes() entries).
  const uint32_t* row(size_t i) const {
    return codes_.data() + i * num_attributes_;
  }

  uint32_t code(size_t i, AttributeId attr) const {
    return codes_[i * num_attributes_ + attr];
  }

  const std::vector<UserId>& users() const { return users_; }
  const ProfileCodec& codec() const { return codec_; }

 private:
  EncodedProfileTable(ProfileCodec codec, std::vector<UserId> users,
                      size_t num_attributes)
      : codec_(std::move(codec)), users_(std::move(users)),
        num_attributes_(num_attributes) {}

  ProfileCodec codec_;
  std::vector<UserId> users_;
  size_t num_attributes_;
  std::vector<uint32_t> codes_;  // row-major, num_rows x num_attributes
};

/// Encode stage of the assessment pipeline (DESIGN.md §14): one codec +
/// encoded table per owner, carried across crawler ticks by the service
/// or fresh for one cold call. Each tick, Refresh() appends rows for
/// newly discovered strangers only; a fingerprint over the source table
/// (its version + arity) and the carried stranger prefix guards
/// staleness — any mismatch falls back to a cold rebuild, never to
/// silent reuse. GatherRows() then hands each pool its members' code
/// rows; the codes come from one shared injective dictionary, which
/// preserves both code equality and per-value pool frequencies, so
/// everything downstream (ValueFrequencyTable::BuildFromCodes + the PS
/// kernels) is bitwise-identical to encoding each pool on its own.
class StrangerEncodeCache {
 public:
  struct RefreshResult {
    /// False when the cache was rebuilt from scratch (first use, source
    /// table changed, or the stranger prefix no longer matches).
    bool reused = false;
    /// Rows encoded by this call (the suffix on reuse, everything on a
    /// rebuild).
    size_t rows_appended = 0;
  };

  StrangerEncodeCache() = default;

  /// Brings the cache up to date with `strangers` (the owner's full
  /// discovery-order list). Reuses carried rows when the fingerprint
  /// holds and the carried users are a prefix of `strangers`.
  RefreshResult Refresh(const ProfileTable& profiles,
                        const std::vector<UserId>& strangers);

  /// Copies the code rows of `users` (in order) into `out`, resized to
  /// users.size() * num_attributes. False if any user has no cached row.
  [[nodiscard]] bool GatherRows(const std::vector<UserId>& users,
                                std::vector<uint32_t>* out) const;

  size_t num_rows() const { return encoded_ ? encoded_->num_rows() : 0; }
  size_t num_attributes() const {
    return encoded_ ? encoded_->num_attributes() : 0;
  }

  /// Drops everything; the next Refresh is a cold rebuild.
  void Clear();

 private:
  std::optional<EncodedProfileTable> encoded_;
  std::unordered_map<UserId, size_t> row_of_;
  TableVersion source_version_;
};

}  // namespace sight

#endif  // SIGHT_GRAPH_PROFILE_CODEC_H_
