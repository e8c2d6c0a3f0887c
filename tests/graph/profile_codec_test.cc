// Unit tests for the dictionary encoding of categorical profiles
// (ProfileCodec / EncodedProfileTable).

#include "graph/profile_codec.h"

#include <gtest/gtest.h>

#include "graph/profile.h"

namespace sight {
namespace {

ProfileTable ThreeAttributeTable() {
  auto schema =
      ProfileSchema::Create({"gender", "locale", "hometown"}).value();
  return ProfileTable(std::move(schema));
}

TEST(ProfileCodecTest, InternAssignsDenseCodesInFirstSeenOrder) {
  ProfileCodec codec(2);
  EXPECT_EQ(codec.Intern(0, "male"), 1u);
  EXPECT_EQ(codec.Intern(0, "female"), 2u);
  EXPECT_EQ(codec.Intern(0, "male"), 1u);
  EXPECT_EQ(codec.NumCodes(0), 3u);  // "", "male", "female"

  // Dictionaries are per-attribute: the same string gets an independent
  // code under another attribute.
  EXPECT_EQ(codec.Intern(1, "male"), 1u);
  EXPECT_EQ(codec.NumCodes(1), 2u);
}

TEST(ProfileCodecTest, EmptyStringIsTheMissingSentinel) {
  ProfileCodec codec(1);
  EXPECT_EQ(codec.Intern(0, ""), ProfileCodec::kMissingCode);
  EXPECT_EQ(codec.Code(0, ""), ProfileCodec::kMissingCode);
  // The sentinel never grows the dictionary.
  EXPECT_EQ(codec.NumCodes(0), 1u);
  EXPECT_EQ(codec.Value(0, ProfileCodec::kMissingCode), "");
}

TEST(ProfileCodecTest, CodeOnNeverInternedValueIsUnknown) {
  ProfileCodec codec(1);
  codec.Intern(0, "tr");
  EXPECT_EQ(codec.Code(0, "de"), ProfileCodec::kUnknownValue);
  // kUnknownValue is out of every code array's range by construction.
  EXPECT_GE(ProfileCodec::kUnknownValue, codec.NumCodes(0));
  EXPECT_EQ(codec.Intern(0, "de"), 2u);
  EXPECT_EQ(codec.Code(0, "de"), 2u);
}

TEST(ProfileCodecTest, ValueRoundTripsInternedCodes) {
  ProfileCodec codec(1);
  uint32_t tr = codec.Intern(0, "tr");
  uint32_t de = codec.Intern(0, "de");
  EXPECT_EQ(codec.Value(0, tr), "tr");
  EXPECT_EQ(codec.Value(0, de), "de");
}

TEST(ProfileCodecTest, EncodeIntoTreatsShortVectorsAsMissing) {
  ProfileCodec codec(3);
  // A profile whose value vector is shorter than the schema reads as
  // missing past its end (ProfileTable's all-missing default profile).
  Profile profile;
  profile.values = {"male"};
  uint32_t codes[3] = {99, 99, 99};
  codec.EncodeInto(profile, codes);
  EXPECT_EQ(codes[0], 1u);
  EXPECT_EQ(codes[1], ProfileCodec::kMissingCode);
  EXPECT_EQ(codes[2], ProfileCodec::kMissingCode);
}

TEST(EncodedProfileTableTest, RowsMatchProfiles) {
  ProfileTable table = ThreeAttributeTable();
  ASSERT_TRUE(table.Set(5, Profile{{"male", "tr", "ankara"}}).ok());
  ASSERT_TRUE(table.Set(9, Profile{{"female", "tr", ""}}).ok());
  // User 7 has no profile: all attributes missing.
  std::vector<UserId> users = {5, 9, 7};

  EncodedProfileTable enc = EncodedProfileTable::Build(table, users);
  ASSERT_EQ(enc.num_rows(), 3u);
  ASSERT_EQ(enc.num_attributes(), 3u);
  EXPECT_EQ(enc.users(), users);

  // Identical strings share a code; distinct strings do not.
  EXPECT_EQ(enc.code(0, 1), enc.code(1, 1));                  // "tr" == "tr"
  EXPECT_NE(enc.code(0, 0), enc.code(1, 0));                  // male/female
  EXPECT_EQ(enc.code(1, 2), ProfileCodec::kMissingCode);      // ""
  EXPECT_EQ(enc.code(2, 0), ProfileCodec::kMissingCode);      // no profile
  EXPECT_EQ(enc.code(2, 1), ProfileCodec::kMissingCode);
  EXPECT_EQ(enc.code(2, 2), ProfileCodec::kMissingCode);

  // Rows decode back to the stored strings.
  for (size_t i = 0; i < enc.num_rows(); ++i) {
    const Profile& profile = table.Get(users[i]);
    for (AttributeId a = 0; a < enc.num_attributes(); ++a) {
      const std::string& expected =
          profile.IsMissing(a) ? std::string() : profile.value(a);
      EXPECT_EQ(enc.codec().Value(a, enc.code(i, a)), expected)
          << "row " << i << " attr " << a;
    }
  }
}

TEST(ProfileCodecTest, InterningIsAppendOnlyAcrossGrowth) {
  // The invariance the whole carry design rests on: a code, once
  // assigned, never changes — no matter how much the dictionary grows
  // afterwards — and never-interned values keep reading kUnknownValue.
  ProfileCodec codec(2);
  uint32_t male = codec.Intern(0, "male");
  uint32_t tr = codec.Intern(1, "tr");
  std::vector<std::string> extra = {"female", "x", "de", "ankara", "izmir"};
  for (const std::string& value : extra) {
    codec.Intern(0, value);
    codec.Intern(1, value);
  }
  EXPECT_EQ(codec.Code(0, "male"), male);
  EXPECT_EQ(codec.Code(1, "tr"), tr);
  EXPECT_EQ(codec.Intern(0, "male"), male);
  EXPECT_EQ(codec.Code(0, "never-seen"), ProfileCodec::kUnknownValue);
  EXPECT_EQ(codec.Code(0, ""), ProfileCodec::kMissingCode);
}

TEST(EncodedProfileTableTest, AppendRowsMatchesOneShotBuild) {
  ProfileTable table = ThreeAttributeTable();
  ASSERT_TRUE(table.Set(1, Profile{{"male", "tr", "ankara"}}).ok());
  ASSERT_TRUE(table.Set(2, Profile{{"female", "tr", "izmir"}}).ok());
  ASSERT_TRUE(table.Set(3, Profile{{"male", "de", "berlin"}}).ok());
  ASSERT_TRUE(table.Set(4, Profile{{"", "de", "ankara"}}).ok());
  std::vector<UserId> all = {1, 2, 3, 4};

  // Build over a prefix, then append the rest one batch at a time: every
  // row and every dictionary code must equal the one-shot build's.
  EncodedProfileTable grown = EncodedProfileTable::Build(table, {1, 2});
  grown.AppendRows(table, {3});
  grown.AppendRows(table, {4});
  EncodedProfileTable oneshot = EncodedProfileTable::Build(table, all);

  ASSERT_EQ(grown.num_rows(), oneshot.num_rows());
  EXPECT_EQ(grown.users(), oneshot.users());
  for (size_t i = 0; i < all.size(); ++i) {
    for (AttributeId a = 0; a < grown.num_attributes(); ++a) {
      EXPECT_EQ(grown.code(i, a), oneshot.code(i, a))
          << "row " << i << " attr " << a;
    }
  }
  for (AttributeId a = 0; a < grown.num_attributes(); ++a) {
    EXPECT_EQ(grown.codec().NumCodes(a), oneshot.codec().NumCodes(a));
  }
}

TEST(StrangerEncodeCacheTest, RefreshAppendsOnlyTheSuffix) {
  ProfileTable table = ThreeAttributeTable();
  ASSERT_TRUE(table.Set(1, Profile{{"male", "tr", "ankara"}}).ok());
  ASSERT_TRUE(table.Set(2, Profile{{"female", "tr", "izmir"}}).ok());
  ASSERT_TRUE(table.Set(3, Profile{{"male", "de", "berlin"}}).ok());

  StrangerEncodeCache cache;
  auto first = cache.Refresh(table, {1, 2});
  EXPECT_FALSE(first.reused);
  EXPECT_EQ(first.rows_appended, 2u);
  ASSERT_EQ(cache.num_rows(), 2u);

  // Identical list: nothing to encode.
  auto same = cache.Refresh(table, {1, 2});
  EXPECT_TRUE(same.reused);
  EXPECT_EQ(same.rows_appended, 0u);

  // Grown list: only the new stranger is encoded.
  auto grown = cache.Refresh(table, {1, 2, 3});
  EXPECT_TRUE(grown.reused);
  EXPECT_EQ(grown.rows_appended, 1u);
  EXPECT_EQ(cache.num_rows(), 3u);

  // Gathered rows match a direct encode of the same users (any order).
  std::vector<uint32_t> rows;
  ASSERT_TRUE(cache.GatherRows({3, 1}, &rows));
  ASSERT_EQ(rows.size(), 2u * cache.num_attributes());
  EncodedProfileTable direct = EncodedProfileTable::Build(table, {1, 2, 3});
  for (AttributeId a = 0; a < cache.num_attributes(); ++a) {
    EXPECT_EQ(rows[a], direct.code(2, a));
    EXPECT_EQ(rows[cache.num_attributes() + a], direct.code(0, a));
  }
  // An uncached user fails the gather (caller re-encodes directly).
  EXPECT_FALSE(cache.GatherRows({1, 99}, &rows));
}

TEST(StrangerEncodeCacheTest, RefreshRebuildsOnMutationOrBrokenPrefix) {
  ProfileTable table = ThreeAttributeTable();
  ASSERT_TRUE(table.Set(1, Profile{{"male", "tr", "ankara"}}).ok());
  ASSERT_TRUE(table.Set(2, Profile{{"female", "tr", "izmir"}}).ok());

  StrangerEncodeCache cache;
  (void)cache.Refresh(table, {1, 2});

  // A profile edit bumps the table's mutation epoch: the fingerprint
  // breaks and the next refresh is a cold rebuild that sees the edit.
  ASSERT_TRUE(table.SetValue(1, 2, "istanbul").ok());
  auto after_edit = cache.Refresh(table, {1, 2});
  EXPECT_FALSE(after_edit.reused);
  EXPECT_EQ(after_edit.rows_appended, 2u);
  std::vector<uint32_t> rows;
  ASSERT_TRUE(cache.GatherRows({1}, &rows));
  EncodedProfileTable direct = EncodedProfileTable::Build(table, {1, 2});
  for (AttributeId a = 0; a < cache.num_attributes(); ++a) {
    EXPECT_EQ(rows[a], direct.code(0, a));
  }

  // A reordered (non-prefix) list also rebuilds.
  auto reordered = cache.Refresh(table, {2, 1});
  EXPECT_FALSE(reordered.reused);
  EXPECT_EQ(reordered.rows_appended, 2u);

  // Clear drops everything.
  cache.Clear();
  EXPECT_EQ(cache.num_rows(), 0u);
  EXPECT_FALSE(cache.GatherRows({1}, &rows));
}

}  // namespace
}  // namespace sight
