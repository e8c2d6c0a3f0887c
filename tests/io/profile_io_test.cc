#include "io/profile_io.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace sight::io {
namespace {

// The user count the loads below are bounded by.
constexpr UserId kNumUsers = 8;

ProfileTable SampleProfiles() {
  ProfileTable table(
      ProfileSchema::Create({"gender", "last_name"}).value());
  Profile p;
  p.values = {"male", "O'Brien, Jr"};  // needs CSV quoting
  EXPECT_TRUE(table.Set(2, p).ok());
  p.values = {"female", ""};
  EXPECT_TRUE(table.Set(5, p).ok());
  return table;
}

TEST(ProfileIoTest, RoundTrip) {
  ProfileTable original = SampleProfiles();
  std::stringstream buffer;
  ASSERT_TRUE(SaveProfiles(original, &buffer).ok());
  auto loaded = LoadProfiles(&buffer, kNumUsers);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->schema().names(), original.schema().names());
  EXPECT_EQ(loaded->num_profiles(), 2u);
  EXPECT_EQ(loaded->Value(2, 1), "O'Brien, Jr");
  EXPECT_EQ(loaded->Value(5, 0), "female");
  EXPECT_TRUE(loaded->Get(5).IsMissing(1));
  EXPECT_FALSE(loaded->Has(3));
}

TEST(ProfileIoTest, QuotedFieldsWithNewlines) {
  std::stringstream buffer(
      "user_id,bio\n0,\"line one\nline two\"\n1,simple\n");
  auto loaded = LoadProfiles(&buffer, kNumUsers);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->Value(0, 0), "line one\nline two");
  EXPECT_EQ(loaded->Value(1, 0), "simple");
}

TEST(ProfileIoTest, HeaderMustStartWithUserId) {
  std::stringstream buffer("id,gender\n0,male\n");
  EXPECT_FALSE(LoadProfiles(&buffer, kNumUsers).ok());
}

TEST(ProfileIoTest, EmptyInputRejected) {
  std::stringstream buffer("");
  EXPECT_FALSE(LoadProfiles(&buffer, kNumUsers).ok());
}

TEST(ProfileIoTest, RowArityMismatchRejected) {
  std::stringstream buffer("user_id,gender,locale\n0,male\n");
  EXPECT_FALSE(LoadProfiles(&buffer, kNumUsers).ok());
}

TEST(ProfileIoTest, BadUserIdRejected) {
  std::stringstream buffer("user_id,gender\nabc,male\n");
  EXPECT_FALSE(LoadProfiles(&buffer, kNumUsers).ok());
  std::stringstream buffer2("user_id,gender\n-3,male\n");
  EXPECT_FALSE(LoadProfiles(&buffer2, kNumUsers).ok());
  // Only plain digits name a user: no sign (strtoull would wrap this one
  // to user 1), no leading blank.
  for (const char* id : {"-18446744073709551615", "+7", " 7"}) {
    std::stringstream malformed(std::string("user_id,gender\n") + id +
                                ",male\n");
    EXPECT_EQ(LoadProfiles(&malformed, kNumUsers).status().code(),
              StatusCode::kInvalidArgument)
        << "'" << id << "'";
  }
  // The bound itself is past the last user.
  std::stringstream at_bound("user_id,gender\n8,male\n");
  EXPECT_EQ(LoadProfiles(&at_bound, kNumUsers).status().code(),
            StatusCode::kOutOfRange);
  std::stringstream below_bound("user_id,gender\n7,male\n");
  EXPECT_TRUE(LoadProfiles(&below_bound, kNumUsers).ok());
}

// A second row for a user is an error naming the row, not a silent
// overwrite of the first.
TEST(ProfileIoTest, RepeatedUserRejected) {
  std::stringstream buffer("user_id,gender\n3,male\n5,male\n3,female\n");
  auto loaded = LoadProfiles(&buffer, kNumUsers);
  EXPECT_EQ(loaded.status().code(), StatusCode::kAlreadyExists);
  EXPECT_NE(loaded.status().message().find("row 4 repeats user 3"),
            std::string::npos)
      << loaded.status();
}

TEST(ProfileIoTest, DuplicateHeaderAttributeRejected) {
  std::stringstream buffer("user_id,gender,gender\n0,male,male\n");
  EXPECT_FALSE(LoadProfiles(&buffer, kNumUsers).ok());
}

TEST(ProfileIoTest, BlankLinesSkipped) {
  std::stringstream buffer("user_id,gender\n\n0,male\n\n");
  auto loaded = LoadProfiles(&buffer, kNumUsers);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_profiles(), 1u);
}

TEST(ProfileIoTest, FileRoundTrip) {
  ProfileTable original = SampleProfiles();
  std::string path = ::testing::TempDir() + "/sight_profile_io_test.csv";
  ASSERT_TRUE(SaveProfilesToFile(original, path).ok());
  auto loaded = LoadProfilesFromFile(path, kNumUsers);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_profiles(), 2u);
}

}  // namespace
}  // namespace sight::io
