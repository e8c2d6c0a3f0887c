#include "io/visibility_io.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace sight::io {
namespace {

// The user count the loads below are bounded by.
constexpr UserId kNumUsers = 5;

VisibilityTable SampleVisibility() {
  VisibilityTable v;
  v.SetVisible(1, ProfileItem::kPhoto);
  v.SetVisible(1, ProfileItem::kWork);
  v.SetVisible(3, ProfileItem::kWall);
  return v;
}

TEST(VisibilityIoTest, RoundTrip) {
  VisibilityTable original = SampleVisibility();
  std::stringstream buffer;
  ASSERT_TRUE(SaveVisibility(original, kNumUsers, &buffer).ok());
  auto loaded = LoadVisibility(&buffer, kNumUsers);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  for (UserId u = 0; u < kNumUsers; ++u) {
    EXPECT_EQ(loaded->Mask(u), original.Mask(u)) << "user " << u;
  }
}

TEST(VisibilityIoTest, AllHiddenUsersOmittedButDefaultHidden) {
  VisibilityTable original = SampleVisibility();
  std::stringstream buffer;
  ASSERT_TRUE(SaveVisibility(original, kNumUsers, &buffer).ok());
  std::string text = buffer.str();
  // Only two data rows (users 1 and 3).
  size_t lines = static_cast<size_t>(
      std::count(text.begin(), text.end(), '\n'));
  EXPECT_EQ(lines, 3u);  // header + 2 rows
  auto loaded = LoadVisibility(&buffer, kNumUsers);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->VisibleCount(0), 0u);
  EXPECT_EQ(loaded->VisibleCount(2), 0u);
}

TEST(VisibilityIoTest, PermutedHeaderAccepted) {
  std::stringstream buffer(
      "user_id,photo,wall,friend,location,education,work,hometown\n"
      "0,1,0,0,0,0,0,0\n");
  auto loaded = LoadVisibility(&buffer, kNumUsers);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->IsVisible(0, ProfileItem::kPhoto));
  EXPECT_FALSE(loaded->IsVisible(0, ProfileItem::kWall));
}

TEST(VisibilityIoTest, UnknownItemNameRejected) {
  std::stringstream buffer(
      "user_id,selfies,wall,friend,location,education,work,hometown\n");
  EXPECT_FALSE(LoadVisibility(&buffer, kNumUsers).ok());
}

TEST(VisibilityIoTest, NonBinaryCellRejected) {
  std::stringstream buffer(
      "user_id,wall,photo,friend,location,education,work,hometown\n"
      "0,2,0,0,0,0,0,0\n");
  EXPECT_FALSE(LoadVisibility(&buffer, kNumUsers).ok());
}

TEST(VisibilityIoTest, WrongColumnCountRejected) {
  std::stringstream buffer("user_id,wall,photo\n0,1,1\n");
  EXPECT_FALSE(LoadVisibility(&buffer, kNumUsers).ok());
}

TEST(VisibilityIoTest, BadUserIdRejected) {
  const std::string header =
      "user_id,wall,photo,friend,location,education,work,hometown\n";
  std::stringstream buffer(header + "x,1,0,0,0,0,0,0\n");
  EXPECT_FALSE(LoadVisibility(&buffer, kNumUsers).ok());
  // Only plain digits name a user: no sign (strtoull would wrap this one
  // to user 1), no leading blank.
  for (const char* id : {"-18446744073709551615", "+4", " 4"}) {
    std::stringstream malformed(header + id + ",1,0,0,0,0,0,0\n");
    EXPECT_EQ(LoadVisibility(&malformed, kNumUsers).status().code(),
              StatusCode::kInvalidArgument)
        << "'" << id << "'";
  }
  // The bound itself is past the last user.
  std::stringstream at_bound(header + "5,1,0,0,0,0,0,0\n");
  EXPECT_EQ(LoadVisibility(&at_bound, kNumUsers).status().code(),
            StatusCode::kOutOfRange);
  std::stringstream below_bound(header + "4,1,0,0,0,0,0,0\n");
  EXPECT_TRUE(LoadVisibility(&below_bound, kNumUsers).ok());
}

// A second row for a user is an error naming the row, not a silent
// overwrite of the first — also when the first row hides every item.
TEST(VisibilityIoTest, RepeatedUserRejected) {
  std::stringstream buffer(
      "user_id,wall,photo,friend,location,education,work,hometown\n"
      "2,0,0,0,0,0,0,0\n"
      "2,1,1,0,0,0,0,0\n");
  auto loaded = LoadVisibility(&buffer, kNumUsers);
  EXPECT_EQ(loaded.status().code(), StatusCode::kAlreadyExists);
  EXPECT_NE(loaded.status().message().find("row 3 repeats user 2"),
            std::string::npos)
      << loaded.status();
}

TEST(VisibilityIoTest, FileRoundTrip) {
  VisibilityTable original = SampleVisibility();
  std::string path = ::testing::TempDir() + "/sight_visibility_io_test.csv";
  ASSERT_TRUE(SaveVisibilityToFile(original, kNumUsers, path).ok());
  auto loaded = LoadVisibilityFromFile(path, kNumUsers);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Mask(1), original.Mask(1));
}

}  // namespace
}  // namespace sight::io
