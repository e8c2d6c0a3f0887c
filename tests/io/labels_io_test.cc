#include "io/labels_io.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace sight::io {
namespace {

TEST(LabelsIoTest, RoundTrip) {
  PoolLearner::KnownLabels labels;
  labels[5] = 1.0;
  labels[2] = 3.0;
  labels[99] = 2.0;
  std::stringstream buffer;
  ASSERT_TRUE(SaveKnownLabels(labels, &buffer).ok());
  auto loaded = LoadKnownLabels(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, labels);
}

TEST(LabelsIoTest, OutputIsSortedByStranger) {
  PoolLearner::KnownLabels labels;
  labels[30] = 1.0;
  labels[10] = 2.0;
  labels[20] = 3.0;
  std::stringstream buffer;
  ASSERT_TRUE(SaveKnownLabels(labels, &buffer).ok());
  EXPECT_EQ(buffer.str(), "stranger,label\n10,2\n20,3\n30,1\n");
}

TEST(LabelsIoTest, EmptyLabelsRoundTrip) {
  PoolLearner::KnownLabels labels;
  std::stringstream buffer;
  ASSERT_TRUE(SaveKnownLabels(labels, &buffer).ok());
  auto loaded = LoadKnownLabels(&buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST(LabelsIoTest, RejectsBadHeader) {
  std::stringstream buffer("user,value\n1,2\n");
  EXPECT_FALSE(LoadKnownLabels(&buffer).ok());
}

TEST(LabelsIoTest, RejectsOutOfRangeLabel) {
  std::stringstream buffer("stranger,label\n1,4\n");
  EXPECT_EQ(LoadKnownLabels(&buffer).status().code(),
            StatusCode::kOutOfRange);
  std::stringstream buffer2("stranger,label\n1,0\n");
  EXPECT_FALSE(LoadKnownLabels(&buffer2).ok());
}

TEST(LabelsIoTest, RejectsMalformedRows) {
  std::stringstream buffer("stranger,label\nabc,2\n");
  EXPECT_FALSE(LoadKnownLabels(&buffer).ok());
  std::stringstream buffer2("stranger,label\n1,2,3\n");
  EXPECT_FALSE(LoadKnownLabels(&buffer2).ok());
  // Only plain digits name a stranger: no sign (strtoull would wrap the
  // first to user 1 and the second to user 4294967294), no leading blank.
  for (const char* id : {"-18446744073709551615", "-18446744069414584322",
                         "+7", " 7"}) {
    std::stringstream malformed(std::string("stranger,label\n") + id +
                                ",2\n");
    EXPECT_EQ(LoadKnownLabels(&malformed).status().code(),
              StatusCode::kInvalidArgument)
        << "'" << id << "'";
  }
}

// A second row for a stranger is an error naming the row, not a silent
// overwrite of the first — also when it repeats the same label.
TEST(LabelsIoTest, RejectsRepeatedStranger) {
  for (const char* repeat : {"7,3\n", "7,1\n"}) {
    std::stringstream buffer(std::string("stranger,label\n7,1\n9,2\n") +
                             repeat);
    auto loaded = LoadKnownLabels(&buffer);
    EXPECT_EQ(loaded.status().code(), StatusCode::kAlreadyExists) << repeat;
    EXPECT_NE(loaded.status().message().find("row 4 repeats stranger 7"),
              std::string::npos)
        << loaded.status();
  }
}

TEST(LabelsIoTest, FileRoundTrip) {
  PoolLearner::KnownLabels labels;
  labels[7] = 2.0;
  std::string path = ::testing::TempDir() + "/sight_labels_io_test.csv";
  ASSERT_TRUE(SaveKnownLabelsToFile(labels, path).ok());
  auto loaded = LoadKnownLabelsFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, labels);
  EXPECT_EQ(LoadKnownLabelsFromFile("/no/such/file.csv").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace sight::io
