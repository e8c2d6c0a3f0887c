// sight_cli's command line: an unknown flag, or a numeric flag whose
// value is not a whole decimal number, is a usage error (exit 2), and an
// unknown generator gender or locale exits 1; either way the command
// writes nothing.

#include <cstdlib>
#include <filesystem>
#include <string>

#include <sys/wait.h>

#include <gtest/gtest.h>

namespace {

int ExitCode(const std::string& args) {
  std::string command =
      std::string(SIGHT_CLI_BIN) + " " + args + " > /dev/null 2>&1";
  int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

class SightCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "sight_cli_XXXXXX";
    ASSERT_NE(mkdtemp(dir_.data()), nullptr);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  bool Wrote(const std::string& name) const {
    return std::filesystem::exists(dir_ + "/" + name);
  }

  std::string dir_;
};

TEST_F(SightCliTest, MalformedNumberIsUsageError) {
  EXPECT_EQ(ExitCode("generate --out=" + dir_ + "/a --strangers=abc"), 2);
  EXPECT_EQ(ExitCode("generate --out=" + dir_ + "/b --friends=12x"), 2);
  EXPECT_EQ(ExitCode("generate --out=" + dir_ + "/c --strangers="), 2);
  EXPECT_EQ(ExitCode("generate --out=" + dir_ + "/d --seed=-1"), 2);
  EXPECT_EQ(ExitCode("generate --out=" + dir_ +
                     "/e --seed=99999999999999999999999"),
            2);
  for (const char* name : {"a", "b", "c", "d", "e"}) {
    EXPECT_FALSE(Wrote(name)) << name;
  }
}

TEST_F(SightCliTest, UnknownFlagIsUsageError) {
  EXPECT_EQ(
      ExitCode("generate --out=" + dir_ + "/a --strangers=50 --stranger=50"),
      2);
  EXPECT_EQ(ExitCode("generate --out=" + dir_ + "/b --verbose"), 2);
  EXPECT_FALSE(Wrote("a"));
  EXPECT_FALSE(Wrote("b"));
}

// An owner gender or locale the generator does not know exits 1 before
// anything is written.
TEST_F(SightCliTest, UnknownGenderOrLocaleIsRejected) {
  EXPECT_EQ(ExitCode("generate --out=" + dir_ + "/a --gender=x"), 1);
  EXPECT_EQ(ExitCode("generate --out=" + dir_ + "/b --gender=Female"), 1);
  EXPECT_EQ(ExitCode("generate --out=" + dir_ + "/c --locale=xx_XX"), 1);
  for (const char* name : {"a", "b", "c"}) {
    EXPECT_FALSE(Wrote(name)) << name;
  }
  EXPECT_EQ(ExitCode("generate --out=" + dir_ +
                     "/d --friends=20 --strangers=50 --gender=female"),
            0);
  EXPECT_TRUE(Wrote("d/meta.txt"));
}

TEST_F(SightCliTest, WellFormedFlagsRun) {
  EXPECT_EQ(ExitCode("generate --out=" + dir_ +
                     "/data --friends=20 --strangers=50 --seed=3"),
            0);
  EXPECT_TRUE(Wrote("data/meta.txt"));
  EXPECT_EQ(ExitCode("stats --data=" + dir_ + "/data"), 0);
}

}  // namespace
