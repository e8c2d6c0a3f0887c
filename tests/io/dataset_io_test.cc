#include "io/dataset_io.h"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "core/risk_engine.h"
#include "sim/owner_model.h"

namespace sight::io {
namespace {

sim::OwnerDataset MakeDataset(uint64_t seed) {
  sim::GeneratorConfig config;
  config.num_friends = 20;
  config.num_strangers = 60;
  config.num_communities = 3;
  auto gen = sim::FacebookGenerator::Create(config).value();
  Rng rng(seed);
  return gen.Generate({sim::Gender::kMale, sim::Locale::kTR}, &rng).value();
}

std::string TempDirFor(const char* name) {
  std::string dir = ::testing::TempDir() + "/sight_dataset_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(DatasetIoTest, RoundTripPreservesEverything) {
  sim::OwnerDataset original = MakeDataset(1);
  std::string dir = TempDirFor("roundtrip");
  ASSERT_TRUE(SaveOwnerDataset(original, dir).ok());

  auto loaded = LoadOwnerDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->owner, original.owner);
  EXPECT_EQ(loaded->graph.NumUsers(), original.graph.NumUsers());
  EXPECT_EQ(loaded->graph.NumEdges(), original.graph.NumEdges());
  EXPECT_EQ(loaded->friends, original.friends);
  EXPECT_EQ(loaded->strangers, original.strangers);
  for (UserId u = 0; u < original.graph.NumUsers(); ++u) {
    EXPECT_EQ(loaded->profiles.Get(u).values,
              original.profiles.Get(u).values)
        << "user " << u;
    EXPECT_EQ(loaded->visibility.Mask(u), original.visibility.Mask(u))
        << "user " << u;
  }
}

TEST(DatasetIoTest, LoadedDatasetRunsThroughTheEngine) {
  sim::OwnerDataset original = MakeDataset(2);
  std::string dir = TempDirFor("engine");
  ASSERT_TRUE(SaveOwnerDataset(original, dir).ok());
  auto loaded = LoadOwnerDataset(dir).value();

  Rng attitude_rng(3);
  sim::OwnerAttitude attitude = sim::SampleOwnerAttitude(&attitude_rng);
  auto oracle = sim::OwnerModel::Create(attitude, &loaded.profiles,
                                        &loaded.visibility)
                    .value();
  auto engine = RiskEngine::Create(RiskEngineConfig{}).value();
  Rng rng(5);
  auto report = engine
                    .AssessOwner(loaded.graph, loaded.profiles,
                                 loaded.visibility, loaded.owner, &oracle,
                                 &rng)
                    .value();
  EXPECT_EQ(report.assessment.strangers.size(), loaded.strangers.size());
}

TEST(DatasetIoTest, MissingDirectoryIsNotFound) {
  EXPECT_EQ(LoadOwnerDataset("/nonexistent/sight").status().code(),
            StatusCode::kNotFound);
}

TEST(DatasetIoTest, CorruptMetaRejected) {
  sim::OwnerDataset original = MakeDataset(4);
  std::string dir = TempDirFor("corrupt");
  ASSERT_TRUE(SaveOwnerDataset(original, dir).ok());
  {
    std::ofstream meta(dir + "/meta.txt");
    meta << "not-an-owner-line\n";
  }
  EXPECT_FALSE(LoadOwnerDataset(dir).ok());
}

TEST(DatasetIoTest, OwnerOutOfRangeRejected) {
  sim::OwnerDataset original = MakeDataset(5);
  std::string dir = TempDirFor("range");
  ASSERT_TRUE(SaveOwnerDataset(original, dir).ok());
  {
    std::ofstream meta(dir + "/meta.txt");
    meta << "owner 999999\n";
  }
  EXPECT_EQ(LoadOwnerDataset(dir).status().code(), StatusCode::kOutOfRange);
}

// Appends `row` as one more line of the CSV file at `path`.
void AppendRow(const std::string& path, const std::string& row) {
  std::ofstream out(path, std::ios::app);
  out << row << "\n";
}

TEST(DatasetIoTest, ProfileRowBeyondTheGraphRejected) {
  sim::OwnerDataset original = MakeDataset(6);
  std::string dir = TempDirFor("profile_range");
  ASSERT_TRUE(SaveOwnerDataset(original, dir).ok());
  std::string row = std::to_string(original.graph.NumUsers());
  for (size_t a = 0; a < original.profiles.schema().num_attributes(); ++a) {
    row += ",x";
  }
  AppendRow(dir + "/profiles.csv", row);
  EXPECT_EQ(LoadOwnerDataset(dir).status().code(), StatusCode::kOutOfRange);
}

TEST(DatasetIoTest, VisibilityRowBeyondTheGraphRejected) {
  sim::OwnerDataset original = MakeDataset(7);
  std::string dir = TempDirFor("visibility_range");
  ASSERT_TRUE(SaveOwnerDataset(original, dir).ok());
  AppendRow(dir + "/visibility.csv",
            std::to_string(original.graph.NumUsers()) + ",1,0,0,0,0,0,0");
  EXPECT_EQ(LoadOwnerDataset(dir).status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace sight::io
