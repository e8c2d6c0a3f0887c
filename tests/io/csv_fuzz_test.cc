// Randomized round-trip property tests: arbitrary field contents
// (commas, quotes, newlines, unicode bytes) must survive
// CsvWriter -> CsvReader, and arbitrary generated datasets must survive
// the io/ directory round trip.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/profile_io.h"
#include "util/csv.h"
#include "util/random.h"

namespace sight::io {
namespace {

// Random field with hostile characters.
std::string RandomField(Rng* rng) {
  static const char* kAlphabet[] = {
      "a", "B", "9", ",", "\"", "\n", "\r\n", " ", "'", ";",
      "\xc3\xa9" /* e-acute */, "x,y", "\"\"", "end",
  };
  size_t length = static_cast<size_t>(rng->UniformInt(0, 12));
  std::string field;
  for (size_t i = 0; i < length; ++i) {
    field += kAlphabet[rng->UniformInt(0, 13)];
  }
  return field;
}

class CsvFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvFuzzTest, WriterReaderRoundTripIsIdentity) {
  Rng rng(GetParam());
  size_t num_cols = static_cast<size_t>(rng.UniformInt(1, 6));
  std::vector<std::string> header;
  for (size_t c = 0; c < num_cols; ++c) {
    header.push_back("col" + std::to_string(c));
  }
  CsvWriter writer(header);
  std::vector<std::vector<std::string>> rows;
  size_t num_rows = static_cast<size_t>(rng.UniformInt(0, 20));
  for (size_t r = 0; r < num_rows; ++r) {
    std::vector<std::string> row;
    bool all_empty_single = false;
    do {
      row.clear();
      for (size_t c = 0; c < num_cols; ++c) row.push_back(RandomField(&rng));
      // A record that is a single empty field is indistinguishable from a
      // blank line; skip that degenerate shape.
      all_empty_single = num_cols == 1 && row[0].empty();
    } while (all_empty_single);
    rows.push_back(row);
    writer.AddRow(row);
  }

  std::istringstream in(writer.ToString());
  CsvReader reader(&in);
  std::vector<std::string> record;
  ASSERT_TRUE(reader.Next(&record));
  EXPECT_EQ(record, header);
  for (size_t r = 0; r < rows.size(); ++r) {
    ASSERT_TRUE(reader.Next(&record))
        << "row " << r << ": " << reader.status();
    EXPECT_EQ(record, rows[r]) << "row " << r;
  }
  EXPECT_FALSE(reader.Next(&record));
  EXPECT_TRUE(reader.status().ok()) << reader.status();
}

TEST_P(CsvFuzzTest, ProfileTableRoundTripWithHostileValues) {
  Rng rng(GetParam() ^ 0xf00d);
  auto schema = ProfileSchema::Create({"alpha", "beta", "gamma"}).value();
  ProfileTable table(schema);
  size_t num_users = static_cast<size_t>(rng.UniformInt(1, 15));
  for (size_t u = 0; u < num_users; ++u) {
    Profile p;
    for (size_t a = 0; a < 3; ++a) p.values.push_back(RandomField(&rng));
    ASSERT_TRUE(table.Set(static_cast<UserId>(u * 3), p).ok());
  }
  std::stringstream buffer;
  ASSERT_TRUE(SaveProfiles(table, &buffer).ok());
  auto loaded = LoadProfiles(&buffer, kInvalidUser);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_profiles(), table.num_profiles());
  for (size_t u = 0; u < num_users; ++u) {
    UserId id = static_cast<UserId>(u * 3);
    EXPECT_EQ(loaded->Get(id).values, table.Get(id).values) << "user " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace sight::io
