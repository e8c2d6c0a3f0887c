#include "similarity/profile_similarity.h"

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/profile.h"
#include "graph/profile_codec.h"

namespace sight {
namespace {

// A population encoded once, with frequencies built over its rows; row i
// is users[i].
struct EncodedPool {
  EncodedProfileTable enc;
  ValueFrequencyTable freqs;

  double Frequency(AttributeId attr, const std::string& value) const {
    return freqs.FrequencyByCode(attr, enc.codec().Code(attr, value));
  }
};

EncodedPool Encode(const ProfileTable& table,
                   const std::vector<UserId>& users) {
  EncodedProfileTable enc = EncodedProfileTable::Build(table, users);
  ValueFrequencyTable freqs = ValueFrequencyTable::BuildFromCodes(
      enc.row(0), enc.num_rows(), enc.num_attributes());
  return {std::move(enc), std::move(freqs)};
}

double Ps(const ProfileSimilarity& ps, const EncodedPool& pool, size_t a,
          size_t b) {
  return ps.Compute(pool.enc.row(a), pool.enc.row(b), pool.freqs);
}

ProfileSchema TestSchema() {
  return ProfileSchema::Create({"gender", "locale", "last_name"}).value();
}

// Population: 0,1 male tr Yilmaz; 2 male us Smith; 3 female us Smith.
ProfileTable TestPopulation() {
  ProfileTable table(TestSchema());
  auto set = [&](UserId u, std::vector<std::string> values) {
    Profile p;
    p.values = std::move(values);
    EXPECT_TRUE(table.Set(u, p).ok());
  };
  set(0, {"male", "tr_TR", "Yilmaz"});
  set(1, {"male", "tr_TR", "Yilmaz"});
  set(2, {"male", "en_US", "Smith"});
  set(3, {"female", "en_US", "Smith"});
  return table;
}

TEST(ValueFrequencyTableTest, ComputesRelativeFrequencies) {
  ProfileTable table = TestPopulation();
  EncodedPool pool = Encode(table, {0, 1, 2, 3});
  EXPECT_DOUBLE_EQ(pool.Frequency(0, "male"), 0.75);
  EXPECT_DOUBLE_EQ(pool.Frequency(0, "female"), 0.25);
  EXPECT_DOUBLE_EQ(pool.Frequency(1, "tr_TR"), 0.5);
  EXPECT_DOUBLE_EQ(pool.Frequency(2, "Nowak"), 0.0);
  EXPECT_DOUBLE_EQ(pool.freqs.FrequencyByCode(2, ProfileCodec::kMissingCode),
                   0.0);
  EXPECT_EQ(pool.freqs.Support(0), 4u);
  EXPECT_EQ(pool.freqs.NumDistinct(1), 2u);
}

TEST(ValueFrequencyTableTest, MissingValuesExcluded) {
  ProfileTable table(TestSchema());
  Profile p;
  p.values = {"male", "", "Smith"};
  ASSERT_TRUE(table.Set(0, p).ok());
  p.values = {"female", "en_US", "Smith"};
  ASSERT_TRUE(table.Set(1, p).ok());
  EncodedPool pool = Encode(table, {0, 1});
  EXPECT_EQ(pool.freqs.Support(1), 1u);
  EXPECT_DOUBLE_EQ(pool.Frequency(1, "en_US"), 1.0);
}

TEST(ValueFrequencyTableTest, EmptyPopulation) {
  ProfileTable table = TestPopulation();
  EncodedPool pool = Encode(table, {});
  EXPECT_DOUBLE_EQ(pool.Frequency(0, "male"), 0.0);
  EXPECT_EQ(pool.freqs.Support(0), 0u);
  EXPECT_EQ(pool.freqs.num_attributes(), 3u);
}

TEST(ProfileSimilarityTest, IdenticalProfilesScoreOne) {
  ProfileTable table = TestPopulation();
  EncodedPool pool = Encode(table, {0, 1, 2, 3});
  auto ps = ProfileSimilarity::Create(table.schema()).value();
  EXPECT_DOUBLE_EQ(Ps(ps, pool, 0, 1), 1.0);
}

TEST(ProfileSimilarityTest, CompletelyDifferentRareValuesScoreLow) {
  ProfileTable table = TestPopulation();
  EncodedPool pool = Encode(table, {0, 1, 2, 3});
  auto ps = ProfileSimilarity::Create(table.schema()).value();
  // 1 (male/tr/Yilmaz) vs 3 (female/us/Smith): no identical attribute.
  double sim = Ps(ps, pool, 1, 3);
  EXPECT_GT(sim, 0.0);  // frequency-based partial credit
  EXPECT_LT(sim, 0.5);
}

TEST(ProfileSimilarityTest, PartialMatchBetweenExtremes) {
  ProfileTable table = TestPopulation();
  EncodedPool pool = Encode(table, {0, 1, 2, 3});
  auto ps = ProfileSimilarity::Create(table.schema()).value();
  double same = Ps(ps, pool, 0, 1);
  double share_gender = Ps(ps, pool, 0, 2);  // only gender same
  double nothing_same = Ps(ps, pool, 0, 3);
  EXPECT_GT(same, share_gender);
  EXPECT_GT(share_gender, nothing_same);
}

TEST(ProfileSimilarityTest, DifferentCommonValuesBeatDifferentRareValues) {
  // Two strangers differing on a *common* value pair should be more
  // similar than two differing on rare values (Section III-C semantics).
  ProfileTable table(TestSchema());
  auto set = [&](UserId u, std::vector<std::string> values) {
    Profile p;
    p.values = std::move(values);
    EXPECT_TRUE(table.Set(u, p).ok());
  };
  // 8 users: gender split 4/4 (common values), last names mostly unique.
  for (UserId u = 0; u < 8; ++u) {
    set(u, {u < 4 ? "male" : "female", "en_US",
            u < 6 ? "Name" + std::to_string(u) : "Shared"});
  }
  EncodedPool pool = Encode(table, {0, 1, 2, 3, 4, 5, 6, 7});
  auto ps = ProfileSimilarity::Create(table.schema()).value();
  // Attribute similarity for male vs female = min(0.5, 0.5) = 0.5;
  // for two unique names = min(1/8, 1/8) = 0.125.
  EXPECT_DOUBLE_EQ(pool.Frequency(0, "male"), 0.5);
  // Users 0 and 4 differ in gender (common) and name (rare), share
  // locale.
  double sim = Ps(ps, pool, 0, 4);
  double expected = (0.5 + 1.0 + 0.125) / 3.0;
  EXPECT_NEAR(sim, expected, 1e-12);
}

TEST(ProfileSimilarityTest, MissingValuesContributeZero) {
  ProfileTable table(TestSchema());
  Profile a;
  a.values = {"male", "", "Smith"};
  Profile b;
  b.values = {"male", "en_US", "Smith"};
  ASSERT_TRUE(table.Set(0, a).ok());
  ASSERT_TRUE(table.Set(1, b).ok());
  EncodedPool pool = Encode(table, {0, 1});
  auto ps = ProfileSimilarity::Create(table.schema()).value();
  // locale contributes 0 (missing on a): (1 + 0 + 1) / 3.
  EXPECT_NEAR(Ps(ps, pool, 0, 1), 2.0 / 3.0, 1e-12);
}

TEST(ProfileSimilarityTest, WeightsChangeContribution) {
  ProfileTable table = TestPopulation();
  EncodedPool pool = Encode(table, {0, 1, 2, 3});
  // All weight on gender.
  auto ps = ProfileSimilarity::Create(table.schema(), {1.0, 0.0, 0.0}).value();
  EXPECT_DOUBLE_EQ(Ps(ps, pool, 0, 2), 1.0);  // both male
}

TEST(ProfileSimilarityTest, CreateValidatesWeights) {
  ProfileSchema schema = TestSchema();
  EXPECT_FALSE(ProfileSimilarity::Create(schema, {1.0}).ok());
  EXPECT_FALSE(ProfileSimilarity::Create(schema, {1.0, -1.0, 0.0}).ok());
  EXPECT_FALSE(ProfileSimilarity::Create(schema, {0.0, 0.0, 0.0}).ok());
  // Non-finite weights, and finite ones whose sum overflows.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ProfileSimilarity::Create(schema, {inf, 1.0, 1.0}).ok());
  EXPECT_FALSE(ProfileSimilarity::Create(schema, {nan, 1.0, 1.0}).ok());
  EXPECT_FALSE(ProfileSimilarity::Create(schema, {1e308, 1e308, 0.0}).ok());
  EXPECT_TRUE(ProfileSimilarity::Create(schema, {2.0, 1.0, 1.0}).ok());
}

TEST(ProfileSimilarityTest, WeightsAreNormalized) {
  ProfileSchema schema = TestSchema();
  auto ps = ProfileSimilarity::Create(schema, {2.0, 1.0, 1.0}).value();
  const auto& w = ps.normalized_weights();
  EXPECT_DOUBLE_EQ(w[0], 0.5);
  EXPECT_DOUBLE_EQ(w[1], 0.25);
  EXPECT_DOUBLE_EQ(w[2], 0.25);
}

TEST(ProfileSimilarityTest, EmptySchemaRejected) {
  ProfileSchema schema = ProfileSchema::Create({}).value();
  EXPECT_FALSE(ProfileSimilarity::Create(schema).ok());
}

TEST(ProfileSimilarityTest, SymmetricInProfiles) {
  ProfileTable table = TestPopulation();
  EncodedPool pool = Encode(table, {0, 1, 2, 3});
  auto ps = ProfileSimilarity::Create(table.schema()).value();
  EXPECT_DOUBLE_EQ(Ps(ps, pool, 1, 3), Ps(ps, pool, 3, 1));
}

}  // namespace
}  // namespace sight
