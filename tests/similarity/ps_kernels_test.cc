// The batched kernels must be bitwise drop-ins for the per-pair scalar
// PS: the active dispatch's lanes (AVX2 where the build and the CPU have
// it; the SIMD-off build runs the same tests on the scalar kernel) and
// every tail length have to reproduce ProfileSimilarity::Compute exactly
// — including kMissingCode and kUnknownValue lanes and codes outside the
// frequency dictionary. A dense pool's graph from BuildGraphs, on pools
// from empty up to 1,100 rows, is its factored PS graph: every pair it
// reads must be Compute's bits, and its harmonic solves must match the
// solves on the reference CSR within 1e-9.

#include "similarity/ps_kernels.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/profile.h"
#include "graph/profile_codec.h"
#include "learning/pool_graph_testing.h"
#include "sim/facebook_generator.h"
#include "similarity/profile_similarity.h"

namespace sight {
namespace {

using sim::FacebookGenerator;
using sim::Gender;
using sim::GeneratorConfig;
using sim::Locale;
using sim::OwnerDataset;

ProfileSchema TestSchema() {
  return ProfileSchema::Create({"gender", "locale", "last_name"}).value();
}

// Small population with skewed frequencies so min(fa, fb) picks both
// operands across pairs.
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
  set(4, {"female", "", "Nowak"});
  return table;
}

OwnerDataset MakeDataset(uint64_t seed, size_t strangers) {
  GeneratorConfig config;
  config.num_friends = 30;
  config.num_strangers = strangers;
  config.num_communities = 3;
  auto gen = FacebookGenerator::Create(config).value();
  Rng rng(seed);
  return gen.Generate({Gender::kFemale, Locale::kUS}, &rng).value();
}

TEST(PsKernelsTest, DispatchReportsAKnownName) {
  std::string name = ps_kernels::DispatchName(ps_kernels::ActiveDispatch());
  EXPECT_TRUE(name == "scalar" || name == "avx2") << name;
}

// Raw code rows exercising every lane state: matching codes, differing
// in-dictionary codes, kMissingCode on either side, kUnknownValue, and
// codes just past the frequency array. Every batch size from empty up
// past the lane group covers every tail of the 4-wide kernel.
TEST(PsKernelsTest, ComputeBatchMatchesScalarOnRawRows) {
  ProfileTable table = TestPopulation();
  EncodedProfileTable enc =
      EncodedProfileTable::Build(table, {0, 1, 2, 3, 4});
  ValueFrequencyTable freqs = ValueFrequencyTable::BuildFromCodes(
      enc.row(0), enc.num_rows(), enc.num_attributes());
  auto ps = ProfileSimilarity::Create(table.schema()).value();
  const size_t stride = enc.num_attributes();

  const uint32_t unknown = ProfileCodec::kUnknownValue;
  const uint32_t missing = ProfileCodec::kMissingCode;
  // a-rows: a fully-present row, one with a missing attribute, one fully
  // missing, and one holding an out-of-dictionary and a past-the-end
  // code.
  const std::vector<std::vector<uint32_t>> a_rows = {
      {1, 1, 1},
      {2, missing, 2},
      {missing, missing, missing},
      {unknown, 2, 99},
  };

  for (size_t count : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                       size_t{5}, size_t{6}, size_t{7}, size_t{9}, size_t{16},
                       size_t{31}, size_t{70}}) {
    // b-rows cycling through in-dictionary, missing, unknown, and
    // past-the-end codes in every attribute position.
    std::vector<uint32_t> b(count * stride);
    for (size_t k = 0; k < count; ++k) {
      for (size_t a = 0; a < stride; ++a) {
        switch ((k + a) % 6) {
          case 0: b[k * stride + a] = missing; break;
          case 1: b[k * stride + a] = 1; break;
          case 2: b[k * stride + a] = 2; break;
          case 3: b[k * stride + a] = unknown; break;
          case 4: b[k * stride + a] = 3; break;
          default: b[k * stride + a] = 77; break;  // past the dictionary
        }
      }
    }
    std::vector<double> out(count, -1.0);
    for (const std::vector<uint32_t>& a_row : a_rows) {
      ps_kernels::ComputeBatch(a_row.data(), b.data(), stride, count, ps,
                               freqs, out.data());
      for (size_t k = 0; k < count; ++k) {
        EXPECT_EQ(out[k],
                  ps.Compute(a_row.data(), b.data() + k * stride, freqs))
            << "count " << count << " row " << k;
      }
    }
  }
}

// Reference fill: the plain per-pair scalar loop the kernels replace,
// over frequencies of the whole table.
SimilarityTriangle ReferenceFill(const EncodedProfileTable& enc,
                                 const ProfileSimilarity& ps) {
  const ValueFrequencyTable freqs = ValueFrequencyTable::BuildFromCodes(
      enc.row(0), enc.num_rows(), enc.num_attributes());
  SimilarityTriangle out(enc.num_rows());
  for (size_t i = 0; i < enc.num_rows(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      out.Set(i, j, ps.Compute(enc.row(i), enc.row(j), freqs));
    }
  }
  return out;
}

// The factored graph `got` against the reference triangle: every pair's
// weight bit for bit, then the harmonic solves against the solves on
// the triangle's compaction.
void ExpectMatchesReference(const PoolGraph& got,
                            SimilarityTriangle reference) {
  ASSERT_NE(got.factored(), nullptr);
  ExpectSamePairs(got, reference, "pairs");
  const size_t n = got.size();
  const PoolGraph want = std::move(reference).Compact();
  ExpectSameSolves(got, want, SpreadLabels(n, std::max<size_t>(2, n / 40)),
                   "n=" + std::to_string(n));
}

// One dense pool through BuildGraphs, which builds it against the same
// whole-pool frequencies the references use.
PoolGraph BuildOne(const EncodedProfileTable& enc,
                   const ProfileSimilarity& ps) {
  std::vector<PoolGraph> graphs = ps_kernels::BuildGraphs(
      {ps_kernels::PoolRows{enc.row(0), enc.num_rows()}}, ps, /*top_k=*/0);
  EXPECT_EQ(graphs.size(), 1u);
  return std::move(graphs.front());
}

// The first n strangers of `ds`, encoded.
EncodedProfileTable FirstStrangers(const OwnerDataset& ds, size_t n) {
  EXPECT_GE(ds.strangers.size(), n);
  n = std::min(n, ds.strangers.size());
  return EncodedProfileTable::Build(
      ds.profiles,
      std::vector<UserId>(ds.strangers.begin(),
                          ds.strangers.begin() +
                              static_cast<std::ptrdiff_t>(n)));
}

TEST(PsKernelsTest, BuildGraphsMatchesScalarReference) {
  OwnerDataset ds = MakeDataset(311, 140);
  EncodedProfileTable enc =
      EncodedProfileTable::Build(ds.profiles, ds.strangers);
  auto ps = ProfileSimilarity::Create(ds.profiles.schema()).value();

  ExpectMatchesReference(BuildOne(enc, ps), ReferenceFill(enc, ps));
}

// Generated pools of a few hundred up to 1,100 rows.
TEST(PsKernelsTest, BuildGraphsMatchesOnLargePools) {
  OwnerDataset ds = MakeDataset(313, 1100);
  auto ps = ProfileSimilarity::Create(ds.profiles.schema()).value();
  for (size_t n : {size_t{300}, size_t{513}, size_t{1100}}) {
    SCOPED_TRACE("n " + std::to_string(n));
    EncodedProfileTable enc = FirstStrangers(ds, n);
    ExpectMatchesReference(BuildOne(enc, ps), ReferenceFill(enc, ps));
  }
}

TEST(PsKernelsTest, EmptyAndSingletonPools) {
  ProfileTable table = TestPopulation();
  auto ps = ProfileSimilarity::Create(table.schema()).value();
  for (std::vector<UserId> users :
       {std::vector<UserId>{}, std::vector<UserId>{2}}) {
    EncodedProfileTable enc = EncodedProfileTable::Build(table, users);
    PoolGraph graph = BuildOne(enc, ps);
    ASSERT_NE(graph.factored(), nullptr);
    EXPECT_EQ(graph.size(), users.size());
    for (double degree : graph.factored()->Degrees()) {
      EXPECT_EQ(degree, 0.0) << users.size() << " users";
    }
  }
}

}  // namespace
}  // namespace sight
