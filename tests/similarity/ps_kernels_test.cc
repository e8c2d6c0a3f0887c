// The batched kernels must be bitwise drop-ins for the per-pair scalar
// PS: the active dispatch's lanes (AVX2 where the build and the CPU have
// it; the SIMD-off build runs the same tests on the scalar kernel), every
// tail length, pools on either side of every column-stripe edge, and the
// threaded graph build have to reproduce ProfileSimilarity::Compute
// exactly —
// including kMissingCode and kUnknownValue lanes and codes outside the
// frequency dictionary.

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
#include "sim/facebook_generator.h"
#include "similarity/profile_similarity.h"
#include "util/thread_pool.h"

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

// Every weight of the graph `got` against the reference triangle: a
// pair with no CSR edge reads 0, which is what the reference holds for
// it.
void ExpectBitwiseEqual(const SimilarityMatrix& got,
                        const SimilarityTriangle& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      EXPECT_EQ(got.Get(i, j), want.Get(i, j))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

// One dense pool through BuildGraphs, which scores it against the same
// whole-pool frequencies the references use.
SimilarityMatrix BuildOne(const EncodedProfileTable& enc,
                          const ProfileSimilarity& ps, ThreadPool* pool) {
  std::vector<SimilarityMatrix> graphs = ps_kernels::BuildGraphs(
      {ps_kernels::PoolRows{enc.row(0), enc.num_rows()}}, ps, /*top_k=*/0,
      pool);
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

  ExpectBitwiseEqual(BuildOne(enc, ps, nullptr), ReferenceFill(enc, ps));
}

// A six-attribute code row is 24 bytes, so a column stripe is 512
// columns wide. Pools on either side of each stripe edge: one stripe
// (511, 512, 513 — the 513th column has no pair), a second stripe of one
// pair (514), two full stripes (1,025) and a third stripe of one pair
// (1,026). Every pair must be written exactly once, by the stripe that
// owns its column.
TEST(PsKernelsTest, BuildGraphsMatchesAroundStripeEdges) {
  OwnerDataset ds = MakeDataset(313, 1100);
  auto ps = ProfileSimilarity::Create(ds.profiles.schema()).value();
  for (size_t n : {size_t{511}, size_t{512}, size_t{513}, size_t{514},
                   size_t{1025}, size_t{1026}}) {
    SCOPED_TRACE("n " + std::to_string(n));
    EncodedProfileTable enc = FirstStrangers(ds, n);
    ExpectBitwiseEqual(BuildOne(enc, ps, nullptr), ReferenceFill(enc, ps));
  }
}

// Pools past one stripe, their stripes run on 1, 2 and 4 threads.
TEST(PsKernelsTest, BuildGraphsAcrossThreadsMatchesScalarReference) {
  OwnerDataset ds = MakeDataset(317, 1100);
  auto ps = ProfileSimilarity::Create(ds.profiles.schema()).value();
  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool four(4);
  for (size_t n : {size_t{514}, size_t{1025}, size_t{1026}}) {
    EncodedProfileTable enc = FirstStrangers(ds, n);
    const SimilarityTriangle want = ReferenceFill(enc, ps);
    for (ThreadPool* pool : {&one, &two, &four}) {
      SCOPED_TRACE("n " + std::to_string(n) + " threads " +
                   std::to_string(pool->num_threads()));
      ExpectBitwiseEqual(BuildOne(enc, ps, pool), want);
    }
  }
}

TEST(PsKernelsTest, EmptyAndSingletonPools) {
  ProfileTable table = TestPopulation();
  auto ps = ProfileSimilarity::Create(table.schema()).value();
  for (std::vector<UserId> users :
       {std::vector<UserId>{}, std::vector<UserId>{2}}) {
    EncodedProfileTable enc = EncodedProfileTable::Build(table, users);
    SimilarityMatrix graph = BuildOne(enc, ps, nullptr);
    EXPECT_EQ(graph.size(), users.size());
    EXPECT_EQ(graph.NumEdges(), 0u) << users.size() << " users";
  }
}

}  // namespace
}  // namespace sight
