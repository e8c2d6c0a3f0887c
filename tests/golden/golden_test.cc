// Golden digests: end-to-end outputs pinned bit for bit, so a change
// meant to keep behaviour (a refactor, a faster path) proves it here.
//
//  * Every field of one cold top-k assessment (RiskService::AssessNow,
//    sparsify_top_k = 8) of a generated paper-scale owner, doubles by
//    their bit patterns. The same digest is required from a serial and
//    a 4-thread engine.
//  * Every field, carry telemetry included, of every tick of a growing
//    crawl driven through RiskService::AssessSync: once with all three
//    cross-tick carries on, once with all of them off (the
//    rebuild-per-tick semantics). Each crawl is pinned twice: in full,
//    and in its policy form, which drops the predicted-score bits and
//    the solve iteration counts. A change that only re-rounds the solve
//    moves the full digests and keeps the policy ones.
//  * The stdout of bench/headline_accuracy and of every figure/table
//    harness at its default arguments.
//  * Every gain ratio and importance that Definition 6 mining returns
//    for a few generated owners, doubles by their bit patterns.
//  * The label files sight_cli writes for a generated dataset.
//
// A change that alters behaviour on purpose re-baselines the constants
// below (the failure message prints the new digest) and says why.

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "core/attribute_importance.h"
#include "core/benefit.h"
#include "service/risk_service.h"
#include "sim/facebook_generator.h"
#include "sim/owner_model.h"
#include "sim/schema.h"
#include "similarity/network_similarity.h"
#include "util/random.h"

namespace sight {
namespace {

constexpr uint64_t kColdTopKDigest = 0x358a7565a3266f27;
constexpr uint64_t kHeadlineDigest = 0x7391f7709a468af7;
constexpr uint64_t kCrawlCarriedDigest = 0xc4475d893cd5f17f;
constexpr uint64_t kCrawlRebuiltDigest = 0x73d3d22acb4f85c1;
constexpr uint64_t kCrawlCarriedPolicyDigest = 0xf7ba8674031db8c4;
constexpr uint64_t kCrawlRebuiltPolicyDigest = 0xab2c6cfe2615eb79;
constexpr uint64_t kCliLabelsDigest = 0xf65d08f52d3d95be;
constexpr uint64_t kImportanceDigest = 0x49740137f3c8c17e;

struct HarnessDigest {
  const char* name;
  uint64_t digest;
};
constexpr HarnessDigest kReproDigests[] = {
    {"fig4_nsg_distribution", 0x67bee2a41a023fec},
    {"fig5_error_by_round", 0x59c7925816bf1a82},
    {"fig6_stabilization", 0x8625b4eada951887},
    {"fig7_risk_by_similarity", 0x26fdb722d060bcf6},
    {"table1_attribute_importance", 0xcb6e36c75890ea32},
    {"table2_benefit_importance", 0x5f5b45ba1ddba525},
    {"table3_theta_weights", 0x6050a68a145d2521},
    {"table4_visibility_gender", 0x89eaa2223720fe63},
    {"table5_visibility_locale", 0x665e828729e33113},
    {"ext_accuracy_by_nsg", 0xd387f764910598db},
    {"ablation_design_choices", 0x657331aaf2dfa74a},
};

// FNV-1a, 64-bit.
uint64_t Digest(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Hex(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, value);
  return buf;
}

// One line per record; doubles as their exact bit patterns.
class Fields {
 public:
  Fields& Add(const char* name, uint64_t value) {
    return Add(name, std::to_string(value));
  }
  Fields& Add(const char* name, double value) {
    return Add(name, std::bit_cast<uint64_t>(value));
  }
  Fields& Add(const char* name, bool value) {
    return Add(name, static_cast<uint64_t>(value));
  }
  Fields& Add(const char* name, const std::string& value) {
    text_ += name;
    text_ += '=';
    text_ += value;
    text_ += ' ';
    return *this;
  }
  void EndRecord() { text_ += '\n'; }
  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

// kFull writes every field. kPolicy writes what the assessment decided
// — queries, labels, stopping, carries — and leaves out the two fields
// that record how the solve got there: each stranger's predicted-score
// bits and each round's solve iteration count.
enum class Form { kFull, kPolicy };

std::string Serialize(const RiskReport& report, Form form = Form::kFull) {
  const bool full = form == Form::kFull;
  Fields f;
  const AssessmentResult& a = report.assessment;
  f.Add("num_strangers", uint64_t{report.num_strangers})
      .Add("num_pools", uint64_t{report.num_pools})
      .Add("total_queries", uint64_t{a.total_queries})
      .Add("pools_total", uint64_t{a.pools_total})
      .Add("pools_converged", uint64_t{a.pools_converged})
      .Add("pools_exhausted", uint64_t{a.pools_exhausted})
      .Add("pools_round_limit", uint64_t{a.pools_round_limit})
      .Add("pools_carried", uint64_t{a.pools_carried})
      .Add("mean_rounds", a.mean_rounds)
      .Add("validation_matches", uint64_t{a.validation_matches})
      .Add("validation_total", uint64_t{a.validation_total})
      .Add("partition_reused", report.carry.partition_reused)
      .Add("partition_new_strangers",
           uint64_t{report.carry.partition_new_strangers})
      .Add("encode_reused", report.carry.encode_reused)
      .Add("encode_rows_appended", uint64_t{report.carry.encode_rows_appended})
      .EndRecord();
  for (size_t size : report.pool_sizes) {
    f.Add("pool_size", uint64_t{size}).EndRecord();
  }
  for (const RoundRecord& r : a.rounds) {
    f.Add("pool_index", uint64_t{r.pool_index})
        .Add("round", uint64_t{r.round})
        .Add("newly_labeled", uint64_t{r.newly_labeled})
        .Add("rmse_valid", r.rmse_valid)
        .Add("rmse", r.rmse)
        .Add("unstabilized", uint64_t{r.unstabilized})
        .Add("stabilized", r.stabilized)
        .Add("solver", r.solver);
    if (full) f.Add("solve_iterations", uint64_t{r.solve_iterations});
    f.EndRecord();
  }
  for (const StrangerAssessment& s : a.strangers) {
    f.Add("stranger", uint64_t{s.stranger})
        .Add("network_similarity", s.network_similarity)
        .Add("benefit", s.benefit)
        .Add("pool_index", uint64_t{s.pool_index});
    if (full) f.Add("predicted_score", s.predicted_score);
    f.Add("predicted_label", static_cast<uint64_t>(s.predicted_label))
        .Add("owner_labeled", s.owner_labeled)
        .EndRecord();
  }
  return f.text();
}

// A generated paper-scale owner (3,661 strangers) assessed cold with
// top-8 sparsification, from fixed seeds.
uint64_t ColdTopKDigest(size_t num_threads) {
  sim::GeneratorConfig gen_config;
  gen_config.num_strangers = 3661;
  auto generator = sim::FacebookGenerator::Create(gen_config).value();
  Rng gen_rng(20120401);
  sim::OwnerDataset ds =
      generator.Generate({sim::Gender::kMale, sim::Locale::kTR}, &gen_rng)
          .value();
  Rng attitude_rng(47);
  sim::OwnerAttitude attitude = sim::SampleOwnerAttitude(&attitude_rng);

  RiskServiceConfig config;
  config.num_shards = 1;
  config.engine.pools.attribute_weights = sim::PaperAttributeWeights();
  config.engine.theta = attitude.theta;
  config.engine.learner.confidence = attitude.confidence;
  config.engine.learner.sparsify_top_k = 8;
  config.engine.num_threads = num_threads;
  auto service = RiskService::Create(config).value();
  OwnerRegistration registration;
  registration.owner = ds.owner;
  registration.graph = &ds.graph;
  registration.profiles = &ds.profiles;
  registration.visibility = &ds.visibility;
  EXPECT_TRUE(service->RegisterOwner(registration).ok());
  EXPECT_TRUE(service->DiscoverAllStrangers(ds.owner).ok());

  auto oracle =
      sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility).value();
  Rng rng(3661);
  Result<RiskReport> report = service->AssessNow(ds.owner, &oracle, &rng);
  EXPECT_TRUE(report.ok());
  if (!report.ok()) return 0;
  EXPECT_EQ(report->num_strangers, ds.strangers.size());
  return Digest(Serialize(report.value()));
}

TEST(GoldenTest, ColdTopKAssessment) {
  uint64_t digest = ColdTopKDigest(1);
  EXPECT_EQ(digest, kColdTopKDigest) << "digest is now " << Hex(digest);
}

TEST(GoldenTest, ColdTopKAssessmentOnFourThreads) {
  uint64_t digest = ColdTopKDigest(4);
  EXPECT_EQ(digest, kColdTopKDigest) << "digest is now " << Hex(digest);
}

// A generated 1,000-stranger owner discovered in five waves through
// RiskService::AssessSync, then re-assessed once unchanged and once after
// a profile edit, with dense pools. Every tick's report is serialized,
// carry telemetry included, in `form`.
uint64_t CrawlDigest(bool carries, Form form) {
  sim::GeneratorConfig gen_config;
  gen_config.num_strangers = 1000;
  auto generator = sim::FacebookGenerator::Create(gen_config).value();
  Rng gen_rng(20120402);
  sim::OwnerDataset ds =
      generator.Generate({sim::Gender::kFemale, sim::Locale::kUS}, &gen_rng)
          .value();
  Rng attitude_rng(53);
  sim::OwnerAttitude attitude = sim::SampleOwnerAttitude(&attitude_rng);

  RiskServiceConfig config;
  config.num_shards = 1;
  config.engine.pools.attribute_weights = sim::PaperAttributeWeights();
  config.engine.theta = attitude.theta;
  config.engine.learner.confidence = attitude.confidence;
  config.carry_learners = carries;
  config.carry_pool_partition = carries;
  config.carry_encoded_tables = carries;
  auto service = RiskService::Create(config).value();
  OwnerRegistration registration;
  registration.owner = ds.owner;
  registration.graph = &ds.graph;
  registration.profiles = &ds.profiles;
  registration.visibility = &ds.visibility;
  EXPECT_TRUE(service->RegisterOwner(registration).ok());

  auto oracle =
      sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility).value();
  Rng rng(1000);
  std::string text;
  auto tick = [&] {
    Result<RiskReport> report = service->AssessSync(ds.owner, &oracle, &rng);
    EXPECT_TRUE(report.ok());
    if (report.ok()) text += Serialize(report.value(), form);
    text += "--\n";
  };
  const size_t waves = 5;
  const size_t n = ds.strangers.size();
  for (size_t w = 0; w < waves; ++w) {
    std::vector<UserId> wave(
        ds.strangers.begin() + static_cast<ptrdiff_t>(w * n / waves),
        ds.strangers.begin() + static_cast<ptrdiff_t>((w + 1) * n / waves));
    EXPECT_TRUE(service->AddStrangers(ds.owner, wave).ok());
    tick();
  }
  tick();  // unchanged stranger set
  const UserId edited = ds.strangers[n / 2];
  const std::string gender = ds.profiles.Get(edited).value(0);
  EXPECT_TRUE(ds.profiles
                  .SetValue(edited, 0, gender == "male" ? "female" : "male")
                  .ok());
  tick();  // every fingerprint broken by the edit
  return Digest(text);
}

TEST(GoldenTest, CrawlWithCarriesOn) {
  uint64_t digest = CrawlDigest(true, Form::kFull);
  EXPECT_EQ(digest, kCrawlCarriedDigest) << "digest is now " << Hex(digest);
}

TEST(GoldenTest, CrawlWithCarriesOff) {
  uint64_t digest = CrawlDigest(false, Form::kFull);
  EXPECT_EQ(digest, kCrawlRebuiltDigest) << "digest is now " << Hex(digest);
}

TEST(GoldenTest, CrawlPolicyWithCarriesOn) {
  uint64_t digest = CrawlDigest(true, Form::kPolicy);
  EXPECT_EQ(digest, kCrawlCarriedPolicyDigest)
      << "digest is now " << Hex(digest);
}

TEST(GoldenTest, CrawlPolicyWithCarriesOff) {
  uint64_t digest = CrawlDigest(false, Form::kPolicy);
  EXPECT_EQ(digest, kCrawlRebuiltPolicyDigest)
      << "digest is now " << Hex(digest);
}

// Runs `command` and returns its stdout; `status` receives pclose's.
std::string CaptureStdout(const std::string& command, int* status) {
  *status = -1;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    out.append(buf, got);
  }
  *status = pclose(pipe);
  return out;
}

TEST(GoldenTest, HeadlineAccuracyStdout) {
  int status = -1;
  std::string out = CaptureStdout(SIGHT_HEADLINE_ACCURACY_BIN, &status);
  ASSERT_EQ(status, 0);
  uint64_t digest = Digest(out);
  EXPECT_EQ(digest, kHeadlineDigest)
      << "digest is now " << Hex(digest) << " for stdout:\n"
      << out;
}

TEST(GoldenTest, ReproStdout) {
  for (const HarnessDigest& harness : kReproDigests) {
    int status = -1;
    std::string out = CaptureStdout(
        std::string(SIGHT_BENCH_DIR) + "/" + harness.name, &status);
    EXPECT_EQ(status, 0) << harness.name;
    uint64_t digest = Digest(out);
    EXPECT_EQ(digest, harness.digest)
        << harness.name << " digest is now " << Hex(digest);
  }
}

void AddImportances(const char* kind,
                    const std::vector<AttributeImportance>& importances,
                    Fields* f) {
  for (const AttributeImportance& ai : importances) {
    f->Add("kind", std::string(kind))
        .Add("name", ai.name)
        .Add("gain_ratio", ai.gain_ratio)
        .Add("importance", ai.importance)
        .EndRecord();
  }
}

// Definition 6 mining over the labeled samples of three generated
// owners. Each sample ends with a profile whose values are all missing
// and one whose values no one else has.
TEST(GoldenTest, ImportanceMiningBits) {
  const sim::OwnerSpec specs[] = {{sim::Gender::kMale, sim::Locale::kTR},
                                  {sim::Gender::kFemale, sim::Locale::kUS},
                                  {sim::Gender::kMale, sim::Locale::kDE}};
  sim::GeneratorConfig gen_config;
  gen_config.num_strangers = 400;
  auto generator = sim::FacebookGenerator::Create(gen_config).value();
  auto ns = NetworkSimilarity::Create(NetworkSimilarityConfig{}).value();
  Fields f;
  for (size_t k = 0; k < std::size(specs); ++k) {
    Rng gen_rng(20120403 + k);
    sim::OwnerDataset ds = generator.Generate(specs[k], &gen_rng).value();
    Rng attitude_rng(61 + k);
    sim::OwnerAttitude attitude = sim::SampleOwnerAttitude(&attitude_rng);
    auto oracle =
        sim::OwnerModel::Create(attitude, &ds.profiles, &ds.visibility)
            .value();
    auto benefit = BenefitModel::Create(attitude.theta).value();

    std::vector<UserId> labeled;
    std::vector<RiskLabel> labels;
    for (size_t i = k; i < ds.strangers.size(); i += 5) {
      UserId s = ds.strangers[i];
      labeled.push_back(s);
      labels.push_back(oracle.TrueLabel(s, ns.Compute(ds.graph, ds.owner, s),
                                        benefit.Compute(ds.visibility, s)));
    }
    const UserId all_missing = ds.profiles.user_id_bound() + 1;
    const UserId exotic = all_missing + 1;
    Profile exotic_profile;
    for (size_t a = 0; a < ds.profiles.schema().num_attributes(); ++a) {
      exotic_profile.values.push_back("golden-novel-" + std::to_string(a));
    }
    ASSERT_TRUE(ds.profiles.Set(exotic, std::move(exotic_profile)).ok());
    labeled.push_back(all_missing);
    labels.push_back(RiskLabel::kVeryRisky);
    labeled.push_back(exotic);
    labels.push_back(RiskLabel::kNotRisky);

    auto attributes =
        ProfileAttributeImportance(ds.profiles, labeled, labels);
    auto items = BenefitItemImportance(ds.visibility, labeled, labels);
    ASSERT_TRUE(attributes.ok());
    ASSERT_TRUE(items.ok());
    AddImportances("attribute", attributes.value(), &f);
    AddImportances("item", items.value(), &f);
  }
  uint64_t digest = Digest(f.text());
  EXPECT_EQ(digest, kImportanceDigest) << "digest is now " << Hex(digest);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int RunQuietly(const std::string& command) {
  int status = std::system((command + " > /dev/null").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// sight_cli generate + assess at fixed seeds, then a second assess that
// resumes from the first one's owner answers: the predicted-label CSVs and
// the saved owner answers, concatenated.
TEST(GoldenTest, CliAssessLabelFiles) {
  std::string dir = testing::TempDir() + "sight_golden_cli_XXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  const std::string cli = SIGHT_CLI_BIN;
  const std::string data = dir + "/data";
  const std::string labels = dir + "/labels.csv";
  const std::string answers = dir + "/answers.csv";
  const std::string resumed = dir + "/resumed.csv";
  ASSERT_EQ(RunQuietly(cli + " generate --out=" + data +
                       " --friends=50 --strangers=300 --seed=7"),
            0);
  ASSERT_EQ(RunQuietly(cli + " assess --data=" + data +
                       " --seed=11 --labels-out=" + labels +
                       " --owner-labels-out=" + answers),
            0);
  ASSERT_EQ(RunQuietly(cli + " assess --data=" + data +
                       " --seed=12 --labels-in=" + answers +
                       " --labels-out=" + resumed),
            0);
  std::string text = ReadFile(labels) + "--\n" + ReadFile(answers) +
                     "--\n" + ReadFile(resumed);
  EXPECT_GT(text.size(), 1000u);
  uint64_t digest = Digest(text);
  EXPECT_EQ(digest, kCliLabelsDigest) << "digest is now " << Hex(digest);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sight
