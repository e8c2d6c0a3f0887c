// sight_cli: command-line driver for the Sight risk-scoring library.
//
//   sight_cli generate --out=DIR [--friends=N] [--strangers=N] [--seed=N]
//                      [--gender=male|female] [--locale=tr_TR|en_US|...]
//       Generates a synthetic owner dataset and writes it in the io/
//       on-disk format.
//
//   sight_cli stats --data=DIR
//       Prints structural and visibility statistics of a dataset.
//
//   sight_cli assess --data=DIR [--seed=N] [--interactive]
//                    [--labels-in=FILE] [--labels-out=FILE]
//                    [--owner-labels-out=FILE]
//       Runs the full risk pipeline. By default a simulated owner answers
//       the label queries; with --interactive *you* are the owner: the
//       CLI asks the paper's Section III-A question on stdin (answer
//       1 = not risky, 2 = risky, 3 = very risky). Predicted labels can
//       be exported as CSV (--labels-out); the owner's own answers can be
//       saved (--owner-labels-out) and fed back next time (--labels-in),
//       so an interrupted interactive session resumes without repeating a
//       single question.
//
//   sight_cli suggest --data=DIR [--seed=N]
//       Runs an assessment (simulated owner) and prints friend
//       suggestions among the not-risky strangers.
//
// An unknown flag, or a numeric flag whose value is not a whole decimal
// number, is a usage error (exit 2).

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "core/friend_suggestion.h"
#include "core/query_text.h"
#include "core/risk_engine.h"
#include "graph/statistics.h"
#include "io/dataset_io.h"
#include "io/labels_io.h"
#include "service/risk_service.h"
#include "sim/facebook_generator.h"
#include "sim/owner_model.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace sight;

struct Args {
  std::string command;
  std::string out;
  std::string data;
  std::string labels_in;
  std::string labels_out;
  std::string owner_labels_out;
  std::string gender = "male";
  std::string locale = "en_US";
  size_t friends = 60;
  size_t strangers = 400;
  uint64_t seed = 2012;
  bool interactive = false;
  /// An unknown or malformed flag was seen; the command must not run.
  bool usage_error = false;
};

// True when `arg` is the flag `name` (e.g. "--seed="). A value that is not
// a whole decimal number in range sets `*malformed` and leaves `*out`.
bool ParseSizeFlag(const char* arg, const char* name, size_t* out,
                   bool* malformed) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  const char* text = arg + len;
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*text)) || *end != '\0' ||
      errno == ERANGE) {
    *malformed = true;
    return true;
  }
  *out = static_cast<size_t>(value);
  return true;
}

bool ParseStringFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  *out = arg + len;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: sight_cli <generate|stats|assess|suggest> [flags]\n"
               "  generate --out=DIR [--friends=N --strangers=N --seed=N "
               "--gender=male|female --locale=CODE]\n"
               "  stats    --data=DIR\n"
               "  assess   --data=DIR [--seed=N --interactive "
               "--labels-in=FILE --labels-out=FILE "
               "--owner-labels-out=FILE]\n"
               "  suggest  --data=DIR [--seed=N]\n");
  return 2;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (ParseStringFlag(arg, "--out=", &args.out)) continue;
    if (ParseStringFlag(arg, "--data=", &args.data)) continue;
    if (ParseStringFlag(arg, "--labels-in=", &args.labels_in)) continue;
    if (ParseStringFlag(arg, "--labels-out=", &args.labels_out)) continue;
    if (ParseStringFlag(arg, "--owner-labels-out=",
                        &args.owner_labels_out)) {
      continue;
    }
    if (ParseStringFlag(arg, "--gender=", &args.gender)) continue;
    if (ParseStringFlag(arg, "--locale=", &args.locale)) continue;
    size_t seed = args.seed;
    bool malformed = false;
    if (ParseSizeFlag(arg, "--friends=", &args.friends, &malformed) ||
        ParseSizeFlag(arg, "--strangers=", &args.strangers, &malformed) ||
        ParseSizeFlag(arg, "--seed=", &seed, &malformed)) {
      args.seed = seed;
      if (malformed) {
        std::fprintf(stderr, "malformed number in flag: %s\n", arg);
        args.usage_error = true;
      }
      continue;
    }
    if (std::strcmp(arg, "--interactive") == 0) {
      args.interactive = true;
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", arg);
    args.usage_error = true;
  }
  return args;
}

// Asks the human at the terminal the paper's question.
class InteractiveOracle : public LabelOracle {
 public:
  RiskLabel QueryLabel(UserId stranger, double similarity,
                       double benefit) override {
    std::string name = StrFormat("user %u", stranger);
    std::printf("\n%s\n", FormatRiskQuestion(name, similarity,
                                             benefit).c_str());
    while (true) {
      std::printf("[1=not risky, 2=risky, 3=very risky] > ");
      std::fflush(stdout);
      int choice = 0;
      if (std::scanf("%d", &choice) != 1) {
        // Drain garbage input.
        int ch;
        while ((ch = std::getchar()) != '\n' && ch != EOF) {
        }
        if (ch == EOF) return RiskLabel::kRisky;  // non-tty fallback
        continue;
      }
      auto label = RiskLabelFromInt(choice);
      if (label.ok()) return label.value();
    }
  }
};

int CommandGenerate(const Args& args) {
  if (args.out.empty()) return Usage();
  sim::GeneratorConfig config;
  config.num_friends = args.friends;
  config.num_strangers = args.strangers;
  auto generator = sim::FacebookGenerator::Create(config);
  if (!generator.ok()) {
    std::fprintf(stderr, "%s\n", generator.status().ToString().c_str());
    return 1;
  }
  sim::OwnerSpec spec;
  if (args.gender == "female") {
    spec.gender = sim::Gender::kFemale;
  } else if (args.gender == "male") {
    spec.gender = sim::Gender::kMale;
  } else {
    std::fprintf(stderr, "unknown gender '%s'\n", args.gender.c_str());
    return 1;
  }
  auto locale = sim::LocaleFromCode(args.locale);
  if (!locale.ok()) {
    std::fprintf(stderr, "unknown locale '%s'\n", args.locale.c_str());
    return 1;
  }
  spec.locale = locale.value();
  Rng rng(args.seed);
  auto dataset = generator->Generate(spec, &rng);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  Status saved = io::SaveOwnerDataset(*dataset, args.out);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu users, %zu edges, owner %u with %zu "
              "strangers\n",
              args.out.c_str(), dataset->graph.NumUsers(),
              dataset->graph.NumEdges(), dataset->owner,
              dataset->strangers.size());
  return 0;
}

int CommandStats(const Args& args) {
  if (args.data.empty()) return Usage();
  auto dataset = io::LoadOwnerDataset(args.data);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("=== graph ===\n%s",
              FormatGraphStats(ComputeGraphStats(dataset->graph)).c_str());
  std::printf("owner: %u (%zu friends, %zu strangers)\n", dataset->owner,
              dataset->friends.size(), dataset->strangers.size());

  std::printf("\n=== stranger item visibility ===\n");
  TablePrinter table({"item", "visible"});
  for (ProfileItem item : kAllProfileItems) {
    size_t visible = 0;
    for (UserId s : dataset->strangers) {
      if (dataset->visibility.IsVisible(s, item)) ++visible;
    }
    double fraction =
        dataset->strangers.empty()
            ? 0.0
            : static_cast<double>(visible) /
                  static_cast<double>(dataset->strangers.size());
    table.AddRow({ProfileItemName(item), FormatPercent(fraction)});
  }
  std::fputs(table.ToString().c_str(), stdout);
  return 0;
}

RiskEngineConfig EngineConfigFor(const sim::OwnerDataset& dataset) {
  RiskEngineConfig config;
  // For the Facebook schema, cluster with the paper's mined Table-I
  // weights (uniform weights over six attributes fragment the pools and
  // triple owner effort — see the ablation bench).
  if (dataset.profiles.schema().names() ==
      sim::FacebookSchema().names()) {
    config.pools.attribute_weights = sim::PaperAttributeWeights();
  }
  return config;
}

// Assesses the dataset's owner on a one-shard RiskService with every
// cross-tick carry off, through AssessSync, which records the owner's
// answers. No worker thread is started.
Result<RiskReport> RunAssessment(const Args& args,
                                 const sim::OwnerDataset& dataset,
                                 LabelOracle* oracle) {
  RiskServiceConfig config;
  config.engine = EngineConfigFor(dataset);
  config.num_shards = 1;
  config.carry_learners = false;
  config.carry_pool_partition = false;
  config.carry_encoded_tables = false;
  SIGHT_ASSIGN_OR_RETURN(std::unique_ptr<RiskService> service,
                         RiskService::Create(std::move(config)));
  const UserId owner = dataset.owner;
  OwnerRegistration registration;
  registration.owner = owner;
  registration.graph = &dataset.graph;
  registration.profiles = &dataset.profiles;
  registration.visibility = &dataset.visibility;
  SIGHT_RETURN_IF_ERROR(service->RegisterOwner(registration));
  if (!args.labels_in.empty()) {
    SIGHT_ASSIGN_OR_RETURN(PoolLearner::KnownLabels previous,
                           io::LoadKnownLabelsFromFile(args.labels_in));
    SIGHT_RETURN_IF_ERROR(service->ImportLabels(owner, previous));
    std::printf("resumed %zu previously collected labels from %s\n",
                previous.size(), args.labels_in.c_str());
  }
  SIGHT_RETURN_IF_ERROR(service->DiscoverAllStrangers(owner));
  Rng rng(args.seed ^ 0xa55e55ULL);
  SIGHT_ASSIGN_OR_RETURN(RiskReport report,
                         service->AssessSync(owner, oracle, &rng));
  if (!args.owner_labels_out.empty()) {
    SIGHT_ASSIGN_OR_RETURN(const PoolLearner::KnownLabels* answers,
                           service->KnownLabelsView(owner));
    SIGHT_RETURN_IF_ERROR(
        io::SaveKnownLabelsToFile(*answers, args.owner_labels_out));
    std::printf("owner answers saved to %s (%zu labels)\n",
                args.owner_labels_out.c_str(), answers->size());
  }
  return report;
}

int CommandAssess(const Args& args) {
  if (args.data.empty()) return Usage();
  auto dataset = io::LoadOwnerDataset(args.data);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }

  Result<RiskReport> report_or = Status::Internal("unset");
  sim::OwnerAttitude attitude;
  if (args.interactive) {
    InteractiveOracle oracle;
    std::printf("you are the owner; answer each question with 1/2/3.\n");
    report_or = RunAssessment(args, *dataset, &oracle);
  } else {
    Rng attitude_rng(args.seed ^ 0x0a77ULL);
    attitude = sim::SampleOwnerAttitude(&attitude_rng);
    auto oracle = sim::OwnerModel::Create(attitude, &dataset->profiles,
                                          &dataset->visibility);
    if (!oracle.ok()) {
      std::fprintf(stderr, "%s\n", oracle.status().ToString().c_str());
      return 1;
    }
    report_or = RunAssessment(args, *dataset, &*oracle);
  }
  if (!report_or.ok()) {
    std::fprintf(stderr, "%s\n", report_or.status().ToString().c_str());
    return 1;
  }
  const RiskReport& report = *report_or;

  size_t counts[4] = {0, 0, 0, 0};
  for (const StrangerAssessment& sa : report.assessment.strangers) {
    ++counts[static_cast<int>(sa.predicted_label)];
  }
  std::printf("\nassessed %zu strangers in %zu pools using %zu owner "
              "labels\n",
              report.num_strangers, report.num_pools,
              report.assessment.total_queries);
  TablePrinter table({"label", "strangers"});
  table.AddRow({"very risky", StrFormat("%zu", counts[3])});
  table.AddRow({"risky", StrFormat("%zu", counts[2])});
  table.AddRow({"not risky", StrFormat("%zu", counts[1])});
  std::fputs(table.ToString().c_str(), stdout);

  if (!args.labels_out.empty()) {
    CsvWriter writer({"stranger", "label", "score", "network_similarity",
                      "benefit", "owner_labeled"});
    for (const StrangerAssessment& sa : report.assessment.strangers) {
      writer.AddRow({StrFormat("%u", sa.stranger),
                     RiskLabelName(sa.predicted_label),
                     FormatDouble(sa.predicted_score, 4),
                     FormatDouble(sa.network_similarity, 4),
                     FormatDouble(sa.benefit, 4),
                     sa.owner_labeled ? "1" : "0"});
    }
    std::ofstream out(args.labels_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", args.labels_out.c_str());
      return 1;
    }
    writer.Write(out);
    std::printf("labels written to %s\n", args.labels_out.c_str());
  }
  return 0;
}

int CommandSuggest(const Args& args) {
  if (args.data.empty()) return Usage();
  auto dataset = io::LoadOwnerDataset(args.data);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  Rng attitude_rng(args.seed ^ 0x0a77ULL);
  sim::OwnerAttitude attitude = sim::SampleOwnerAttitude(&attitude_rng);
  auto oracle = sim::OwnerModel::Create(attitude, &dataset->profiles,
                                        &dataset->visibility);
  if (!oracle.ok()) {
    std::fprintf(stderr, "%s\n", oracle.status().ToString().c_str());
    return 1;
  }
  auto report = RunAssessment(args, *dataset, &*oracle);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  auto suggestions = SuggestFriends(report->assessment);
  if (!suggestions.ok()) {
    std::fprintf(stderr, "%s\n", suggestions.status().ToString().c_str());
    return 1;
  }
  TablePrinter table({"stranger", "affinity", "ns", "benefit"});
  for (const FriendSuggestion& fs : *suggestions) {
    table.AddRow({StrFormat("%u", fs.stranger),
                  FormatDouble(fs.affinity, 3),
                  FormatDouble(fs.network_similarity, 3),
                  FormatDouble(fs.benefit, 3)});
  }
  std::fputs(table.ToString().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  if (args.usage_error) return Usage();
  if (args.command == "generate") return CommandGenerate(args);
  if (args.command == "stats") return CommandStats(args);
  if (args.command == "assess") return CommandAssess(args);
  if (args.command == "suggest") return CommandSuggest(args);
  return Usage();
}
