// Ablation bench for the design choices DESIGN.md calls out:
//
//   A. classifier: harmonic (paper) vs kNN vs majority;
//   B. sampler: pool-random (paper) vs uncertainty;
//   C. Squeezer threshold beta sweep (pool fragmentation vs effort);
//   D. alpha sweep (network similarity groups);
//   E. mined (paper Table I) vs uniform Squeezer attribute weights;
//   F. NS reconstruction: mutual-count weight sweep (what the density
//      term adds; weight 1.0 is the plain mutual-friend measure).
//
// Reported per variant: held-out ground-truth accuracy, owner labels
// spent, and pool count, averaged over a reduced owner set.

#include <cstdio>

#include "bench/common/study.h"
#include "learning/metrics.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace sight;

struct VariantResult {
  double accuracy = 0.0;
  double queries = 0.0;
  double pools = 0.0;
};

VariantResult RunVariant(const bench::StudyConfig& config) {
  auto study = bench::GenerateStudy(config);
  SampleStats accuracy;
  SampleStats queries;
  SampleStats pools;
  auto results = bench::RunStudy(config, study, config.seed ^ 0xab1a7eULL);
  for (size_t i = 0; i < study.size(); ++i) {
    const bench::OwnerStudy& owner = study[i];
    const bench::OwnerRunResult& result = results[i];
    auto oracle =
        sim::OwnerModel::Create(owner.attitude, &owner.dataset.profiles,
                                &owner.dataset.visibility)
            .value();
    std::vector<int> predicted;
    std::vector<int> truth;
    for (const StrangerAssessment& sa : result.report.assessment.strangers) {
      if (sa.owner_labeled) continue;
      predicted.push_back(static_cast<int>(sa.predicted_label));
      truth.push_back(static_cast<int>(oracle.TrueLabel(
          sa.stranger, sa.network_similarity, sa.benefit)));
    }
    if (!predicted.empty()) {
      accuracy.Add(ExactMatchRate(predicted, truth).value());
    }
    queries.Add(
        static_cast<double>(result.report.assessment.total_queries));
    pools.Add(static_cast<double>(result.report.num_pools));
  }
  return {accuracy.Mean(), queries.Mean(), pools.Mean()};
}

void PrintSection(const char* title) { std::printf("\n--- %s ---\n", title); }

}  // namespace

int main(int argc, char** argv) {
  bench::StudyConfig base = bench::ParseArgs(argc, argv);
  base.num_owners = std::min<size_t>(base.num_owners, 12);  // ablation scale

  std::printf("=== Ablation: design choices ===\n");
  std::printf("owners=%zu strangers/owner=%zu seed=%llu\n", base.num_owners,
              base.num_strangers,
              static_cast<unsigned long long>(base.seed));

  {
    PrintSection("A. classifier (paper: harmonic)");
    TablePrinter table({"classifier", "heldout acc", "labels", "pools"});
    for (auto [kind, name] :
         {std::pair{ClassifierKind::kHarmonic, "harmonic"},
          std::pair{ClassifierKind::kHarmonicCmn, "harmonic-cmn"},
          std::pair{ClassifierKind::kKnn, "knn"},
          std::pair{ClassifierKind::kMajority, "majority"}}) {
      bench::StudyConfig config = base;
      config.classifier = kind;
      VariantResult r = RunVariant(config);
      table.AddRow({name, FormatPercent(r.accuracy, 1),
                    FormatDouble(r.queries, 1), FormatDouble(r.pools, 1)});
    }
    std::fputs(table.ToString().c_str(), stdout);
  }

  {
    PrintSection("B. sampler (paper: pool-random)");
    TablePrinter table({"sampler", "heldout acc", "labels", "pools"});
    for (auto [kind, name] :
         {std::pair{SamplerKind::kRandom, "random"},
          std::pair{SamplerKind::kUncertainty, "uncertainty"}}) {
      bench::StudyConfig config = base;
      config.sampler = kind;
      VariantResult r = RunVariant(config);
      table.AddRow({name, FormatPercent(r.accuracy, 1),
                    FormatDouble(r.queries, 1), FormatDouble(r.pools, 1)});
    }
    std::fputs(table.ToString().c_str(), stdout);
  }

  {
    PrintSection("C. Squeezer beta sweep (paper: 0.4)");
    TablePrinter table({"beta", "heldout acc", "labels", "pools"});
    for (double beta : {0.1, 0.25, 0.4, 0.6, 0.8}) {
      bench::StudyConfig config = base;
      config.beta = beta;
      VariantResult r = RunVariant(config);
      table.AddRow({FormatDouble(beta, 2), FormatPercent(r.accuracy, 1),
                    FormatDouble(r.queries, 1), FormatDouble(r.pools, 1)});
    }
    std::fputs(table.ToString().c_str(), stdout);
    std::printf("(paper: larger beta fragments pools -> more distinct "
                "learning processes / owner effort)\n");
  }

  {
    PrintSection("D. alpha sweep (paper: 10 network similarity groups)");
    TablePrinter table({"alpha", "heldout acc", "labels", "pools"});
    for (size_t alpha : {1u, 5u, 10u, 20u}) {
      bench::StudyConfig config = base;
      config.alpha = alpha;
      VariantResult r = RunVariant(config);
      table.AddRow({StrFormat("%zu", alpha), FormatPercent(r.accuracy, 1),
                    FormatDouble(r.queries, 1), FormatDouble(r.pools, 1)});
    }
    std::fputs(table.ToString().c_str(), stdout);
  }

  {
    PrintSection("E. Squeezer attribute weights (paper: mined Table I)");
    TablePrinter table({"weights", "heldout acc", "labels", "pools"});
    for (bool mined : {true, false}) {
      bench::StudyConfig config = base;
      config.paper_attribute_weights = mined;
      VariantResult r = RunVariant(config);
      table.AddRow({mined ? "mined (gender/locale/lastname)" : "uniform(6)",
                    FormatPercent(r.accuracy, 1), FormatDouble(r.queries, 1),
                    FormatDouble(r.pools, 1)});
    }
    std::fputs(table.ToString().c_str(), stdout);
    std::printf("(paper: 'these weights help us in catching the relevance "
                "of some profile items')\n");
  }

  {
    PrintSection(
        "F. NS mutual-count weight (1.0 = plain mutual-friend measure; "
        "the paper's NS adds community density)");
    TablePrinter table({"mutual_weight", "heldout acc", "labels", "pools"});
    for (double w : {1.0, 0.85, 0.7, 0.5}) {
      bench::StudyConfig config = base;
      config.ns.mutual_weight = w;
      VariantResult r = RunVariant(config);
      table.AddRow({FormatDouble(w, 2), FormatPercent(r.accuracy, 1),
                    FormatDouble(r.queries, 1), FormatDouble(r.pools, 1)});
    }
    std::fputs(table.ToString().c_str(), stdout);
    std::printf("(the density term spreads strangers over more NSG groups, "
                "separating community insiders from loose contacts)\n");
  }

  return 0;
}
