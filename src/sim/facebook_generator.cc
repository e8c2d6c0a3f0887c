#include "sim/facebook_generator.h"

#include <algorithm>
#include <cmath>

#include "graph/algorithms.h"
#include "sim/visibility_model.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace sight::sim {
namespace {

Locale RandomLocale(Rng* rng) {
  return kAllLocales[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(kNumLocales) - 1))];
}

Gender RandomGender(double male_fraction, Rng* rng) {
  return rng->Bernoulli(male_fraction) ? Gender::kMale : Gender::kFemale;
}

// Zipf-distributed value in [1, max]: P(m) proportional to m^-exponent.
size_t ZipfDraw(size_t max, double exponent, Rng* rng) {
  SIGHT_CHECK(max >= 1);
  std::vector<double> weights(max);
  for (size_t m = 1; m <= max; ++m) {
    weights[m - 1] = std::pow(static_cast<double>(m), -exponent);
  }
  return rng->WeightedIndex(weights) + 1;
}

}  // namespace

std::vector<OwnerSpec> PaperOwnerPopulation() {
  // 47 owners: 32 male / 15 female; locales TR 17, US 9, PL 7, IT 5, IN 1
  // (the paper's reported counts) + DE 3, GB 3, ES 2 for the unreported 8.
  struct LocaleCount {
    Locale locale;
    size_t count;
  };
  const LocaleCount locale_counts[] = {
      {Locale::kTR, 17}, {Locale::kUS, 9}, {Locale::kPL, 7},
      {Locale::kIT, 5},  {Locale::kIN, 1}, {Locale::kDE, 3},
      {Locale::kGB, 3},  {Locale::kES, 2},
  };
  std::vector<OwnerSpec> owners;
  owners.reserve(47);
  for (const LocaleCount& lc : locale_counts) {
    for (size_t i = 0; i < lc.count; ++i) {
      owners.push_back({Gender::kMale, lc.locale});
    }
  }
  SIGHT_CHECK(owners.size() == 47);
  // Make 15 of them female, spread deterministically across the list.
  size_t females = 0;
  for (size_t i = 0; females < 15 && i < owners.size(); ++i) {
    if (i % 3 == 1) {
      owners[i].gender = Gender::kFemale;
      ++females;
    }
  }
  SIGHT_CHECK(females == 15);
  return owners;
}

Status GeneratorConfig::Validate() const {
  if (num_friends < 2) {
    return Status::InvalidArgument("num_friends must be at least 2");
  }
  if (num_communities == 0 || num_communities > num_friends) {
    return Status::InvalidArgument(
        StrFormat("num_communities %zu must be in [1, num_friends=%zu]",
                  num_communities, num_friends));
  }
  for (double p :
       {intra_community_edge_prob, inter_community_edge_prob,
        same_locale_friend_prob, community_same_locale_prob,
        same_locale_stranger_prob, male_fraction}) {
    if (!(p >= 0.0 && p <= 1.0)) {
      return Status::InvalidArgument("probabilities must lie in [0, 1]");
    }
  }
  if (max_mutual_friends == 0) {
    return Status::InvalidArgument("max_mutual_friends must be positive");
  }
  if (!(mutual_zipf_exponent > 0.0)) {
    return Status::InvalidArgument("mutual_zipf_exponent must be positive");
  }
  return Status::OK();
}

Result<FacebookGenerator> FacebookGenerator::Create(GeneratorConfig config) {
  SIGHT_RETURN_IF_ERROR(config.Validate());
  return FacebookGenerator(config);
}

Result<OwnerDataset> FacebookGenerator::Generate(const OwnerSpec& owner_spec,
                                                 Rng* rng) const {
  if (rng == nullptr) {
    return Status::InvalidArgument("rng is required");
  }
  OwnerDataset ds;

  // Owner.
  ds.owner = ds.graph.AddUser();
  SIGHT_RETURN_IF_ERROR(ds.profiles.Set(
      ds.owner,
      MakeProfile(owner_spec.gender, owner_spec.locale, dists_, rng)));
  ds.visibility.SetMask(
      ds.owner, SampleVisibilityMask(owner_spec.gender, owner_spec.locale,
                                     rng));

  // Communities with a dominant locale each.
  std::vector<Locale> community_locale(config_.num_communities);
  for (Locale& l : community_locale) {
    l = rng->Bernoulli(config_.community_same_locale_prob)
            ? owner_spec.locale
            : RandomLocale(rng);
  }

  // Friends.
  std::vector<size_t> community_of_friend(config_.num_friends);
  std::vector<std::vector<UserId>> community_members(config_.num_communities);
  ds.friends.reserve(config_.num_friends);
  for (size_t i = 0; i < config_.num_friends; ++i) {
    UserId f = ds.graph.AddUser();
    ds.friends.push_back(f);
    size_t community = static_cast<size_t>(rng->UniformInt(
        0, static_cast<int64_t>(config_.num_communities) - 1));
    community_of_friend[i] = community;
    community_members[community].push_back(f);

    Locale locale = rng->Bernoulli(config_.same_locale_friend_prob)
                        ? community_locale[community]
                        : RandomLocale(rng);
    Gender gender = RandomGender(config_.male_fraction, rng);
    SIGHT_RETURN_IF_ERROR(
        ds.profiles.Set(f, MakeProfile(gender, locale, dists_, rng)));
    ds.visibility.SetMask(f, SampleVisibilityMask(gender, locale, rng));
    SIGHT_RETURN_IF_ERROR(ds.graph.AddEdge(ds.owner, f));
  }

  // Friend-friend edges: dense inside a community, sparse across.
  for (size_t i = 0; i < config_.num_friends; ++i) {
    for (size_t j = i + 1; j < config_.num_friends; ++j) {
      double p = community_of_friend[i] == community_of_friend[j]
                     ? config_.intra_community_edge_prob
                     : config_.inter_community_edge_prob;
      if (rng->Bernoulli(p)) {
        SIGHT_RETURN_IF_ERROR(
            ds.graph.AddEdge(ds.friends[i], ds.friends[j]));
      }
    }
  }

  // Strangers: attach to m mutual friends inside one community.
  for (size_t s = 0; s < config_.num_strangers; ++s) {
    // Pick a non-empty community, weighted by size.
    std::vector<double> weights(config_.num_communities);
    for (size_t c = 0; c < config_.num_communities; ++c) {
      weights[c] = static_cast<double>(community_members[c].size());
    }
    size_t community = rng->WeightedIndex(weights);
    const std::vector<UserId>& members = community_members[community];

    size_t cap = std::min(config_.max_mutual_friends, members.size());
    size_t m = ZipfDraw(cap, config_.mutual_zipf_exponent, rng);

    UserId stranger = ds.graph.AddUser();
    std::vector<size_t> picks =
        rng->SampleWithoutReplacement(members.size(), m);
    for (size_t p : picks) {
      SIGHT_RETURN_IF_ERROR(ds.graph.AddEdge(stranger, members[p]));
    }

    Locale locale = rng->Bernoulli(config_.same_locale_stranger_prob)
                        ? community_locale[community]
                        : RandomLocale(rng);
    Gender gender = RandomGender(config_.male_fraction, rng);
    SIGHT_RETURN_IF_ERROR(
        ds.profiles.Set(stranger, MakeProfile(gender, locale, dists_, rng)));
    ds.visibility.SetMask(stranger,
                          SampleVisibilityMask(gender, locale, rng));
  }

  // The strangers of record are the actual two-hop set.
  SIGHT_ASSIGN_OR_RETURN(ds.strangers, TwoHopStrangers(ds.graph, ds.owner));
  return ds;
}

}  // namespace sight::sim
