#include "sim/twitter_generator.h"

#include <algorithm>

#include "graph/algorithms.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace sight::sim {
namespace {

const char* const kLanguages[] = {"en", "es", "tr", "pt", "ja", "de"};
const char* const kAges[] = {"new", "1y", "3y", "5y+"};
const char* const kActivities[] = {"daily", "weekly", "lurker"};

Profile MakeTwitterProfile(bool verified, const std::string& language,
                           Rng* rng) {
  Profile p;
  p.values = {verified ? "yes" : "no", language,
              kAges[rng->UniformInt(0, 3)],
              kActivities[rng->UniformInt(0, 2)]};
  return p;
}

// Twitter-like visibility: timelines and photos are near-public; precise
// location and employment are rarer; verified accounts reveal more.
uint8_t SampleTwitterVisibility(bool verified, Rng* rng) {
  auto bit = [&](ProfileItem item, double p) {
    return rng->Bernoulli(verified ? std::min(1.0, p + 0.1) : p)
               ? static_cast<uint8_t>(1u << static_cast<uint8_t>(item))
               : 0;
  };
  return static_cast<uint8_t>(
      bit(ProfileItem::kWall, 0.95) | bit(ProfileItem::kPhoto, 0.92) |
      bit(ProfileItem::kFriendList, 0.85) |
      bit(ProfileItem::kLocation, 0.30) |
      bit(ProfileItem::kEducation, 0.25) | bit(ProfileItem::kWork, 0.40) |
      bit(ProfileItem::kHometown, 0.35));
}

}  // namespace

ProfileSchema TwitterSchema() {
  auto schema = ProfileSchema::Create(
      {"verified", "language", "account_age", "activity"});
  SIGHT_CHECK(schema.ok());
  return std::move(schema).value();
}

Status TwitterGeneratorConfig::Validate() const {
  if (num_followed < 2) {
    return Status::InvalidArgument("num_followed must be at least 2");
  }
  if (num_celebrities == 0 || num_celebrities > num_followed) {
    return Status::InvalidArgument(
        StrFormat("num_celebrities %zu must be in [1, num_followed=%zu]",
                  num_celebrities, num_followed));
  }
  for (double p :
       {celebrity_follow_prob, same_language_prob, verified_fraction}) {
    if (!(p >= 0.0 && p <= 1.0)) {
      return Status::InvalidArgument("probabilities must lie in [0, 1]");
    }
  }
  return Status::OK();
}

Result<TwitterGenerator> TwitterGenerator::Create(
    TwitterGeneratorConfig config) {
  SIGHT_RETURN_IF_ERROR(config.Validate());
  return TwitterGenerator(config);
}

Result<OwnerDataset> TwitterGenerator::Generate(Rng* rng) const {
  if (rng == nullptr) return Status::InvalidArgument("rng is required");

  OwnerDataset ds;
  ds.profiles = ProfileTable(TwitterSchema());

  const std::string owner_language = kLanguages[rng->UniformInt(0, 5)];

  // Owner.
  ds.owner = ds.graph.AddUser();
  SIGHT_RETURN_IF_ERROR(ds.profiles.Set(
      ds.owner, MakeTwitterProfile(false, owner_language, rng)));
  ds.visibility.SetMask(ds.owner, SampleTwitterVisibility(false, rng));

  // Followed accounts: the first num_celebrities are the hubs.
  std::vector<UserId> celebrities;
  for (size_t i = 0; i < config_.num_followed; ++i) {
    UserId f = ds.graph.AddUser();
    ds.friends.push_back(f);
    bool is_celebrity = i < config_.num_celebrities;
    if (is_celebrity) celebrities.push_back(f);
    bool verified =
        is_celebrity || rng->Bernoulli(config_.verified_fraction);
    std::string language = rng->Bernoulli(config_.same_language_prob)
                               ? owner_language
                               : kLanguages[rng->UniformInt(0, 5)];
    SIGHT_RETURN_IF_ERROR(
        ds.profiles.Set(f, MakeTwitterProfile(verified, language, rng)));
    ds.visibility.SetMask(f, SampleTwitterVisibility(verified, rng));
    SIGHT_RETURN_IF_ERROR(ds.graph.AddEdge(ds.owner, f));
  }

  // Non-hub followed accounts occasionally follow each other; everyone
  // tends to follow the hubs (which is what concentrates mutual friends
  // on hubs).
  for (size_t i = config_.num_celebrities; i < ds.friends.size(); ++i) {
    for (UserId hub : celebrities) {
      if (rng->Bernoulli(0.5)) {
        SIGHT_RETURN_IF_ERROR(
            ds.graph.AddEdgeIfAbsent(ds.friends[i], hub).status());
      }
    }
    for (size_t j = i + 1; j < ds.friends.size(); ++j) {
      if (rng->Bernoulli(0.01)) {
        SIGHT_RETURN_IF_ERROR(
            ds.graph.AddEdgeIfAbsent(ds.friends[i], ds.friends[j]).status());
      }
    }
  }

  // Strangers: follow hubs (mostly) plus occasionally regular followed
  // accounts.
  for (size_t s = 0; s < config_.num_strangers; ++s) {
    UserId stranger = ds.graph.AddUser();
    size_t links = 0;
    // At least one mutual connection, biased toward the hubs.
    while (links == 0) {
      for (UserId hub : celebrities) {
        if (rng->Bernoulli(config_.celebrity_follow_prob)) {
          SIGHT_RETURN_IF_ERROR(
              ds.graph.AddEdgeIfAbsent(stranger, hub).status());
          ++links;
        }
      }
      if (rng->Bernoulli(0.25)) {
        size_t pick = static_cast<size_t>(rng->UniformInt(
            0, static_cast<int64_t>(ds.friends.size()) - 1));
        SIGHT_RETURN_IF_ERROR(
            ds.graph.AddEdgeIfAbsent(stranger, ds.friends[pick]).status());
        ++links;
      }
    }
    bool verified = rng->Bernoulli(config_.verified_fraction);
    // Heterophily: strangers' languages are drawn globally, not from the
    // owner's.
    std::string language = kLanguages[rng->UniformInt(0, 5)];
    SIGHT_RETURN_IF_ERROR(ds.profiles.Set(
        stranger, MakeTwitterProfile(verified, language, rng)));
    ds.visibility.SetMask(stranger,
                          SampleTwitterVisibility(verified, rng));
  }

  SIGHT_ASSIGN_OR_RETURN(ds.strangers, TwoHopStrangers(ds.graph, ds.owner));
  return ds;
}

}  // namespace sight::sim
