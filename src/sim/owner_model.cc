#include "sim/owner_model.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace sight::sim {
namespace {

// SplitMix64-style stateless hash -> uniform double in [0, 1).
double HashUnit(uint64_t seed, uint64_t key) {
  uint64_t z = seed ^ (key * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

uint64_t StringKey(const std::string& s) {
  // FNV-1a.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

OwnerAttitude SampleOwnerAttitude(Rng* rng) {
  SIGHT_CHECK(rng != nullptr);
  OwnerAttitude a;
  a.base = rng->UniformDouble(0.50, 0.60);
  a.similarity_weight = rng->UniformDouble(0.35, 0.55);
  a.benefit_weight = rng->UniformDouble(0.12, 0.28);
  a.ns_scale = rng->UniformDouble(0.40, 0.55);

  // Attribute sensitivity regime (paper Table I): gender is the top
  // attribute for 34/47 owners, locale for 13/47, last name beats locale
  // for only 2/47.
  double regime = rng->UniformDouble();
  double locale_scale;
  if (regime < 0.70) {  // gender-dominated
    a.gender_bias = rng->UniformDouble(0.20, 0.35);
    locale_scale = rng->UniformDouble(0.04, 0.12);
  } else {  // locale-dominated
    a.gender_bias = rng->UniformDouble(0.04, 0.12);
    locale_scale = rng->UniformDouble(0.18, 0.30);
  }
  for (size_t l = 0; l < kNumLocales; ++l) {
    a.locale_bias[l] = rng->UniformDouble(0.0, locale_scale);
  }
  a.lastname_scale = rng->Bernoulli(0.04) ? rng->UniformDouble(0.15, 0.25)
                                          : rng->UniformDouble(0.0, 0.02);

  a.threshold_low = rng->UniformDouble(0.36, 0.44);
  a.threshold_high = rng->UniformDouble(0.60, 0.70);
  a.label_noise = rng->UniformDouble(0.02, 0.08);
  a.noise_seed = rng->Next();

  // Theta weights near the paper's Table III averages.
  ThetaWeights theta = ThetaWeights::PaperTable3();
  for (double& v : theta.values) {
    v = std::max(0.01, v + rng->Normal(0.0, 0.02));
  }
  a.theta = theta;

  // Item sensitivities around the paper's Table II average importances
  // (kAllProfileItems order: wall, photo, friend, location, education,
  // work, hometown). The large photo mean makes photos the top item for
  // roughly half the owners, as in the paper (21/47).
  const double kTable2Means[kNumProfileItems] = {0.091, 0.27,  0.13, 0.092,
                                                 0.143, 0.140, 0.11};
  double emphasis_sum = 0.0;
  for (size_t i = 0; i < kNumProfileItems; ++i) {
    a.item_emphasis[i] =
        std::max(0.005, kTable2Means[i] + rng->Normal(0.0, 0.05));
    emphasis_sum += a.item_emphasis[i];
  }
  for (double& e : a.item_emphasis) e /= emphasis_sum;

  // Confidence around the paper's 78.39 average.
  a.confidence = std::clamp(rng->Normal(78.39, 8.0), 50.0, 95.0);
  return a;
}

Result<OwnerModel> OwnerModel::Create(OwnerAttitude attitude,
                                      const ProfileTable* profiles,
                                      const VisibilityTable* visibility) {
  if (profiles == nullptr) {
    return Status::InvalidArgument("profiles table is required");
  }
  if (attitude.threshold_low >= attitude.threshold_high) {
    return Status::InvalidArgument(
        "threshold_low must be below threshold_high");
  }
  if (!(attitude.label_noise >= 0.0 && attitude.label_noise <= 1.0)) {
    return Status::InvalidArgument("label_noise must be in [0, 1]");
  }
  SIGHT_RETURN_IF_ERROR(attitude.theta.Validate());
  // Attitudes built by hand (zero-initialized emphasis) fall back to the
  // paper's Table II averages.
  double emphasis_sum = 0.0;
  for (double e : attitude.item_emphasis) {
    if (e < 0.0) {
      return Status::InvalidArgument("item_emphasis must be non-negative");
    }
    emphasis_sum += e;
  }
  if (emphasis_sum <= 0.0) {
    const double kTable2Means[kNumProfileItems] = {
        0.091, 0.27, 0.13, 0.092, 0.143, 0.140, 0.11};
    for (size_t i = 0; i < kNumProfileItems; ++i) {
      attitude.item_emphasis[i] = kTable2Means[i];
    }
  }
  return OwnerModel(attitude, profiles, visibility);
}

double OwnerModel::Score(UserId stranger, double similarity,
                         double benefit) const {
  const Profile& p = profiles_->Get(stranger);
  double score = attitude_.base;

  const std::string& gender =
      p.value(static_cast<AttributeId>(FacebookAttribute::kGender));
  if (gender == GenderName(Gender::kMale)) score += attitude_.gender_bias;

  const std::string& locale_code =
      p.value(static_cast<AttributeId>(FacebookAttribute::kLocale));
  auto locale = LocaleFromCode(locale_code);
  if (locale.ok()) {
    score += attitude_.locale_bias[static_cast<size_t>(locale.value())];
  }

  const std::string& last_name =
      p.value(static_cast<AttributeId>(FacebookAttribute::kLastName));
  if (!last_name.empty()) {
    score += attitude_.lastname_scale *
             HashUnit(attitude_.noise_seed ^ 0x5157a11eULL,
                      StringKey(last_name));
  }

  double sim_term = attitude_.ns_scale > 0.0
                        ? std::min(1.0, similarity / attitude_.ns_scale)
                        : similarity;
  score -= attitude_.similarity_weight * sim_term;

  // Benefit: part reaction to the displayed aggregate, part reaction to
  // which specific items are exposed (the Table II effect). The displayed
  // benefit is theta-weighted over 7 items, so x7 renormalizes to [0, 1].
  double displayed_term = std::min(1.0, benefit * 7.0);
  if (visibility_ == nullptr) {
    score -= attitude_.benefit_weight * displayed_term;
  } else {
    double item_term = 0.0;
    for (size_t i = 0; i < kNumProfileItems; ++i) {
      if (visibility_->IsVisible(stranger, kAllProfileItems[i])) {
        item_term += attitude_.item_emphasis[i];
      }
    }
    score -= attitude_.benefit_weight *
             (0.3 * displayed_term + 0.7 * item_term);
  }
  return score;
}

RiskLabel OwnerModel::TrueLabel(UserId stranger, double similarity,
                                double benefit) const {
  double score = Score(stranger, similarity, benefit);
  int label;
  if (score < attitude_.threshold_low) {
    label = static_cast<int>(RiskLabel::kNotRisky);
  } else if (score < attitude_.threshold_high) {
    label = static_cast<int>(RiskLabel::kRisky);
  } else {
    label = static_cast<int>(RiskLabel::kVeryRisky);
  }

  // Deterministic per-stranger noise: with probability label_noise the
  // owner answers one level off (direction from a second hash bit).
  double u = HashUnit(attitude_.noise_seed, stranger);
  if (u < attitude_.label_noise) {
    double dir = HashUnit(attitude_.noise_seed ^ 0xd1f7ULL, stranger);
    label += dir < 0.5 ? -1 : 1;
    label = std::clamp(label, kRiskLabelMin, kRiskLabelMax);
  }
  return static_cast<RiskLabel>(label);
}

RiskLabel OwnerModel::QueryLabel(UserId stranger, double similarity,
                                 double benefit) {
  ++num_queries_;
  return TrueLabel(stranger, similarity, benefit);
}

}  // namespace sight::sim
