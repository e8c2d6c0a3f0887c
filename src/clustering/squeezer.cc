#include "clustering/squeezer.h"

#include <algorithm>

#include "util/string_util.h"

namespace sight {

void ClusterSummary::AddCodes(const uint32_t* codes) {
  for (AttributeId a = 0; a < supports_.size(); ++a) {
    uint32_t code = codes[a];
    if (code == ProfileCodec::kMissingCode) continue;
    if (code >= supports_[a].size()) supports_[a].resize(code + 1, 0);
    ++supports_[a][code];
    ++totals_[a];
  }
  ++size_;
}

size_t ClusterSummary::TotalSupport(AttributeId attr) const {
  return attr < totals_.size() ? totals_[attr] : 0;
}

Result<Squeezer> Squeezer::Create(const ProfileSchema& schema,
                                  SqueezerConfig config) {
  if (!(config.threshold >= 0.0 && config.threshold <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("threshold %f not in [0, 1]", config.threshold));
  }
  SIGHT_ASSIGN_OR_RETURN(
      std::vector<double> weights,
      NormalizeAttributeWeights(schema, std::move(config.weights)));
  return Squeezer(config.threshold, std::move(weights));
}

void Squeezer::SimilarityBatch(const uint32_t* codes,
                               const ClusterSummary* summaries, size_t count,
                               double* out) const {
  std::fill(out, out + count, 0.0);
  for (AttributeId a = 0; a < weights_.size(); ++a) {
    const uint32_t code = codes[a];
    if (code == ProfileCodec::kMissingCode) continue;
    const double w = weights_[a];
    for (size_t c = 0; c < count; ++c) {
      const ClusterSummary& summary = summaries[c];
      const size_t total = summary.TotalSupport(a);
      if (total == 0) continue;
      out[c] += w * (static_cast<double>(summary.SupportByCode(a, code)) /
                     static_cast<double>(total));
    }
  }
}

Result<IncrementalSqueezer> Squeezer::MakeIncremental(
    const ProfileSchema& schema) const {
  SqueezerConfig config;
  config.threshold = threshold_;
  config.weights = weights_;
  return IncrementalSqueezer::Create(schema, std::move(config));
}

Result<Clustering> Squeezer::Cluster(const ProfileTable& table,
                                     const std::vector<UserId>& users) const {
  SIGHT_ASSIGN_OR_RETURN(IncrementalSqueezer incremental,
                         MakeIncremental(table.schema()));
  SIGHT_RETURN_IF_ERROR(incremental.AddBatch(table, users).status());
  return incremental.clustering();
}

Result<IncrementalSqueezer> IncrementalSqueezer::Create(
    const ProfileSchema& schema, SqueezerConfig config) {
  SIGHT_ASSIGN_OR_RETURN(Squeezer squeezer,
                         Squeezer::Create(schema, std::move(config)));
  size_t num_attributes = schema.num_attributes();
  return IncrementalSqueezer(std::move(squeezer), num_attributes);
}

Result<size_t> IncrementalSqueezer::Add(const ProfileTable& table,
                                        UserId user) {
  if (table.schema().num_attributes() != num_attributes_) {
    return Status::InvalidArgument(
        "profile table schema does not match the Squeezer schema");
  }
  // Encode once (a value no member has seen gets a fresh code, which has
  // support 0 in every existing summary), then score every cluster in one
  // attribute-outer batch over the codes.
  codec_.EncodeInto(table.Get(user), code_buf_.data());
  sim_buf_.resize(summaries_.size());
  squeezer_.SimilarityBatch(code_buf_.data(), summaries_.data(),
                            summaries_.size(), sim_buf_.data());
  double best_sim = -1.0;
  size_t best_cluster = 0;
  for (size_t c = 0; c < summaries_.size(); ++c) {
    if (sim_buf_[c] > best_sim) {
      best_sim = sim_buf_[c];
      best_cluster = c;
    }
  }
  if (summaries_.empty() || best_sim < squeezer_.threshold()) {
    summaries_.emplace_back(num_attributes_);
    clustering_.clusters.emplace_back();
    best_cluster = summaries_.size() - 1;
  }
  summaries_[best_cluster].AddCodes(code_buf_.data());
  clustering_.clusters[best_cluster].push_back(user);
  clustering_.assignments.push_back(best_cluster);
  return best_cluster;
}

Result<std::vector<size_t>> IncrementalSqueezer::AddBatch(
    const ProfileTable& table, const std::vector<UserId>& users) {
  std::vector<size_t> assigned;
  assigned.reserve(users.size());
  for (UserId u : users) {
    SIGHT_ASSIGN_OR_RETURN(size_t cluster, Add(table, u));
    assigned.push_back(cluster);
  }
  return assigned;
}

}  // namespace sight
