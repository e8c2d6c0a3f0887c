#include "learning/metrics.h"

#include <cmath>

#include "util/string_util.h"

namespace sight {
namespace {

Status CheckParallelNonEmpty(size_t a, size_t b) {
  if (a != b) {
    return Status::InvalidArgument(
        StrFormat("size mismatch: %zu vs %zu", a, b));
  }
  if (a == 0) return Status::InvalidArgument("empty input");
  return Status::OK();
}

}  // namespace

Result<double> Rmse(const std::vector<double>& predictions,
                    const std::vector<double>& truth) {
  SIGHT_RETURN_IF_ERROR(
      CheckParallelNonEmpty(predictions.size(), truth.size()));
  double ss = 0.0;
  for (size_t i = 0; i < predictions.size(); ++i) {
    double d = predictions[i] - truth[i];
    ss += d * d;
  }
  return std::sqrt(ss / static_cast<double>(predictions.size()));
}

Result<double> MeanAbsoluteError(const std::vector<double>& predictions,
                                 const std::vector<double>& truth) {
  SIGHT_RETURN_IF_ERROR(
      CheckParallelNonEmpty(predictions.size(), truth.size()));
  double sum = 0.0;
  for (size_t i = 0; i < predictions.size(); ++i) {
    sum += std::fabs(predictions[i] - truth[i]);
  }
  return sum / static_cast<double>(predictions.size());
}

Result<double> ExactMatchRate(const std::vector<int>& predictions,
                              const std::vector<int>& truth) {
  SIGHT_RETURN_IF_ERROR(
      CheckParallelNonEmpty(predictions.size(), truth.size()));
  size_t matches = 0;
  for (size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] == truth[i]) ++matches;
  }
  return static_cast<double>(matches) /
         static_cast<double>(predictions.size());
}

Result<ConfusionMatrix> ConfusionMatrix::Create(int label_min,
                                                int label_max) {
  if (label_min > label_max) {
    return Status::InvalidArgument(
        StrFormat("invalid label range [%d, %d]", label_min, label_max));
  }
  return ConfusionMatrix(label_min, label_max);
}

ConfusionMatrix::ConfusionMatrix(int label_min, int label_max)
    : label_min_(label_min), label_max_(label_max),
      num_labels_(static_cast<size_t>(label_max - label_min + 1)),
      counts_(num_labels_ * num_labels_, 0) {}

Status ConfusionMatrix::Add(int truth, int prediction) {
  if (!(truth >= label_min_ && truth <= label_max_ &&
        prediction >= label_min_ && prediction <= label_max_)) {
    return Status::OutOfRange(
        StrFormat("labels (%d, %d) outside range [%d, %d]", truth, prediction,
                  label_min_, label_max_));
  }
  ++counts_[IndexOf(truth) * num_labels_ + IndexOf(prediction)];
  ++total_;
  return Status::OK();
}

size_t ConfusionMatrix::Count(int truth, int prediction) const {
  if (!(truth >= label_min_ && truth <= label_max_ &&
        prediction >= label_min_ && prediction <= label_max_)) {
    return 0;
  }
  return counts_[IndexOf(truth) * num_labels_ + IndexOf(prediction)];
}

double ConfusionMatrix::Accuracy() const {
  if (total_ == 0) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < num_labels_; ++i) {
    correct += counts_[i * num_labels_ + i];
  }
  return static_cast<double>(correct) / static_cast<double>(total_);
}

double ConfusionMatrix::UnderPredictionRate() const {
  if (total_ == 0) return 0.0;
  size_t under = 0;
  for (size_t t = 0; t < num_labels_; ++t) {
    for (size_t p = 0; p < t; ++p) under += counts_[t * num_labels_ + p];
  }
  return static_cast<double>(under) / static_cast<double>(total_);
}

double ConfusionMatrix::OverPredictionRate() const {
  if (total_ == 0) return 0.0;
  size_t over = 0;
  for (size_t t = 0; t < num_labels_; ++t) {
    for (size_t p = t + 1; p < num_labels_; ++p) {
      over += counts_[t * num_labels_ + p];
    }
  }
  return static_cast<double>(over) / static_cast<double>(total_);
}

}  // namespace sight
