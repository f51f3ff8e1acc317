#include "nn/loss.h"

#include <cmath>

#include "common/error.h"

namespace muffin::nn {

namespace {
constexpr double kEps = 1e-9;
void require_shapes(std::span<const double> prediction,
                    std::span<const double> target) {
  MUFFIN_REQUIRE(prediction.size() == target.size() && !prediction.empty(),
                 "loss requires matching non-empty prediction/target");
}
void require_shapes(std::span<const double> prediction,
                    std::span<const double> target,
                    std::span<const double> gradient) {
  require_shapes(prediction, target);
  MUFFIN_REQUIRE(gradient.size() == prediction.size(),
                 "loss gradient row must match the prediction size");
}
}  // namespace

double WeightedMse::value(std::span<const double> prediction,
                          std::span<const double> target,
                          double weight) const {
  require_shapes(prediction, target);
  double acc = 0.0;
  for (std::size_t i = 0; i < prediction.size(); ++i) {
    const double diff = prediction[i] - target[i];
    acc += diff * diff;
  }
  return weight * acc / static_cast<double>(prediction.size());
}

void WeightedMse::gradient(std::span<const double> prediction,
                           std::span<const double> target, double weight,
                           std::span<double> gradient) const {
  require_shapes(prediction, target, gradient);
  const double scale = 2.0 * weight / static_cast<double>(prediction.size());
  for (std::size_t i = 0; i < prediction.size(); ++i) {
    gradient[i] = scale * (prediction[i] - target[i]);
  }
}

double WeightedCrossEntropy::value(std::span<const double> prediction,
                                   std::span<const double> target,
                                   double weight) const {
  require_shapes(prediction, target);
  double acc = 0.0;
  for (std::size_t i = 0; i < prediction.size(); ++i) {
    if (target[i] != 0.0) {
      acc -= target[i] * std::log(prediction[i] + kEps);
    }
  }
  return weight * acc;
}

void WeightedCrossEntropy::gradient(std::span<const double> prediction,
                                    std::span<const double> target,
                                    double weight,
                                    std::span<double> gradient) const {
  require_shapes(prediction, target, gradient);
  for (std::size_t i = 0; i < prediction.size(); ++i) {
    gradient[i] = target[i] != 0.0
                      ? -weight * target[i] / (prediction[i] + kEps)
                      : 0.0;
  }
}

}  // namespace muffin::nn
