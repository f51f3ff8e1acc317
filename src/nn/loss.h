// Loss functions.
//
// WeightedMse implements the paper's Eq. 2: per-sample squared error scaled
// by the fairness-proxy group weight w[g]. WeightedCrossEntropy is the
// cost-sensitive loss used by the Method-L baseline (fair loss function,
// following the weighted balanced-type loss of the paper's ref. [34]).
#pragma once

#include <span>

#include "tensor/matrix.h"

namespace muffin::nn {

/// Interface for per-sample losses over (prediction, one-hot target, weight).
class Loss {
 public:
  virtual ~Loss() = default;
  /// Loss value for one weighted sample.
  [[nodiscard]] virtual double value(std::span<const double> prediction,
                                     std::span<const double> target,
                                     double weight) const = 0;
  /// dLoss/dPrediction for one weighted sample, written into `gradient`
  /// (the caller's row, as long as the prediction; every element is
  /// overwritten).
  virtual void gradient(std::span<const double> prediction,
                        std::span<const double> target, double weight,
                        std::span<double> gradient) const = 0;
};

/// Eq. 2: L = w[g] * mean_i (f'(x)_i - y_i)^2.
class WeightedMse final : public Loss {
 public:
  [[nodiscard]] double value(std::span<const double> prediction,
                             std::span<const double> target,
                             double weight) const override;
  void gradient(std::span<const double> prediction,
                std::span<const double> target, double weight,
                std::span<double> gradient) const override;
};

/// Cost-sensitive cross-entropy on probability outputs:
/// L = -w * sum_i y_i log(p_i + eps).
class WeightedCrossEntropy final : public Loss {
 public:
  [[nodiscard]] double value(std::span<const double> prediction,
                             std::span<const double> target,
                             double weight) const override;
  void gradient(std::span<const double> prediction,
                std::span<const double> target, double weight,
                std::span<double> gradient) const override;
};

}  // namespace muffin::nn
