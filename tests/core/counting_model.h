// A pool model that delegates to another and counts its score_batch calls,
// so tests can see which ScoreCache columns were scored and how often.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "models/pool.h"

namespace muffin::core {

class CountingModel final : public models::Model {
 public:
  explicit CountingModel(models::ModelPtr inner) : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }
  std::size_t num_classes() const override { return inner_->num_classes(); }
  std::size_t parameter_count() const override {
    return inner_->parameter_count();
  }
  tensor::Vector scores(const data::Record& record) const override {
    return inner_->scores(record);
  }
  tensor::Matrix score_batch(
      std::span<const data::Record> records) const override {
    batch_calls_.fetch_add(1);
    if (failures_left_.fetch_sub(1) > 0) {
      throw Error(name() + ": injected score_batch failure");
    }
    return inner_->score_batch(records);
  }

  /// score_batch calls so far, failed ones included.
  int batch_calls() const { return batch_calls_.load(); }
  /// The next `n` score_batch calls throw muffin::Error.
  void fail_next(int n) { failures_left_.store(n); }

 private:
  models::ModelPtr inner_;
  mutable std::atomic<int> batch_calls_{0};
  mutable std::atomic<int> failures_left_{0};
};

/// Every model of `inner`, in order, wrapped in a CountingModel.
struct CountingPool {
  models::ModelPool pool;
  std::vector<std::shared_ptr<CountingModel>> models;

  explicit CountingPool(const models::ModelPool& inner) {
    for (std::size_t m = 0; m < inner.size(); ++m) {
      models.push_back(std::make_shared<CountingModel>(inner.share(m)));
      pool.add(models.back());
    }
  }

  /// score_batch calls of each model, in pool order.
  std::vector<int> calls() const {
    std::vector<int> out;
    for (const auto& model : models) out.push_back(model->batch_calls());
    return out;
  }
};

}  // namespace muffin::core
