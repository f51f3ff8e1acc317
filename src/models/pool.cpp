#include "models/pool.h"

#include "common/error.h"
#include "models/profiles.h"

namespace muffin::models {

void ModelPool::add(ModelPtr model) {
  MUFFIN_REQUIRE(model != nullptr, "cannot add a null model");
  if (!models_.empty()) {
    MUFFIN_REQUIRE(model->num_classes() == models_.front()->num_classes(),
                   "all pool models must share a class count");
  }
  for (const ModelPtr& existing : models_) {
    MUFFIN_REQUIRE(existing->name() != model->name(),
                   "pool already contains a model named '" + model->name() +
                       "'");
  }
  models_.push_back(std::move(model));
}

const Model& ModelPool::at(std::size_t index) const {
  MUFFIN_REQUIRE(index < models_.size(), "model index out of range");
  return *models_[index];
}

ModelPtr ModelPool::share(std::size_t index) const {
  MUFFIN_REQUIRE(index < models_.size(), "model index out of range");
  return models_[index];
}

const Model& ModelPool::by_name(const std::string& name) const {
  return at(index_of(name));
}

std::size_t ModelPool::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < models_.size(); ++i) {
    if (models_[i]->name() == name) return i;
  }
  throw Error("pool has no model named '" + name + "'");
}

std::vector<std::string> ModelPool::names() const {
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const ModelPtr& model : models_) out.push_back(model->name());
  return out;
}

namespace {

/// Every profile calibrated against one shared walk of `dataset`.
ModelPool calibrated_pool(const std::vector<ArchitectureProfile>& profiles,
                          const data::Dataset& dataset,
                          CalibrationConfig config) {
  const CalibrationWalk walk(dataset);
  ModelPool pool;
  for (const ArchitectureProfile& profile : profiles) {
    pool.add(std::make_shared<CalibratedModel>(profile, walk, config));
  }
  return pool;
}

}  // namespace

ModelPool calibrated_isic_pool(const data::Dataset& dataset,
                               CalibrationConfig config) {
  return calibrated_pool(isic2019_profiles(), dataset, config);
}

ModelPool calibrated_fitzpatrick_pool(const data::Dataset& dataset,
                                      CalibrationConfig config) {
  return calibrated_pool(fitzpatrick17k_profiles(), dataset, config);
}

}  // namespace muffin::models
