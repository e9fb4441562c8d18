#include "ml/registry.h"

#include "common/macros.h"
#include "ml/decision_tree.h"
#include "ml/hist_gradient_boosting.h"
#include "ml/linear_regression.h"
#include "ml/linear_svr.h"
#include "ml/random_forest.h"

namespace nextmaint {
namespace ml {

std::vector<std::string> RegisteredModelNames() {
  return {"LR", "LSVR", "Tree", "RF", "XGB"};
}

bool IsTreeLearner(const std::string& name) {
  return name == "Tree" || name == "RF" || name == "XGB";
}

Result<std::unique_ptr<Regressor>> MakeRegressor(
    const std::string& name, const ParamMap& params,
    const TrainingBackend& backend) {
  if (name == "LR") {
    return std::unique_ptr<Regressor>(std::make_unique<LinearRegression>(
        LinearRegression::OptionsFromParams(params)));
  }
  if (name == "LSVR") {
    return std::unique_ptr<Regressor>(
        std::make_unique<LinearSvr>(LinearSvr::OptionsFromParams(params)));
  }
  if (name == "Tree") {
    DecisionTreeRegressor::Options options =
        DecisionTreeRegressor::OptionsFromParams(params);
    options.core = backend.core;
    options.binning_cache = backend.binning_cache;
    return std::unique_ptr<Regressor>(
        std::make_unique<DecisionTreeRegressor>(options));
  }
  if (name == "RF") {
    RandomForestRegressor::Options options =
        RandomForestRegressor::OptionsFromParams(params);
    options.core = backend.core;
    options.binning_cache = backend.binning_cache;
    return std::unique_ptr<Regressor>(
        std::make_unique<RandomForestRegressor>(options));
  }
  if (name == "XGB") {
    HistGradientBoostingRegressor::Options options =
        HistGradientBoostingRegressor::OptionsFromParams(params);
    options.core = backend.core;
    options.binning_cache = backend.binning_cache;
    return std::unique_ptr<Regressor>(
        std::make_unique<HistGradientBoostingRegressor>(options));
  }
  return Status::NotFound("unknown model name: '" + name + "'");
}

Result<RegressorFactory> MakeFactory(const std::string& name,
                                     const TrainingBackend& backend) {
  // Validate eagerly so a typo fails at configuration time, not mid-search.
  NM_RETURN_NOT_OK(MakeRegressor(name).status());
  return RegressorFactory([name, backend](const ParamMap& params) {
    // Construction cannot fail for a validated name.
    return MakeRegressor(name, params, backend).MoveValueOrDie();
  });
}

ParamGrid DefaultGridFor(const std::string& name, int budget) {
  ParamGrid grid;
  const bool full = budget >= 1;
  if (name == "RF") {
    grid.Add("max_depth", full ? std::vector<double>{3, 5, 10, 20, 35, 50}
                               : std::vector<double>{5, 15});
    grid.Add("num_estimators",
             full ? std::vector<double>{10, 50, 100, 300, 600, 1000}
                  : std::vector<double>{30, 100});
  } else if (name == "XGB") {
    grid.Add("max_depth", full ? std::vector<double>{3, 5, 10, 20, 35, 50}
                               : std::vector<double>{3, 6});
    grid.Add("num_iterations",
             full ? std::vector<double>{10, 50, 100, 300, 600, 1000}
                  : std::vector<double>{50, 150});
  } else if (name == "LSVR") {
    grid.Add("epsilon", full ? std::vector<double>{0.5, 1.0, 1.5, 2.0, 2.5}
                             : std::vector<double>{0.5, 1.5});
    grid.Add("C", full ? std::vector<double>{0.01, 0.1, 1, 10, 100}
                       : std::vector<double>{0.1, 10});
  }
  // LR and Tree: empty grid -> plain CV with defaults.
  return grid;
}

}  // namespace ml
}  // namespace nextmaint
