#ifndef NEXTMAINT_ML_REGISTRY_H_
#define NEXTMAINT_ML_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "ml/binned_dataset.h"
#include "ml/model_selection.h"
#include "ml/regressor.h"

/// \file registry.h
/// Name-based model construction ("LR", "LSVR", "Tree", "RF", "XGB"), used
/// by the core pipeline's model-selection loop and the benchmark harness so
/// that algorithm lists stay data, not code. The paper's "BL" baseline is
/// problem-specific (it needs AVG_v and predicts L/AVG) and lives in
/// core/baseline.h, not here.

namespace nextmaint {
namespace ml {

/// Names of the generic regressors this registry can build.
std::vector<std::string> RegisteredModelNames();

/// True for the tree learners ("Tree", "RF", "XGB"): the models that read
/// a TrainingBackend.
bool IsTreeLearner(const std::string& name);

/// Builds a model by name with the given hyper-parameters (each model
/// documents its recognised keys on its OptionsFromParams). The tree
/// learners (Tree/RF/XGB) are configured with `backend`: the training core
/// to run and an optional shared BinningCache, so repeated fits on the same
/// matrix (grid-search candidates, serving refreshes) bin once. Non-tree
/// models ignore it. Unknown names fail with NotFound.
[[nodiscard]] Result<std::unique_ptr<Regressor>> MakeRegressor(
    const std::string& name, const ParamMap& params = {},
    const TrainingBackend& backend = {});

/// Returns a factory that builds `name` models carrying `backend` (for
/// GridSearchCV: every candidate then shares the same binning cache). The
/// name is validated immediately.
[[nodiscard]] Result<RegressorFactory> MakeFactory(
    const std::string& name, const TrainingBackend& backend = {});

/// The default hyper-parameter grid the paper sweeps for each model:
///   RF / XGB: max depth 3..50, estimators 10..1000;
///   LSVR: epsilon 0.5..2.5, C 0.01..100;
///   LR: no tunables (empty grid).
/// `budget` scales the number of grid points (0 = coarse smoke-test grid,
/// 1 = the paper-faithful grid; coarse is the default because exhaustive
/// paper grids are minutes per vehicle).
ParamGrid DefaultGridFor(const std::string& name, int budget = 0);

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_REGISTRY_H_
