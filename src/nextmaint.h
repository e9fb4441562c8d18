#ifndef NEXTMAINT_NEXTMAINT_H_
#define NEXTMAINT_NEXTMAINT_H_

/// \file nextmaint.h
/// Umbrella header: the full public API of the nextmaint library.
///
/// Layering (low to high):
///   common/     Status/Result, Rng, Date, statistics, logging
///   data/       DailySeries, columnar Table, CSV, preparation pipeline
///   telematics/ CAN bus + controller simulation, fleet generator
///   ml/         Matrix, regressors (LR/LSVR/Tree/RF/XGB), CV, grid search
///   core/       the paper's contribution: series derivation, vehicle
///               categories, error metrics, dataset builder, per-category
///               methodologies, fleet scheduler
///   serve/      incremental serving engine: cached per-vehicle state,
///               dirty-tracked refreshes, epoch/snapshot reads

#include "common/date.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "common/status.h"
#include "common/strings.h"
#include "core/baseline.h"
#include "core/category.h"
#include "core/cold_start.h"
#include "core/dataset_builder.h"
#include "core/errors.h"
#include "core/old_vehicle.h"
#include "core/scheduler.h"
#include "core/series.h"
#include "core/similarity.h"
#include "core/workshop_planner.h"
#include "data/csv.h"
#include "data/preprocess.h"
#include "data/table.h"
#include "data/time_series.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/hist_gradient_boosting.h"
#include "ml/linear_regression.h"
#include "ml/linear_svr.h"
#include "ml/matrix.h"
#include "ml/metrics.h"
#include "ml/model_selection.h"
#include "ml/random_forest.h"
#include "ml/registry.h"
#include "ml/regressor.h"
#include "ml/serialization.h"
#include "serve/serving_engine.h"
#include "telematics/can_bus.h"
#include "telematics/controller.h"
#include "telematics/fleet.h"
#include "telematics/usage_model.h"
#include "telematics/weather.h"

#endif  // NEXTMAINT_NEXTMAINT_H_
