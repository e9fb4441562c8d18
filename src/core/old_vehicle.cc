#include "core/old_vehicle.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/macros.h"
#include "core/baseline.h"
#include "ml/registry.h"

namespace nextmaint {
namespace core {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Builds the training dataset for one vehicle under the given options
/// (target filter + resampling applied to the training slice only).
Result<ml::Dataset> BuildTrainingData(const data::DailySeries& train_u,
                                      double maintenance_interval_s,
                                      const OldVehicleOptions& options) {
  DatasetOptions dataset_options;
  dataset_options.window = options.window;
  dataset_options.normalize_features = options.normalize_features;
  dataset_options.context = options.context;
  dataset_options.context_forecast_days = options.context_forecast_days;
  if (options.train_on_last29_only) {
    dataset_options.target_filter = DaySet::Last29();
  }
  ResamplingOptions resampling;
  resampling.num_shifts = options.resampling_shifts;
  resampling.seed = options.seed ^ 0x5151;
  return BuildResampledDataset(train_u, maintenance_interval_s,
                               dataset_options, resampling);
}

/// E_Global and E_MRE(eval_days) of `eval`'s aligned test vectors.
Status ScoreTestWindow(const DaySet& eval_days, VehicleEvaluation& eval) {
  NM_ASSIGN_OR_RETURN(eval.eglobal,
                      GlobalError(eval.test_truth, eval.test_predicted));
  // E_MRE may be undefined when the test window lacks near-deadline days;
  // surface that as an error to the caller rather than reporting 0.
  NM_ASSIGN_OR_RETURN(
      eval.emre,
      MeanResidualError(eval.test_truth, eval.test_predicted, eval_days));
  return Status::OK();
}

SelectionMemo::iterator FindCandidate(SelectionMemo& memo,
                                      const std::string& algorithm) {
  return std::find_if(memo.begin(), memo.end(), [&](const CandidateMemo& m) {
    return m.algorithm == algorithm;
  });
}

}  // namespace

VehicleSelection::VehicleSelection(const data::DailySeries& u,
                                   double maintenance_interval_s,
                                   const OldVehicleOptions& options,
                                   SelectionMemo* memo)
    : u_(u), maintenance_interval_s_(maintenance_interval_s),
      options_(options),
      memo_(options.resampling_shifts == 0 && options.context == nullptr
                ? memo
                : nullptr) {}

Status VehicleSelection::Prepare() {
  if (full_.has_value()) return Status::OK();
  if (options_.train_fraction <= 0.0 || options_.train_fraction >= 1.0) {
    return Status::InvalidArgument("train_fraction must be in (0, 1)");
  }
  if (options_.window < 0) {
    return Status::InvalidArgument("window must be non-negative");
  }

  // Full-series derivation defines the evaluation ground truth; the
  // training slice shares its cycle phase because both start at day 0.
  NM_ASSIGN_OR_RETURN(VehicleSeries full,
                      DeriveSeries(u_, maintenance_interval_s_));
  const size_t n = full.size();
  const size_t split =
      static_cast<size_t>(options_.train_fraction * static_cast<double>(n));
  if (split == 0 || split >= n) {
    return Status::InvalidArgument("degenerate train/test split");
  }
  split_ = split;
  train_u_ = u_.Slice(0, split);
  full_ = std::move(full);
  return Status::OK();
}

Result<const ml::Dataset*> VehicleSelection::TrainingData() {
  if (!train_data_.has_value()) {
    NM_ASSIGN_OR_RETURN(
        train_data_,
        BuildTrainingData(train_u_, maintenance_interval_s_, options_));
  }
  return &*train_data_;
}

size_t VehicleSelection::FirstTestDay() const {
  return std::max(split_, static_cast<size_t>(options_.window));
}

Result<const Records*> VehicleSelection::TestSet() {
  if (!test_.has_value()) {
    // Test period: days >= split with a defined target (and >= W so the
    // feature window exists), i.e. from FirstTestDay() on.
    DatasetOptions feature_options;
    feature_options.window = options_.window;
    feature_options.normalize_features = options_.normalize_features;
    feature_options.context = options_.context;
    feature_options.context_forecast_days = options_.context_forecast_days;
    NM_ASSIGN_OR_RETURN(Records test,
                        ExtractRecords(*full_, split_, feature_options));
    if (test.y.empty()) {
      return Status::InvalidArgument(
          "no evaluable test day (no completed cycle in the test window)");
    }
    test_ = std::move(test);
  }
  return &*test_;
}

Result<bool> VehicleSelection::EvaluateFromMemo(VehicleEvaluation& eval,
                                                size_t slice_cycles) {
  const auto entry = FindCandidate(*memo_, eval.algorithm);
  if (entry == memo_->end() || entry->slice_cycles != slice_cycles ||
      entry->full_cycles != full_->completed_cycles()) {
    return false;
  }
  const double t_start = NowSeconds();
  // The training would have succeeded as it did for the stored entry, so
  // the test window is the first thing that can fail, as in a retrain.
  NM_ASSIGN_OR_RETURN(const Records* test, TestSet());
  // Tonight's test days are the remembered ones minus those the split
  // has passed since.
  const size_t first_test_day = FirstTestDay();
  if (first_test_day < entry->first_test_day) return false;
  const size_t passed = first_test_day - entry->first_test_day;
  std::vector<double>& predicted = entry->test_predicted;
  if (passed > predicted.size() ||
      predicted.size() - passed != test->y.size()) {
    return false;
  }
  predicted.erase(predicted.begin(),
                  predicted.begin() + static_cast<ptrdiff_t>(passed));
  entry->first_test_day = first_test_day;
  eval.best_params = entry->best_params;
  eval.test_truth = test->y;
  eval.test_predicted = predicted;
  NM_RETURN_NOT_OK(ScoreTestWindow(options_.eval_days, eval));
  eval.train_seconds = NowSeconds() - t_start;
  return true;
}

Result<VehicleEvaluation> VehicleSelection::Evaluate(
    const std::string& algorithm) {
  NM_RETURN_NOT_OK(Prepare());
  VehicleEvaluation eval;
  eval.algorithm = algorithm;
  // BL is never remembered: its average covers every day before the
  // split, which moves with the history.
  const bool memoized = memo_ != nullptr && algorithm != "BL";
  size_t slice_cycles = 0;
  if (memoized) {
    const std::vector<Cycle>& cycles = full_->cycles;
    slice_cycles = static_cast<size_t>(
        std::partition_point(cycles.begin(), cycles.end(),
                             [&](const Cycle& c) { return c.end < split_; }) -
        cycles.begin());
    NM_ASSIGN_OR_RETURN(const bool hit, EvaluateFromMemo(eval, slice_cycles));
    if (hit) {
      ++memo_hits_;
      return eval;
    }
  }

  const double t_start = NowSeconds();
  std::unique_ptr<ml::Regressor> model;
  if (algorithm == "BL") {
    // BL: average utilization over the training period (Eq. 5); no
    // training beyond that.
    NM_ASSIGN_OR_RETURN(double avg, AverageUtilization(train_u_));
    const double l_scale =
        options_.normalize_features ? 1.0 / maintenance_interval_s_ : 1.0;
    model = std::make_unique<BaselinePredictor>(avg, l_scale);
  } else {
    NM_ASSIGN_OR_RETURN(const ml::Dataset* train_data, TrainingData());
    ml::ParamMap params;
    if (options_.tune) {
      NM_ASSIGN_OR_RETURN(ml::RegressorFactory factory,
                          ml::MakeFactory(algorithm, options_.backend));
      const ml::ParamGrid grid =
          ml::DefaultGridFor(algorithm, options_.grid_budget);
      ml::GridSearchOptions search_options;
      search_options.seed = options_.seed;
      // Tiny training sets cannot sustain 5 folds.
      search_options.folds = std::min<size_t>(
          5, std::max<size_t>(2, train_data->num_rows() / 10));
      if (train_data->num_rows() >= 2 * search_options.folds) {
        NM_ASSIGN_OR_RETURN(
            ml::GridSearchResult search,
            ml::GridSearchCV(factory, grid, *train_data, search_options));
        params = search.best_params;
      }
      eval.best_params = params;
    }
    NM_ASSIGN_OR_RETURN(
        model, ml::MakeRegressor(algorithm, params, options_.backend));
    NM_RETURN_NOT_OK(model->Fit(*train_data).WithContext(algorithm));
  }
  eval.train_seconds = NowSeconds() - t_start;

  NM_ASSIGN_OR_RETURN(const Records* test, TestSet());
  eval.test_truth = test->y;
  // One batched call for the whole test window, timed and counted once
  // (ml.predict_batch.*).
  NM_ASSIGN_OR_RETURN(eval.test_predicted, model->PredictBatch(test->x));
  NM_RETURN_NOT_OK(ScoreTestWindow(options_.eval_days, eval));
  eval.model = std::move(model);

  if (memoized) {
    auto entry = FindCandidate(*memo_, algorithm);
    if (entry == memo_->end()) {
      entry = memo_->emplace(entry);
      entry->algorithm = algorithm;
    }
    entry->slice_cycles = slice_cycles;
    entry->full_cycles = full_->completed_cycles();
    entry->first_test_day = FirstTestDay();
    // In place: a window that did not grow reuses the stored buffer, so a
    // long-lived fleet does not scatter a fresh one across the heap.
    entry->test_predicted.assign(eval.test_predicted.begin(),
                                 eval.test_predicted.end());
    entry->best_params = eval.best_params;
  }
  return eval;
}

Result<ModelSelectionResult> VehicleSelection::SelectBest(
    const std::vector<std::string>& algorithms) {
  if (algorithms.empty()) {
    return Status::InvalidArgument("empty algorithm list");
  }
  ModelSelectionResult result;
  double best = std::numeric_limits<double>::infinity();
  for (const std::string& algorithm : algorithms) {
    NM_ASSIGN_OR_RETURN(VehicleEvaluation eval, Evaluate(algorithm));
    if (eval.emre < best) {
      best = eval.emre;
      result.best_index = result.evaluations.size();
    }
    result.evaluations.push_back(std::move(eval));
  }
  return result;
}

Result<VehicleEvaluation> EvaluateAlgorithmOnVehicle(
    const std::string& algorithm, const data::DailySeries& u,
    double maintenance_interval_s, const OldVehicleOptions& options) {
  return VehicleSelection(u, maintenance_interval_s, options)
      .Evaluate(algorithm);
}

Result<ModelSelectionResult> SelectBestModelForVehicle(
    const std::vector<std::string>& algorithms, const data::DailySeries& u,
    double maintenance_interval_s, const OldVehicleOptions& options) {
  return VehicleSelection(u, maintenance_interval_s, options)
      .SelectBest(algorithms);
}

std::vector<double> PerDayResiduals(const VehicleEvaluation& eval, int lo,
                                    int hi) {
  NM_CHECK(lo <= hi);
  std::vector<double> out;
  out.reserve(static_cast<size_t>(hi - lo + 1));
  for (int d = lo; d <= hi; ++d) {
    const Result<double> r = MeanResidualError(
        eval.test_truth, eval.test_predicted, DaySet::Single(d));
    out.push_back(r.ok() ? r.ValueOrDie()
                         : std::numeric_limits<double>::quiet_NaN());
  }
  return out;
}

}  // namespace core
}  // namespace nextmaint
