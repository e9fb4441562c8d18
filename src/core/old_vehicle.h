#ifndef NEXTMAINT_CORE_OLD_VEHICLE_H_
#define NEXTMAINT_CORE_OLD_VEHICLE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/dataset_builder.h"
#include "core/errors.h"
#include "core/series.h"
#include "ml/binned_dataset.h"
#include "ml/regressor.h"

/// \file old_vehicle.h
/// Methodology for old vehicles (Section 4.3): per-vehicle models, first
/// 70% of samples as training set, grid search with 5-fold CV, selection of
/// the model minimizing E_MRE({1..29}) on the last 29 days per cycle.

namespace nextmaint {
namespace core {

/// Options for per-vehicle training/evaluation.
struct OldVehicleOptions {
  /// Chronological train fraction (paper: first 70% of the samples).
  double train_fraction = 0.7;
  /// Window size W of past utilization features.
  int window = 0;
  /// Restrict *training* records to target days in {1..29} — the regime of
  /// Table 1's right-hand column, which the paper shows halves the error.
  bool train_on_last29_only = false;
  /// Time-shift re-sampling augmentation applied to the training data.
  int resampling_shifts = 0;
  /// Run the paper's grid search + 5-fold CV; false trains library
  /// defaults (much faster, used by smoke tests).
  bool tune = true;
  /// Grid density passed to ml::DefaultGridFor (0 coarse, 1 paper grid).
  int grid_budget = 0;
  /// Evaluation restriction for E_MRE (paper default {1..29}).
  DaySet eval_days = DaySet::Last29();
  /// Scale features to [0, 1] (see DatasetOptions::normalize_features).
  bool normalize_features = true;
  /// Optional contextual series (e.g. weather workability, aligned with the
  /// utilization series) appended as forward-looking features; see
  /// DatasetOptions::context / context_forecast_days.
  const std::vector<double>* context = nullptr;
  int context_forecast_days = 0;
  uint64_t seed = 2020;
  /// Tree-learner training backend (core selection + optional shared
  /// binning cache). With a cache attached, every grid-search candidate and
  /// CV fold on the same matrix bins the data once.
  ml::TrainingBackend backend{};
};

/// Outcome of evaluating one algorithm on one vehicle.
struct VehicleEvaluation {
  std::string algorithm;
  /// E_MRE(eval_days) on the test period.
  double emre = 0.0;
  /// E_Global on the test period.
  double eglobal = 0.0;
  /// Hyper-parameters chosen by the grid search (empty without tuning).
  ml::ParamMap best_params;
  /// Wall-clock seconds spent in training (including the grid search),
  /// reproducing the Section 5.1 timing analysis. Candidates of one
  /// VehicleSelection share one training dataset: its construction is
  /// charged to the first non-BL candidate that trains on it.
  double train_seconds = 0.0;
  /// Test-period ground truth / predictions, aligned pairwise (only days
  /// with a defined target). Kept so callers can compute E_MRE({d}) for
  /// any d (Figure 5) without re-training.
  std::vector<double> test_truth;
  std::vector<double> test_predicted;
  /// The trained model (null for callers that only need the numbers).
  std::shared_ptr<ml::Regressor> model;
};

/// What a VehicleSelection remembers of one trained candidate across
/// nights, keyed on the labeled data the candidate saw. With no time-shift
/// re-sampling and no context series, the training dataset is a function
/// of the training slice's completed cycles (`slice_cycles`, the cycles
/// that close before the split) and the test window's truth, features and
/// per-day predictions are a function of the full history's completed
/// cycles (`full_cycles`): while both counts stay put, the fit, its tuned
/// parameters and its predictions are the same doubles, and the new test
/// window is a suffix of the remembered one.
struct CandidateMemo {
  std::string algorithm;
  size_t slice_cycles = 0;
  size_t full_cycles = 0;
  /// Day index of test_predicted[0]: max(split, W) when it was stored.
  size_t first_test_day = 0;
  std::vector<double> test_predicted;
  ml::ParamMap best_params;
};

/// One vehicle's candidate memos, one per non-BL algorithm, owned by the
/// caller across evaluations (the fleet scheduler keeps one per vehicle).
/// The caller must drop it when the history is replaced rather than
/// appended to.
using SelectionMemo = std::vector<CandidateMemo>;

/// The evaluations of a candidate list plus the index of the winner by
/// E_MRE — the paper's per-vehicle model selection rule.
struct ModelSelectionResult {
  std::vector<VehicleEvaluation> evaluations;
  size_t best_index = 0;
};

/// One vehicle under the 70/30 protocol, prepared once and shared by every
/// candidate it evaluates: the full-history derivation (the test ground
/// truth), the split, the training slice, the test matrix with its truth,
/// and the training dataset every non-BL candidate fits on. Each part is
/// built on first use, so errors surface in the order a lone candidate
/// meets them: setup, then training, then the test window.
class VehicleSelection {
 public:
  /// Keeps a reference to `u`, which must outlive the selection. With a
  /// `memo` (also kept by reference), a non-BL candidate whose memo key
  /// still matches is scored from its remembered predictions instead of
  /// being trained again, and every other trained candidate refills it.
  /// The memo is ignored when the options re-sample time shifts (their
  /// offsets are drawn from the series length) or carry a context series.
  VehicleSelection(const data::DailySeries& u, double maintenance_interval_s,
                   const OldVehicleOptions& options,
                   SelectionMemo* memo = nullptr);

  /// Trains `algorithm` ("BL", "LR", "LSVR", "RF" or "XGB") on the
  /// training window and evaluates it on the held-out tail. A memo hit
  /// returns the same numbers, parameters and test vectors as the training
  /// would, with a null `model`.
  [[nodiscard]] Result<VehicleEvaluation> Evaluate(const std::string& algorithm);

  /// Evaluates every algorithm in list order and picks the lowest E_MRE
  /// (the first on ties). Fails with the first candidate's error.
  [[nodiscard]] Result<ModelSelectionResult> SelectBest(
      const std::vector<std::string>& algorithms);

  /// DeriveSeries(u, T_v), e.g. for the deployment refit on the full
  /// history; null until an Evaluate/SelectBest got past the setup.
  const VehicleSeries* series() const {
    return full_.has_value() ? &*full_ : nullptr;
  }

  /// Candidates this selection scored from the memo.
  size_t memo_hits() const { return memo_hits_; }

 private:
  Status Prepare();
  Result<const ml::Dataset*> TrainingData();
  Result<const Records*> TestSet();
  /// max(split, W): the day of the test window's first row.
  size_t FirstTestDay() const;
  /// Scores `eval` from the memo when its key matches; false on a miss.
  Result<bool> EvaluateFromMemo(VehicleEvaluation& eval, size_t slice_cycles);

  const data::DailySeries& u_;
  double maintenance_interval_s_;
  OldVehicleOptions options_;
  std::optional<VehicleSeries> full_;
  data::DailySeries train_u_;
  size_t split_ = 0;
  std::optional<ml::Dataset> train_data_;
  std::optional<Records> test_;
  SelectionMemo* memo_ = nullptr;
  size_t memo_hits_ = 0;
};

/// Trains `algorithm` on the vehicle's training window and evaluates it on
/// the held-out tail: VehicleSelection's one-candidate case.
///
/// Requirements: the series must contain at least one completed cycle in
/// the training window and one evaluable day in the test window; fails with
/// InvalidArgument otherwise (callers skip such vehicles, as the paper's
/// old-vehicle protocol presumes enough history).
[[nodiscard]] Result<VehicleEvaluation> EvaluateAlgorithmOnVehicle(
    const std::string& algorithm, const data::DailySeries& u,
    double maintenance_interval_s, const OldVehicleOptions& options);

/// Runs every algorithm in `algorithms` on one shared VehicleSelection and
/// returns the evaluations plus the winner's index.
[[nodiscard]] Result<ModelSelectionResult> SelectBestModelForVehicle(
    const std::vector<std::string>& algorithms, const data::DailySeries& u,
    double maintenance_interval_s, const OldVehicleOptions& options);

/// Computes E_MRE(DaySet::Single(d)) for each d in [lo, hi] from a stored
/// evaluation (used for Figure 5). Days with no test sample yield NaN.
std::vector<double> PerDayResiduals(const VehicleEvaluation& eval, int lo,
                                    int hi);

}  // namespace core
}  // namespace nextmaint

#endif  // NEXTMAINT_CORE_OLD_VEHICLE_H_
