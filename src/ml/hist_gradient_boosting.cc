#include "ml/hist_gradient_boosting.h"

#include <algorithm>

#include "common/macros.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "ml/early_stopping.h"
#include "ml/histogram.h"
#include "ml/serialization.h"

namespace nextmaint {
namespace ml {

HistGradientBoostingRegressor::Options
HistGradientBoostingRegressor::OptionsFromParams(const ParamMap& params) {
  Options options;
  if (auto it = params.find("num_iterations"); it != params.end()) {
    options.num_iterations = static_cast<int>(it->second);
  }
  if (auto it = params.find("max_depth"); it != params.end()) {
    options.max_depth = static_cast<int>(it->second);
  }
  if (auto it = params.find("learning_rate"); it != params.end()) {
    options.learning_rate = it->second;
  }
  if (auto it = params.find("min_samples_leaf"); it != params.end()) {
    options.min_samples_leaf = static_cast<int>(it->second);
  }
  if (auto it = params.find("max_bins"); it != params.end()) {
    options.max_bins = static_cast<int>(it->second);
  }
  if (auto it = params.find("num_threads"); it != params.end()) {
    options.num_threads = static_cast<int>(it->second);
  }
  return options;
}

namespace {

/// Grain for the per-row prediction-update sweep; each row is independent
/// so chunking cannot change the result.
constexpr size_t kPredictGrain = 1024;

}  // namespace

size_t HistGradientBoostingRegressor::TrainRowCount(size_t total_rows) const {
  // Early stopping holds out the chronological tail: the dataset builder
  // emits time-ordered rows, so the tail is the most recent data.
  return options_.validation_fraction > 0.0
             ? std::max<size_t>(
                   1, total_rows - static_cast<size_t>(
                                       options_.validation_fraction *
                                       static_cast<double>(total_rows)))
             : total_rows;
}

Status HistGradientBoostingRegressor::FitImpl(const Dataset& train) {
  fitted_ = false;
  trees_.clear();
  train_loss_.clear();
  valid_loss_.clear();
  if (train.empty()) {
    return Status::InvalidArgument("cannot fit XGB on an empty dataset");
  }
  if (!train.x().AllFinite()) {
    return Status::InvalidArgument("XGB features contain non-finite values");
  }
  if (options_.num_iterations <= 0) {
    return Status::InvalidArgument("XGB requires num_iterations > 0");
  }
  if (options_.learning_rate <= 0.0) {
    return Status::InvalidArgument("XGB requires learning_rate > 0");
  }
  if (options_.max_bins < 2 || options_.max_bins > 65535) {
    return Status::InvalidArgument("XGB requires 2 <= max_bins <= 65535");
  }
  if (options_.min_samples_leaf < 1) {
    return Status::InvalidArgument("XGB requires min_samples_leaf >= 1");
  }
  if (options_.validation_fraction < 0.0 ||
      options_.validation_fraction >= 1.0) {
    return Status::InvalidArgument(
        "XGB requires validation_fraction in [0, 1)");
  }
  if (options_.early_stopping_rounds < 1) {
    return Status::InvalidArgument(
        "XGB requires early_stopping_rounds >= 1");
  }

  num_features_ = train.num_features();

  const size_t total_rows = train.num_rows();
  const size_t n = TrainRowCount(total_rows);
  const size_t valid_rows = total_rows - n;

  // Initial prediction: the target mean (squared-loss optimum).
  base_score_ = 0.0;
  for (double y : train.y()) base_score_ += y;
  base_score_ /= static_cast<double>(n);

  const TreeBinning binning(train.x(), options_.max_bins, options_.core,
                            options_.binning_cache, options_.num_threads);
  GrowSpec spec;
  spec.depth_limited = options_.max_depth > 0;
  spec.max_depth = options_.max_depth;
  spec.min_samples_leaf = static_cast<size_t>(options_.min_samples_leaf);
  spec.newton = true;
  spec.learning_rate = options_.learning_rate;
  spec.l2 = options_.l2;
  spec.min_gain = options_.min_gain;
  spec.num_threads = options_.num_threads;

  std::vector<double> predictions(n, base_score_);
  std::vector<double> valid_predictions(valid_rows, base_score_);
  std::vector<double> gradients(n);
  DataPartition partition;
  EarlyStopping stopper(
      EarlyStopping::Options{options_.early_stopping_rounds, 1e-12});

  for (int iter = 0; iter < options_.num_iterations; ++iter) {
    double loss = 0.0;
    for (size_t i = 0; i < n; ++i) {
      gradients[i] = predictions[i] - train.y()[i];
      loss += gradients[i] * gradients[i];
    }
    train_loss_.push_back(loss / static_cast<double>(n));

    partition.Reset(n);
    std::vector<GrowNode> tree = binning.Grow(gradients, &partition, spec);
    if (tree.size() == 1 && iter > 0) {
      // Root could not split and contributes a constant; gradients have
      // plateaued, so further iterations would stack identical constants.
      trees_.push_back(std::move(tree));
      for (size_t i = 0; i < n; ++i) predictions[i] += trees_.back()[0].value;
      break;
    }

    NM_RETURN_NOT_OK(ParallelFor(
        0, n, kPredictGrain,
        [&](size_t chunk_begin, size_t chunk_end) -> Status {
          for (size_t i = chunk_begin; i < chunk_end; ++i) {
            predictions[i] += LeafValue(tree, train.x().Row(i));
          }
          return Status::OK();
        },
        options_.num_threads));
    if (valid_rows > 0) {
      double valid_mse = 0.0;
      for (size_t i = 0; i < valid_rows; ++i) {
        valid_predictions[i] += LeafValue(tree, train.x().Row(n + i));
        const double err = valid_predictions[i] - train.y()[n + i];
        valid_mse += err * err;
      }
      valid_mse /= static_cast<double>(valid_rows);
      valid_loss_.push_back(valid_mse);
      if (stopper.Update(valid_mse)) {
        trees_.push_back(std::move(tree));
        break;
      }
    }
    trees_.push_back(std::move(tree));
  }

  fitted_ = true;
  telemetry::Count("ml.xgb.boosting_rounds", trees_.size());
  return Status::OK();
}

std::vector<double> HistGradientBoostingRegressor::FeatureImportances()
    const {
  return GainImportances(trees_, num_features_);
}

Result<double> HistGradientBoostingRegressor::Predict(
    std::span<const double> features) const {
  if (!fitted_) {
    return Status::FailedPrecondition("XGB model is not fitted");
  }
  if (features.size() != num_features_) {
    return Status::InvalidArgument(
        "feature count mismatch: got " + std::to_string(features.size()) +
        ", trained with " + std::to_string(num_features_));
  }
  double score = base_score_;
  for (const std::vector<GrowNode>& tree : trees_) {
    score += LeafValue(tree, features);
  }
  return score;
}

void HistGradientBoostingRegressor::SaveBody(ModelWriter& out) const {
  out.Line("base", base_score_);
  out.Line("features", num_features_);
  // The fitted hyper-parameters (num_iterations is the trees line). Part
  // of the model format: LoadBody validates it and restores options(), and
  // older files without it still load.
  out.Line("resume", options_.learning_rate, options_.max_depth,
           options_.min_samples_leaf, options_.max_bins, options_.l2,
           options_.min_gain, options_.validation_fraction,
           options_.early_stopping_rounds);
  out.Line("trees", trees_.size());
  for (const std::vector<GrowNode>& tree : trees_) {
    WriteTreeNodes(out, tree);
  }
  out.Line("end");
}

Result<HistGradientBoostingRegressor>
HistGradientBoostingRegressor::LoadBody(ModelReader& in) {
  HistGradientBoostingRegressor model;
  size_t tree_count = 0;
  if (!in.Expect("base") || !in.Read(model.base_score_)) {
    return Status::DataError("XGB: expected 'base <b>'");
  }
  if (!in.Expect("features") || !in.Read(model.num_features_)) {
    return Status::DataError("XGB: expected 'features <p>'");
  }
  std::string_view token = in.Token();
  if (token == "resume") {
    // Optional hyper-parameter line (absent in older files, whose models
    // load with default options()).
    Options& o = model.options_;
    if (!in.Read(o.learning_rate, o.max_depth, o.min_samples_leaf,
                 o.max_bins, o.l2, o.min_gain, o.validation_fraction,
                 o.early_stopping_rounds)) {
      return Status::DataError("XGB: truncated 'resume' line");
    }
    if (o.learning_rate <= 0.0 || o.min_samples_leaf < 1 ||
        o.max_bins < 2 || o.max_bins > 65535 ||
        o.validation_fraction < 0.0 || o.validation_fraction >= 1.0 ||
        o.early_stopping_rounds < 1) {
      return Status::DataError("XGB: 'resume' values out of range");
    }
    token = in.Token();
  }
  if (token != "trees" || !in.Read(tree_count)) {
    return Status::DataError("XGB: expected 'trees <k>'");
  }
  // A tree is at least 7 tokens: 'nodes <n>' and one node line.
  if (!in.CanHold(tree_count, 7)) {
    return Status::DataError("XGB: implausible tree count");
  }
  model.trees_.reserve(tree_count);
  for (size_t t = 0; t < tree_count; ++t) {
    NM_ASSIGN_OR_RETURN(std::vector<GrowNode> tree,
                        ReadTreeNodes(in, "XGB", model.num_features_));
    model.trees_.push_back(std::move(tree));
  }
  if (!in.Expect("end")) {
    return Status::DataError("XGB: missing end marker");
  }
  model.fitted_ = true;
  return model;
}

}  // namespace ml
}  // namespace nextmaint
