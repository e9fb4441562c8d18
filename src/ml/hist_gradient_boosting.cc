#include "ml/hist_gradient_boosting.h"

#include "common/macros.h"
#include "common/parallel.h"
#include "common/telemetry.h"
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

/// The `resume` line ends with two fields that carry no setting. Every model
/// writes these values and LoadBody accepts no other, so the format and
/// the bytes of saved models stay the same.
constexpr double kResumeHoldout = 0.0;
constexpr int kResumePatience = 10;

}  // namespace

Status HistGradientBoostingRegressor::FitImpl(const Dataset& train) {
  fitted_ = false;
  trees_.clear();
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

  num_features_ = train.num_features();
  const size_t n = train.num_rows();

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
  std::vector<double> gradients(n);
  DataPartition partition;

  for (int iter = 0; iter < options_.num_iterations; ++iter) {
    for (size_t i = 0; i < n; ++i) {
      gradients[i] = predictions[i] - train.y()[i];
    }

    partition.Reset(n);
    std::vector<GrowNode> tree = binning.Grow(gradients, &partition, spec);
    if (tree.size() == 1 && iter > 0) {
      // Root could not split and contributes a constant; gradients have
      // plateaued, so further iterations would stack identical constants.
      trees_.push_back(std::move(tree));
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
    trees_.push_back(std::move(tree));
  }

  fitted_ = true;
  telemetry::Count("ml.xgb.boosting_rounds", trees_.size());
  return Status::OK();
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
           options_.min_gain, kResumeHoldout, kResumePatience);
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
    double holdout = 0.0;
    int patience = 0;
    if (!in.Read(o.learning_rate, o.max_depth, o.min_samples_leaf,
                 o.max_bins, o.l2, o.min_gain, holdout, patience)) {
      return Status::DataError("XGB: truncated 'resume' line");
    }
    if (o.learning_rate <= 0.0 || o.min_samples_leaf < 1 ||
        o.max_bins < 2 || o.max_bins > 65535 || holdout != kResumeHoldout ||
        patience != kResumePatience) {
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
