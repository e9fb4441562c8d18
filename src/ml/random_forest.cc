#include "ml/random_forest.h"

#include <cmath>
#include <limits>

#include "common/macros.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "ml/serialization.h"

namespace nextmaint {
namespace ml {

RandomForestRegressor::Options RandomForestRegressor::OptionsFromParams(
    const ParamMap& params) {
  Options options;
  if (auto it = params.find("num_estimators"); it != params.end()) {
    options.num_estimators = static_cast<int>(it->second);
  }
  if (auto it = params.find("max_depth"); it != params.end()) {
    options.max_depth = static_cast<int>(it->second);
  }
  if (auto it = params.find("min_samples_leaf"); it != params.end()) {
    options.min_samples_leaf = static_cast<int>(it->second);
  }
  if (auto it = params.find("num_threads"); it != params.end()) {
    options.num_threads = static_cast<int>(it->second);
  }
  if (auto it = params.find("max_bins"); it != params.end()) {
    options.max_bins = static_cast<int>(it->second);
  }
  return options;
}

Status RandomForestRegressor::FitImpl(const Dataset& train) {
  trees_.clear();
  oob_mae_ = std::numeric_limits<double>::quiet_NaN();
  if (train.empty()) {
    return Status::InvalidArgument("cannot fit RF on an empty dataset");
  }
  if (options_.num_estimators <= 0) {
    return Status::InvalidArgument("RF requires num_estimators > 0");
  }
  if (options_.bootstrap_fraction <= 0.0 ||
      options_.bootstrap_fraction > 1.0) {
    return Status::InvalidArgument("bootstrap_fraction must be in (0, 1]");
  }
  if (options_.max_bins < 2 || options_.max_bins > 65535) {
    return Status::InvalidArgument("RF requires 2 <= max_bins <= 65535");
  }
  if (!train.x().AllFinite()) {
    return Status::InvalidArgument("RF features contain non-finite values");
  }

  const size_t n = train.num_rows();
  const size_t p = train.num_features();
  int max_features = options_.max_features;
  if (max_features <= 0) {
    // All features, matching sklearn's RandomForestRegressor default (the
    // implementation the paper's experiments used); bagging alone
    // decorrelates the trees.
    max_features = static_cast<int>(p);
  }

  Rng rng(options_.seed);
  const size_t bootstrap_size = std::max<size_t>(
      1, static_cast<size_t>(options_.bootstrap_fraction *
                             static_cast<double>(n)));
  const size_t num_trees = static_cast<size_t>(options_.num_estimators);

  // Derive every tree's bootstrap sample and seed up front, consuming the
  // shared rng stream in tree order. The per-tree work below is then a
  // pure function of (sample, seed), so models are bit-identical at any
  // thread count.
  std::vector<std::vector<size_t>> samples(num_trees);
  std::vector<uint64_t> seeds(num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    samples[t].resize(bootstrap_size);
    for (size_t i = 0; i < bootstrap_size; ++i) {
      samples[t][i] = static_cast<size_t>(rng.UniformInt(n));
    }
    seeds[t] = rng.NextUint64();
  }

  // Forest-level binning, computed once over the full training matrix (not
  // per bootstrap sample) and shared by every tree, so all trees — and both
  // tree cores — search the same bin boundaries.
  std::shared_ptr<const PreBinned> cached;
  BinMapper local_mapper;
  BinnedDataset local_binned;
  const BinMapper* mapper = nullptr;
  const BinnedDataset* binned = nullptr;
  if (options_.core == TreeCore::kBinned && options_.binning_cache) {
    cached = options_.binning_cache->GetOrCompute(
        train.x(), options_.max_bins, options_.num_threads);
    mapper = &cached->mapper;
    binned = &cached->binned;
  } else {
    local_mapper.Compute(train.x(), options_.max_bins);
    mapper = &local_mapper;
    if (options_.core == TreeCore::kBinned) {
      local_binned.Build(train.x(), *mapper, options_.num_threads);
      binned = &local_binned;
    }
  }

  // Each tree records its out-of-bag predictions privately; the floating
  // point reduction into oob_sum happens serially in tree order afterwards.
  std::vector<std::vector<double>> tree_oob_pred(num_trees);
  std::vector<std::vector<char>> tree_in_bag(num_trees);
  trees_.resize(num_trees);

  const Status fit_status = ParallelFor(
      0, num_trees, /*grain=*/1,
      [&](size_t chunk_begin, size_t chunk_end) -> Status {
        for (size_t t = chunk_begin; t < chunk_end; ++t) {
          DecisionTreeRegressor::Options tree_options;
          tree_options.max_depth = options_.max_depth;
          tree_options.min_samples_split = options_.min_samples_split;
          tree_options.min_samples_leaf = options_.min_samples_leaf;
          tree_options.max_features = max_features;
          tree_options.seed = seeds[t];
          tree_options.max_bins = options_.max_bins;
          tree_options.core = options_.core;

          std::vector<char>& in_bag = tree_in_bag[t];
          in_bag.assign(n, 0);
          for (size_t row : samples[t]) in_bag[row] = 1;

          DecisionTreeRegressor tree(tree_options);
          NM_RETURN_NOT_OK(tree.FitBinned(train, *mapper, binned, samples[t])
                               .WithContext("tree " + std::to_string(t)));

          // The tree was just fitted on train.x(), so every row has its
          // width: skip Predict's checks and Result wrapping.
          std::vector<double>& oob_pred = tree_oob_pred[t];
          oob_pred.assign(n, 0.0);
          for (size_t row = 0; row < n; ++row) {
            if (in_bag[row]) continue;
            oob_pred[row] = tree.PredictUnchecked(train.x().Row(row));
          }
          trees_[t] = std::move(tree);
        }
        return Status::OK();
      },
      options_.num_threads);
  if (!fit_status.ok()) {
    trees_.clear();  // never leave half-fitted placeholder trees behind
    return fit_status;
  }

  // Out-of-bag bookkeeping: accumulated prediction and count per sample,
  // reduced in tree order so the sums match the serial loop exactly.
  std::vector<double> oob_sum(n, 0.0);
  std::vector<int> oob_count(n, 0);
  for (size_t t = 0; t < num_trees; ++t) {
    for (size_t row = 0; row < n; ++row) {
      if (tree_in_bag[t][row]) continue;
      oob_sum[row] += tree_oob_pred[t][row];
      ++oob_count[row];
    }
  }

  double abs_err = 0.0;
  size_t covered = 0;
  for (size_t row = 0; row < n; ++row) {
    if (oob_count[row] == 0) continue;
    abs_err += std::fabs(oob_sum[row] / oob_count[row] - train.y()[row]);
    ++covered;
  }
  if (covered > 0) oob_mae_ = abs_err / static_cast<double>(covered);
  telemetry::Count("ml.rf.trees_fitted", trees_.size());
  return Status::OK();
}

Status RandomForestRegressor::ContinueFitImpl(const Dataset& train,
                                              int extra_rounds) {
  if (train.empty()) {
    return Status::InvalidArgument("cannot resume RF on an empty dataset");
  }
  const size_t num_features = trees_.front().num_features();
  if (train.num_features() != num_features) {
    return Status::InvalidArgument(
        "feature count mismatch: got " +
        std::to_string(train.num_features()) + ", trained with " +
        std::to_string(num_features));
  }
  if (!train.x().AllFinite()) {
    return Status::InvalidArgument("RF features contain non-finite values");
  }
  if (extra_rounds == 0) return Status::OK();  // byte-identical no-op

  const size_t n = train.num_rows();
  const size_t p = train.num_features();
  int max_features = options_.max_features;
  if (max_features <= 0) max_features = static_cast<int>(p);

  // Continuation stream: keyed by the current forest size so that resuming
  // in two steps of k trees equals one step of 2k trees drawn from each
  // intermediate size, and a save/load round trip (which keeps options_ via
  // the 'resume' line and trees_ via the tree bodies) resumes identically.
  const size_t trees_before = trees_.size();
  Rng rng(options_.seed ^ (0x9e3779b97f4a7c15ULL * trees_before));
  const size_t bootstrap_size = std::max<size_t>(
      1, static_cast<size_t>(options_.bootstrap_fraction *
                             static_cast<double>(n)));
  const size_t extra = static_cast<size_t>(extra_rounds);
  std::vector<std::vector<size_t>> samples(extra);
  std::vector<uint64_t> seeds(extra);
  for (size_t t = 0; t < extra; ++t) {
    samples[t].resize(bootstrap_size);
    for (size_t i = 0; i < bootstrap_size; ++i) {
      samples[t][i] = static_cast<size_t>(rng.UniformInt(n));
    }
    seeds[t] = rng.NextUint64();
  }

  std::shared_ptr<const PreBinned> cached;
  BinMapper local_mapper;
  BinnedDataset local_binned;
  const BinMapper* mapper = nullptr;
  const BinnedDataset* binned = nullptr;
  if (options_.core == TreeCore::kBinned && options_.binning_cache) {
    cached = options_.binning_cache->GetOrCompute(
        train.x(), options_.max_bins, options_.num_threads);
    mapper = &cached->mapper;
    binned = &cached->binned;
  } else {
    local_mapper.Compute(train.x(), options_.max_bins);
    mapper = &local_mapper;
    if (options_.core == TreeCore::kBinned) {
      local_binned.Build(train.x(), *mapper, options_.num_threads);
      binned = &local_binned;
    }
  }

  trees_.resize(trees_before + extra);
  const Status fit_status = ParallelFor(
      0, extra, /*grain=*/1,
      [&](size_t chunk_begin, size_t chunk_end) -> Status {
        for (size_t t = chunk_begin; t < chunk_end; ++t) {
          DecisionTreeRegressor::Options tree_options;
          tree_options.max_depth = options_.max_depth;
          tree_options.min_samples_split = options_.min_samples_split;
          tree_options.min_samples_leaf = options_.min_samples_leaf;
          tree_options.max_features = max_features;
          tree_options.seed = seeds[t];
          tree_options.max_bins = options_.max_bins;
          tree_options.core = options_.core;

          DecisionTreeRegressor tree(tree_options);
          NM_RETURN_NOT_OK(
              tree.FitBinned(train, *mapper, binned, samples[t])
                  .WithContext("tree " +
                               std::to_string(trees_before + t)));
          trees_[trees_before + t] = std::move(tree);
        }
        return Status::OK();
      },
      options_.num_threads);
  if (!fit_status.ok()) {
    trees_.resize(trees_before);  // all-or-nothing
    return fit_status;
  }

  // The original out-of-bag membership is gone (it is not persisted and the
  // matrix may have grown), so the estimate cannot be extended coherently.
  oob_mae_ = std::numeric_limits<double>::quiet_NaN();
  telemetry::Count("ml.rf.trees_resumed", extra);
  return Status::OK();
}

std::vector<double> RandomForestRegressor::FeatureImportances() const {
  if (trees_.empty()) return {};
  std::vector<double> total;
  for (const DecisionTreeRegressor& tree : trees_) {
    const std::vector<double> imp = tree.FeatureImportances();
    if (total.empty()) total.assign(imp.size(), 0.0);
    for (size_t i = 0; i < imp.size(); ++i) total[i] += imp[i];
  }
  double sum = 0.0;
  for (double v : total) sum += v;
  if (sum > 0.0) {
    for (double& v : total) v /= sum;
  }
  return total;
}

Result<RandomForestRegressor::PredictionInterval>
RandomForestRegressor::PredictWithSpread(
    std::span<const double> features) const {
  if (trees_.empty()) {
    return Status::FailedPrecondition("RF model is not fitted");
  }
  double sum = 0.0, sum_sq = 0.0;
  for (const DecisionTreeRegressor& tree : trees_) {
    NM_ASSIGN_OR_RETURN(double pred, tree.Predict(features));
    sum += pred;
    sum_sq += pred * pred;
  }
  const double n = static_cast<double>(trees_.size());
  PredictionInterval interval;
  interval.mean = sum / n;
  const double variance =
      std::max(0.0, sum_sq / n - interval.mean * interval.mean);
  interval.stddev = std::sqrt(variance);
  return interval;
}

Result<double> RandomForestRegressor::Predict(
    std::span<const double> features) const {
  if (trees_.empty()) {
    return Status::FailedPrecondition("RF model is not fitted");
  }
  double sum = 0.0;
  for (const DecisionTreeRegressor& tree : trees_) {
    NM_ASSIGN_OR_RETURN(double pred, tree.Predict(features));
    sum += pred;
  }
  return sum / static_cast<double>(trees_.size());
}

Result<std::vector<double>> RandomForestRegressor::PredictBatchImpl(
    const Matrix& x) const {
  std::vector<double> out;
  out.reserve(x.rows());
  if (x.rows() == 0) return out;
  if (trees_.empty()) {
    return Status::FailedPrecondition("RF model is not fitted");
  }
  // Same accumulation order as Predict (trees in order, one sum per row),
  // so batch and per-row results are bit-identical.
  for (size_t r = 0; r < x.rows(); ++r) {
    double sum = 0.0;
    for (const DecisionTreeRegressor& tree : trees_) {
      NM_ASSIGN_OR_RETURN(double pred, tree.Predict(x.Row(r)));
      sum += pred;
    }
    out.push_back(sum / static_cast<double>(trees_.size()));
  }
  return out;
}


void RandomForestRegressor::SaveBody(ModelWriter& out) const {
  // Resumable state: the hyper-parameters and seed ContinueFit needs to
  // extend the forest after a round trip (num_estimators stays out — the
  // resume budget is the caller's extra_rounds). Readers predate this
  // line, so LoadBody treats it as optional.
  out.Line("resume", options_.max_depth, options_.min_samples_split,
           options_.min_samples_leaf, options_.max_features,
           options_.bootstrap_fraction, options_.seed, options_.max_bins);
  out.Line("trees", trees_.size());
  for (const DecisionTreeRegressor& tree : trees_) {
    // A fitted forest holds only fitted trees, which always save.
    NM_CHECK(tree.Save(out).ok());
  }
  out.Line("end");
}

Result<RandomForestRegressor> RandomForestRegressor::LoadBody(
    ModelReader& in) {
  size_t count = 0;
  RandomForestRegressor model;
  std::string_view token = in.Token();
  if (token == "resume") {
    // Optional resumable-state line (absent in pre-warm-start files, whose
    // models load fine but resume with default hyper-parameters).
    Options& o = model.options_;
    if (!in.Read(o.max_depth, o.min_samples_split, o.min_samples_leaf,
                 o.max_features, o.bootstrap_fraction, o.seed, o.max_bins)) {
      return Status::DataError("RF: truncated 'resume' line");
    }
    if (o.min_samples_split < 1 || o.min_samples_leaf < 1 ||
        o.bootstrap_fraction <= 0.0 || o.bootstrap_fraction > 1.0 ||
        o.max_bins < 2 || o.max_bins > 65535) {
      return Status::DataError("RF: 'resume' values out of range");
    }
    token = in.Token();
  }
  if (token != "trees" || !in.Read(count)) {
    return Status::DataError("RF: expected 'trees <k>'");
  }
  // An embedded tree is at least 13 tokens: its header, 'features <p>',
  // 'nodes <n>', one node line and 'end'.
  if (count == 0 || !in.CanHold(count, 13)) {
    return Status::DataError("RF: implausible tree count");
  }
  model.trees_.reserve(count);
  for (size_t t = 0; t < count; ++t) {
    Result<std::string> name = ReadModelHeader(in);
    if (!name.ok() || name.ValueOrDie() != "Tree") {
      return Status::DataError("RF: expected embedded tree header");
    }
    NM_ASSIGN_OR_RETURN(DecisionTreeRegressor tree,
                        DecisionTreeRegressor::LoadBody(in));
    model.trees_.push_back(std::move(tree));
  }
  if (!in.Expect("end")) {
    return Status::DataError("RF: missing end marker");
  }
  return model;
}

}  // namespace ml
}  // namespace nextmaint
