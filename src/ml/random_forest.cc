#include "ml/random_forest.h"

#include <algorithm>

#include "common/macros.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "ml/histogram.h"
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
  const size_t count = static_cast<size_t>(options_.num_estimators);
  const size_t n = train.num_rows();
  int max_features = options_.max_features;
  if (max_features <= 0) {
    // All features, matching sklearn's RandomForestRegressor default (the
    // implementation the paper's experiments used); bagging alone
    // decorrelates the trees.
    max_features = static_cast<int>(train.num_features());
  }

  // Derive every tree's bootstrap sample and seed up front, consuming the
  // stream in tree order; the per-tree work below is a pure function of
  // (sample, seed), so models are bit-identical at any thread count.
  Rng rng(options_.seed);
  const size_t bootstrap_size = std::max<size_t>(
      1, static_cast<size_t>(options_.bootstrap_fraction *
                             static_cast<double>(n)));
  std::vector<std::vector<size_t>> samples(count);
  std::vector<uint64_t> seeds(count);
  for (size_t t = 0; t < count; ++t) {
    samples[t].resize(bootstrap_size);
    for (size_t i = 0; i < bootstrap_size; ++i) {
      samples[t][i] = static_cast<size_t>(rng.UniformInt(n));
    }
    seeds[t] = rng.NextUint64();
  }

  // One binning over the full training matrix, shared by every tree.
  const TreeBinning binning(train.x(), options_.max_bins, options_.core,
                            options_.binning_cache, options_.num_threads);
  trees_.resize(count);
  const Status status = ParallelFor(
      0, count, /*grain=*/1,
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
          NM_RETURN_NOT_OK(tree.FitBinned(train, binning, samples[t])
                               .WithContext("tree " + std::to_string(t)));
          trees_[t] = std::move(tree);
        }
        return Status::OK();
      },
      options_.num_threads);
  if (!status.ok()) {
    // Never leave half-fitted placeholder trees behind.
    trees_.clear();
    return status;
  }
  telemetry::Count("ml.rf.trees_fitted", trees_.size());
  return Status::OK();
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

void RandomForestRegressor::SaveBody(ModelWriter& out) const {
  // The fitted hyper-parameters and seed (num_estimators is the trees
  // line). Part of the model format: LoadBody validates it and restores
  // options(), and older files without it still load.
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
    // Optional hyper-parameter line (absent in older files, whose models
    // load with default options()).
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
