#include "ml/decision_tree.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"
#include "ml/histogram.h"
#include "ml/serialization.h"

namespace nextmaint {
namespace ml {

DecisionTreeRegressor::Options DecisionTreeRegressor::OptionsFromParams(
    const ParamMap& params) {
  Options options;
  if (auto it = params.find("max_depth"); it != params.end()) {
    options.max_depth = static_cast<int>(it->second);
  }
  if (auto it = params.find("min_samples_leaf"); it != params.end()) {
    options.min_samples_leaf = static_cast<int>(it->second);
  }
  if (auto it = params.find("max_bins"); it != params.end()) {
    options.max_bins = static_cast<int>(it->second);
  }
  return options;
}

Status DecisionTreeRegressor::FitImpl(const Dataset& train) {
  std::vector<size_t> indices(train.num_rows());
  std::iota(indices.begin(), indices.end(), 0);
  return FitIndices(train, indices);
}

Status DecisionTreeRegressor::FitIndices(const Dataset& train,
                                         const std::vector<size_t>& indices) {
  nodes_.clear();
  if (train.empty() || indices.empty()) {
    return Status::InvalidArgument("cannot fit a tree on an empty dataset");
  }
  if (options_.max_bins < 2 || options_.max_bins > 65535) {
    return Status::InvalidArgument("tree requires 2 <= max_bins <= 65535");
  }
  // The mapper always covers the full training matrix (not the bootstrap
  // subset), so every tree of a forest — and both tree cores — see the same
  // bin boundaries.
  if (options_.core == TreeCore::kBinned && options_.binning_cache) {
    const std::shared_ptr<const PreBinned> cached =
        options_.binning_cache->GetOrCompute(train.x(), options_.max_bins);
    return FitBinned(train, cached->mapper, &cached->binned, indices);
  }
  BinMapper mapper;
  mapper.Compute(train.x(), options_.max_bins);
  if (options_.core == TreeCore::kBinned) {
    BinnedDataset binned;
    binned.Build(train.x(), mapper);
    return FitBinned(train, mapper, &binned, indices);
  }
  return FitBinned(train, mapper, nullptr, indices);
}

Status DecisionTreeRegressor::FitBinned(const Dataset& train,
                                        const BinMapper& mapper,
                                        const BinnedDataset* binned,
                                        const std::vector<size_t>& indices) {
  nodes_.clear();
  if (train.empty() || indices.empty()) {
    return Status::InvalidArgument("cannot fit a tree on an empty dataset");
  }
  if (!train.x().AllFinite()) {
    return Status::InvalidArgument("tree features contain non-finite values");
  }
  if (options_.min_samples_leaf < 1) {
    return Status::InvalidArgument("min_samples_leaf must be >= 1");
  }
  num_features_ = train.num_features();

  const HistogramLayout layout(mapper);
  GrowSpec spec;
  spec.depth_limited = options_.max_depth >= 0;
  spec.max_depth = options_.max_depth;
  // size_t casts preserve the historic semantics: a negative setting wraps
  // to a huge threshold (every node becomes a leaf immediately).
  spec.min_samples_split = static_cast<size_t>(options_.min_samples_split);
  spec.min_samples_leaf = static_cast<size_t>(options_.min_samples_leaf);
  if (options_.max_features > 0) {
    spec.max_features = static_cast<size_t>(options_.max_features);
  }
  spec.seed = options_.seed;
  // A single tree stays serial: the forest already runs one tree per lane.
  spec.num_threads = 1;

  DataPartition partition;
  partition.Reset(indices);
  const std::vector<GrowNode> grown =
      binned != nullptr
          ? GrowHistTree(*binned, mapper, layout, train.y(), &partition,
                         spec)
          : GrowHistTree(OnTheFlyBins{&train.x(), &mapper}, mapper, layout,
                         train.y(), &partition, spec);
  nodes_.reserve(grown.size());
  for (const GrowNode& node : grown) {
    nodes_.push_back(Node{node.left, node.right, node.feature,
                          node.threshold, node.value, node.gain});
  }
  return Status::OK();
}

Result<double> DecisionTreeRegressor::Predict(
    std::span<const double> features) const {
  if (nodes_.empty()) {
    return Status::FailedPrecondition("tree is not fitted");
  }
  if (features.size() != num_features_) {
    return Status::InvalidArgument(
        "feature count mismatch: got " + std::to_string(features.size()) +
        ", trained with " + std::to_string(num_features_));
  }
  return PredictUnchecked(features);
}

double DecisionTreeRegressor::PredictUnchecked(
    std::span<const double> features) const {
  const Node* node = &nodes_[0];
  while (!node->is_leaf()) {
    node = features[static_cast<size_t>(node->feature)] <= node->threshold
               ? &nodes_[static_cast<size_t>(node->left)]
               : &nodes_[static_cast<size_t>(node->right)];
  }
  return node->value;
}

std::vector<double> DecisionTreeRegressor::FeatureImportances() const {
  std::vector<double> importances(num_features_, 0.0);
  double total = 0.0;
  for (const Node& node : nodes_) {
    if (node.is_leaf()) continue;
    importances[static_cast<size_t>(node.feature)] += node.gain;
    total += node.gain;
  }
  if (total > 0.0) {
    for (double& v : importances) v /= total;
  }
  return importances;
}

size_t DecisionTreeRegressor::leaf_count() const {
  size_t count = 0;
  for (const Node& node : nodes_) {
    if (node.is_leaf()) ++count;
  }
  return count;
}

int DecisionTreeRegressor::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the implicit tree structure.
  std::vector<std::pair<int32_t, int>> stack = {{0, 0}};
  int max_depth = 0;
  while (!stack.empty()) {
    auto [index, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const Node& node = nodes_[static_cast<size_t>(index)];
    if (!node.is_leaf()) {
      stack.push_back({node.left, d + 1});
      stack.push_back({node.right, d + 1});
    }
  }
  return max_depth;
}


void DecisionTreeRegressor::SaveBody(ModelWriter& out) const {
  out.Line("features", num_features_);
  out.Line("nodes", nodes_.size());
  for (const Node& node : nodes_) {
    out.Line(node.left, node.right, node.feature, node.threshold, node.value);
  }
  out.Line("end");
}

Result<DecisionTreeRegressor> DecisionTreeRegressor::LoadBody(
    ModelReader& in) {
  DecisionTreeRegressor model;
  size_t node_count = 0;
  if (!in.Expect("features") || !in.Read(model.num_features_)) {
    return Status::DataError("Tree: expected 'features <p>'");
  }
  if (!in.Expect("nodes") || !in.Read(node_count)) {
    return Status::DataError("Tree: expected 'nodes <n>'");
  }
  // Five tokens per node line: a count the remaining text cannot hold is
  // corrupt, and is rejected before it sizes the node array.
  if (node_count == 0 || !in.CanHold(node_count, 5)) {
    return Status::DataError("Tree: implausible node count");
  }
  model.nodes_.resize(node_count);
  for (Node& node : model.nodes_) {
    if (!in.Read(node.left, node.right, node.feature, node.threshold,
                 node.value)) {
      return Status::DataError("Tree: truncated node list");
    }
  }
  // Validate child indices so a corrupt file cannot cause out-of-range
  // or endless traversal.
  for (size_t i = 0; i < node_count; ++i) {
    if (!ValidTreeNode(model.nodes_[i], i, node_count,
                       model.num_features_)) {
      return Status::DataError("Tree: node indices out of range");
    }
  }
  if (!in.Expect("end")) {
    return Status::DataError("Tree: missing end marker");
  }
  return model;
}

}  // namespace ml
}  // namespace nextmaint
