#include "ml/model_selection.h"

#include <limits>
#include <numeric>

#include "common/macros.h"
#include "ml/metrics.h"

namespace nextmaint {
namespace ml {

Result<std::vector<FoldSplit>> KFoldSplits(size_t n, size_t k, bool shuffle,
                                           uint64_t seed) {
  if (k < 2) {
    return Status::InvalidArgument("k-fold requires k >= 2");
  }
  if (k > n) {
    return Status::InvalidArgument("k-fold requires k <= n (k=" +
                                   std::to_string(k) + ", n=" +
                                   std::to_string(n) + ")");
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (shuffle) {
    Rng rng(seed);
    rng.Shuffle(&order);
  }

  // First (n % k) folds get one extra element, matching sklearn.
  std::vector<std::vector<size_t>> folds(k);
  const size_t base = n / k;
  const size_t extra = n % k;
  size_t cursor = 0;
  for (size_t f = 0; f < k; ++f) {
    const size_t size = base + (f < extra ? 1 : 0);
    folds[f].assign(order.begin() + static_cast<ptrdiff_t>(cursor),
                    order.begin() + static_cast<ptrdiff_t>(cursor + size));
    cursor += size;
  }

  std::vector<FoldSplit> splits(k);
  for (size_t f = 0; f < k; ++f) {
    splits[f].test_indices = folds[f];
    for (size_t g = 0; g < k; ++g) {
      if (g == f) continue;
      splits[f].train_indices.insert(splits[f].train_indices.end(),
                                     folds[g].begin(), folds[g].end());
    }
  }
  return splits;
}

ParamGrid& ParamGrid::Add(const std::string& name,
                          std::vector<double> values) {
  NM_CHECK_MSG(!values.empty(), "empty parameter value list");
  dimensions_[name] = std::move(values);
  return *this;
}

std::vector<ParamMap> ParamGrid::Expand() const {
  std::vector<ParamMap> combinations = {ParamMap{}};
  for (const auto& [name, values] : dimensions_) {
    std::vector<ParamMap> next;
    next.reserve(combinations.size() * values.size());
    for (const ParamMap& partial : combinations) {
      for (double value : values) {
        ParamMap extended = partial;
        extended[name] = value;
        next.push_back(std::move(extended));
      }
    }
    combinations = std::move(next);
  }
  return combinations;
}

Result<GridSearchResult> GridSearchCV(const RegressorFactory& factory,
                                      const ParamGrid& grid,
                                      const Dataset& train,
                                      const GridSearchOptions& options,
                                      const ScoreFunction& score) {
  if (!factory) {
    return Status::InvalidArgument("null regressor factory");
  }
  if (train.empty()) {
    return Status::InvalidArgument("grid search on empty dataset");
  }
  const ScoreFunction scorer =
      score ? score : ScoreFunction(&MeanAbsoluteError);

  NM_ASSIGN_OR_RETURN(
      std::vector<FoldSplit> splits,
      KFoldSplits(train.num_rows(), options.folds, options.shuffle,
                  options.seed));

  GridSearchResult result;
  result.best_score = std::numeric_limits<double>::infinity();

  for (const ParamMap& params : grid.Expand()) {
    GridPointResult point;
    point.params = params;
    double total = 0.0;
    for (const FoldSplit& split : splits) {
      const Dataset fold_train = train.SelectRows(split.train_indices);
      const Dataset fold_test = train.SelectRows(split.test_indices);
      std::unique_ptr<Regressor> model = factory(params);
      if (model == nullptr) {
        return Status::InvalidArgument("factory returned null model");
      }
      NM_RETURN_NOT_OK(model->Fit(fold_train).WithContext("grid-search fold"));
      NM_ASSIGN_OR_RETURN(std::vector<double> predictions,
                          model->PredictBatch(fold_test.x()));
      NM_ASSIGN_OR_RETURN(double fold_score,
                          scorer(fold_test.y(), predictions));
      point.fold_scores.push_back(fold_score);
      total += fold_score;
    }
    point.mean_score = total / static_cast<double>(splits.size());
    if (point.mean_score < result.best_score) {
      result.best_score = point.mean_score;
      result.best_params = point.params;
    }
    result.all_points.push_back(std::move(point));
  }
  return result;
}

}  // namespace ml
}  // namespace nextmaint
