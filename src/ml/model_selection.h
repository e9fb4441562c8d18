#ifndef NEXTMAINT_ML_MODEL_SELECTION_H_
#define NEXTMAINT_ML_MODEL_SELECTION_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "ml/dataset.h"
#include "ml/regressor.h"

/// \file model_selection.h
/// K-fold cross validation and exhaustive grid search, mirroring the paper's
/// tuning protocol: "To tune the algorithm parameter settings we have
/// performed, separately for each vehicle, a grid search using a 5-fold
/// cross validation."

namespace nextmaint {
namespace ml {

/// One train/validation index split.
struct FoldSplit {
  std::vector<size_t> train_indices;
  std::vector<size_t> test_indices;
};

/// Partitions [0, n) into k folds. When `shuffle` is true the assignment is
/// randomized with `seed`; otherwise folds are contiguous blocks (preserving
/// time order, which avoids leakage for autocorrelated series).
/// Fails when k < 2 or k > n.
[[nodiscard]] Result<std::vector<FoldSplit>> KFoldSplits(size_t n, size_t k, bool shuffle,
                                           uint64_t seed = 0);

/// Cartesian hyper-parameter grid: each key maps to its candidate values.
class ParamGrid {
 public:
  /// Adds a dimension. Values must be non-empty.
  ParamGrid& Add(const std::string& name, std::vector<double> values);

  /// All combinations in lexicographic key order. An empty grid expands to
  /// one empty ParamMap (so that grid search degenerates to plain CV).
  std::vector<ParamMap> Expand() const;

  size_t num_dimensions() const { return dimensions_.size(); }

 private:
  std::map<std::string, std::vector<double>> dimensions_;
};

/// Score function: maps (truth, predictions) to a loss. Lower is better.
using ScoreFunction = std::function<Result<double>(
    const std::vector<double>&, const std::vector<double>&)>;

/// Result of evaluating one hyper-parameter combination.
struct GridPointResult {
  ParamMap params;
  double mean_score = 0.0;
  std::vector<double> fold_scores;
};

/// Outcome of a full grid search.
struct GridSearchResult {
  ParamMap best_params;
  double best_score = 0.0;
  /// Every evaluated point, in grid order.
  std::vector<GridPointResult> all_points;
};

/// Options controlling GridSearchCV.
struct GridSearchOptions {
  size_t folds = 5;
  /// Shuffle fold assignment; the paper's protocol shuffles because the
  /// time-shift re-sampling already decorrelates records.
  bool shuffle = true;
  uint64_t seed = 1234;
};

/// Exhaustively evaluates `grid` with k-fold CV on `train`, scoring with
/// `score` (defaults to MAE when null). Returns the argmin combination.
/// Individual fold failures (e.g. a degenerate fold) fail the whole search:
/// silent skipping would bias the selection.
[[nodiscard]] Result<GridSearchResult> GridSearchCV(const RegressorFactory& factory,
                                      const ParamGrid& grid,
                                      const Dataset& train,
                                      const GridSearchOptions& options = {},
                                      const ScoreFunction& score = nullptr);

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_MODEL_SELECTION_H_
