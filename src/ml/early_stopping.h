#ifndef NEXTMAINT_ML_EARLY_STOPPING_H_
#define NEXTMAINT_ML_EARLY_STOPPING_H_

#include <limits>

/// \file early_stopping.h
/// Validation-metric plateau detection for the boosting loop's tail
/// holdout (ml/hist_gradient_boosting.h), following the callback shape of
/// LightGBM's early-stopping callback: one observation per round, stop
/// once the best metric has not improved by more than `min_delta` for
/// `patience` consecutive rounds. Lower metric is better.

namespace nextmaint {
namespace ml {

/// Plateau detector over a lower-is-better metric stream.
///
/// Deterministic and allocation-free: the consumer feeds one metric value
/// per round and stops when Update returns true. The detector never
/// un-stops; call Reset to reuse it for a fresh stream.
class EarlyStopping {
 public:
  struct Options {
    /// Consecutive non-improving rounds tolerated before stopping.
    int patience = 10;
    /// Minimum decrease of the best metric that counts as an improvement
    /// (guards against FP noise keeping a plateaued run alive forever).
    double min_delta = 1e-12;
  };

  EarlyStopping() = default;
  explicit EarlyStopping(Options options) : options_(options) {}

  /// Records one round's metric. Returns true when the stream has
  /// plateaued: `patience` consecutive rounds without an improvement
  /// greater than `min_delta` over the best metric seen so far.
  bool Update(double metric) {
    if (metric < best_metric_ - options_.min_delta) {
      best_metric_ = metric;
      best_round_ = round_;
      stale_rounds_ = 0;
    } else if (++stale_rounds_ >= options_.patience) {
      stopped_ = true;
    }
    ++round_;
    return stopped_;
  }

  /// True once Update has reported a plateau.
  bool stopped() const { return stopped_; }
  /// Best (lowest) metric observed; +inf before the first Update.
  double best_metric() const { return best_metric_; }
  /// 0-based round of the best metric; -1 before the first improvement.
  int best_round() const { return best_round_; }
  /// Rounds observed so far.
  int rounds_observed() const { return round_; }

  /// Forgets everything; the next Update starts a fresh stream.
  void Reset() {
    best_metric_ = std::numeric_limits<double>::infinity();
    best_round_ = -1;
    stale_rounds_ = 0;
    round_ = 0;
    stopped_ = false;
  }

 private:
  Options options_;
  double best_metric_ = std::numeric_limits<double>::infinity();
  int best_round_ = -1;
  int stale_rounds_ = 0;
  int round_ = 0;
  bool stopped_ = false;
};

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_EARLY_STOPPING_H_
