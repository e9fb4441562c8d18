#ifndef NEXTMAINT_ML_LINEAR_SVR_H_
#define NEXTMAINT_ML_LINEAR_SVR_H_

#include <memory>
#include <vector>

#include "ml/regressor.h"

/// \file linear_svr.h
/// Linear support vector regression — the paper's "LSVR" model.
///
/// Solves the L2-regularized epsilon-insensitive (L1-loss) SVR problem
///
///   min_w  1/2 ||w||^2 + C * sum_i max(0, |y_i - w.x_i| - epsilon)
///
/// in the dual via coordinate descent (the liblinear algorithm of Ho & Lin,
/// "Large-scale Linear Support Vector Regression", JMLR 2012): one dual
/// variable beta_i in [-C, C] per example, closed-form single-coordinate
/// updates, primal weights maintained incrementally as w = sum_i beta_i x_i.

namespace nextmaint {
namespace ml {

/// Epsilon-insensitive linear SVR trained by dual coordinate descent.
class LinearSvr final : public Regressor {
 public:
  struct Options {
    /// Penalty parameter; larger C fits the training data more tightly.
    double c = 1.0;
    /// Half-width of the insensitive tube, in target units (days here).
    double epsilon = 0.1;
    /// Maximum passes over the training set.
    int max_iterations = 1000;
    /// Stop when the largest dual-variable change in a pass drops below
    /// this threshold.
    double tolerance = 1e-4;
    /// Standardize features internally (recommended: SVR is scale
    /// sensitive). The fitted weights are mapped back to input scale.
    bool standardize = true;
    /// Seed for the coordinate-order shuffling.
    uint64_t seed = 7;
  };

  LinearSvr() = default;
  explicit LinearSvr(Options options) : options_(options) {}

  /// Recognised ParamMap keys: "C", "epsilon".
  static Options OptionsFromParams(const ParamMap& params);

  [[nodiscard]] Result<double> Predict(std::span<const double> features) const override;
  std::string name() const override { return "LSVR"; }
  bool is_fitted() const override { return fitted_; }
  std::unique_ptr<Regressor> Clone() const override {
    return std::make_unique<LinearSvr>(*this);
  }
  /// Reads a model body serialized by Save (header already consumed).
  [[nodiscard]] static Result<LinearSvr> LoadBody(ModelReader& in);

  /// Weights in input-feature scale.
  const std::vector<double>& weights() const { return weights_; }
  double intercept() const { return intercept_; }
  /// Number of coordinate-descent passes performed by the last Fit.
  int iterations_run() const { return iterations_run_; }
  const Options& options() const { return options_; }

 protected:
  [[nodiscard]] Status FitImpl(const Dataset& train) override;
  void SaveBody(ModelWriter& out) const override;

 private:
  Options options_;
  std::vector<double> weights_;
  double intercept_ = 0.0;
  int iterations_run_ = 0;
  bool fitted_ = false;
};

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_LINEAR_SVR_H_
