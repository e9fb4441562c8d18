#ifndef NEXTMAINT_ML_LINEAR_REGRESSION_H_
#define NEXTMAINT_ML_LINEAR_REGRESSION_H_

#include <memory>
#include <vector>

#include "ml/regressor.h"

/// \file linear_regression.h
/// Ordinary least squares with an optional L2 (ridge) penalty — the paper's
/// "LR" model: "the simplest linear model. It learns a linear function
/// minimizing the residual sum of squares".

namespace nextmaint {
namespace ml {

/// OLS / ridge linear regression.
class LinearRegression final : public Regressor {
 public:
  struct Options {
    /// L2 penalty on the weights (the intercept is never penalized).
    /// 0 gives plain OLS.
    double l2 = 0.0;
    /// When true a bias/intercept term is fitted.
    bool fit_intercept = true;
  };

  LinearRegression() = default;
  explicit LinearRegression(Options options) : options_(options) {}

  /// Builds options from a ParamMap; recognised keys: "l2".
  static Options OptionsFromParams(const ParamMap& params);

  [[nodiscard]] Result<double> Predict(std::span<const double> features) const override;
  std::string name() const override { return "LR"; }
  bool is_fitted() const override { return fitted_; }
  std::unique_ptr<Regressor> Clone() const override {
    return std::make_unique<LinearRegression>(*this);
  }
  /// Reads a model body serialized by Save (header already consumed).
  [[nodiscard]] static Result<LinearRegression> LoadBody(ModelReader& in);

  /// Fitted weights, one per feature (excluding the intercept).
  const std::vector<double>& weights() const { return weights_; }
  double intercept() const { return intercept_; }
  const Options& options() const { return options_; }

 protected:
  [[nodiscard]] Status FitImpl(const Dataset& train) override;
  void SaveBody(ModelWriter& out) const override;

 private:
  Options options_;
  std::vector<double> weights_;
  double intercept_ = 0.0;
  bool fitted_ = false;
};

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_LINEAR_REGRESSION_H_
