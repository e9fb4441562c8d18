#ifndef NEXTMAINT_CORE_BASELINE_H_
#define NEXTMAINT_CORE_BASELINE_H_

#include <istream>
#include <memory>
#include <string>

#include "common/status.h"
#include "data/time_series.h"
#include "ml/regressor.h"

/// \file baseline.h
/// The paper's BL baseline (Section 4.1.1): assume utilization stays equal
/// to its historical average and divide the remaining allowed usage by it:
///
///   AVG_v = mean of U_v(t) over the training period            (Eq. 5)
///   D_BL(t) = L_v(t) / AVG_v                                   (Eq. 6)
///
/// BL is exposed through the ml::Regressor interface so the evaluation
/// harness treats all five algorithms uniformly. It reads L(t) from feature
/// column 0 (the dataset builder's layout) and ignores all other columns;
/// Fit is a no-op because AVG_v is supplied at construction ("Since BL is
/// not trained, its results do not change").

namespace nextmaint {
namespace core {

/// BL predictor with a fixed average utilization.
class BaselinePredictor final : public ml::Regressor {
 public:
  /// `avg_utilization_s`: AVG_v in seconds/day (must be positive).
  /// `l_scale`: the factor the dataset builder applied to the L column
  /// (1/T_v when features are normalized, 1 otherwise); predictions divide
  /// it back out.
  BaselinePredictor(double avg_utilization_s, double l_scale = 1.0);

  [[nodiscard]] Result<double> Predict(std::span<const double> features) const override;
  std::string name() const override { return "BL"; }
  bool is_fitted() const override { return true; }
  std::unique_ptr<ml::Regressor> Clone() const override {
    return std::make_unique<BaselinePredictor>(*this);
  }
  /// Reads a model body serialized by Save (header already consumed).
  [[nodiscard]] static Result<BaselinePredictor> LoadBody(ml::ModelReader& in);

  double avg_utilization_s() const { return avg_utilization_s_; }

 protected:
  [[nodiscard]] Status FitImpl(const ml::Dataset& train) override;
  void SaveBody(ml::ModelWriter& out) const override;

 private:
  double avg_utilization_s_;
  double l_scale_;
};

/// Loads any serialized model: the problem-specific BL predictor or one of
/// the generic ml zoo (see ml/serialization.h), leaving `in` just past it.
[[nodiscard]] Result<std::unique_ptr<ml::Regressor>> LoadAnyModel(
    ml::ModelReader& in);

/// Stream adapter: consumes exactly one model from `in` (see
/// ml::ReadModelText) and loads it.
[[nodiscard]] Result<std::unique_ptr<ml::Regressor>> LoadAnyModel(
    std::istream& in);

/// AVG_v over the first `train_days` days of a utilization series (Eq. 5);
/// when train_days is 0 the whole series is used. Fails when the average is
/// zero (a never-used vehicle admits no BL prediction).
[[nodiscard]] Result<double> AverageUtilization(const data::DailySeries& u,
                                  size_t train_days = 0);

}  // namespace core
}  // namespace nextmaint

#endif  // NEXTMAINT_CORE_BASELINE_H_
