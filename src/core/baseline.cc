#include "core/baseline.h"

#include <cmath>

#include "common/macros.h"
#include "ml/serialization.h"

namespace nextmaint {
namespace core {

BaselinePredictor::BaselinePredictor(double avg_utilization_s, double l_scale)
    : avg_utilization_s_(avg_utilization_s), l_scale_(l_scale) {
  NM_CHECK_MSG(avg_utilization_s_ > 0.0, "AVG_v must be positive");
  NM_CHECK_MSG(l_scale_ > 0.0, "l_scale must be positive");
}

Status BaselinePredictor::FitImpl(const ml::Dataset& train) {
  (void)train;  // BL is not trained (Section 5.1).
  return Status::OK();
}

Result<double> BaselinePredictor::Predict(
    std::span<const double> features) const {
  if (features.empty()) {
    return Status::InvalidArgument("BL requires the L feature in column 0");
  }
  const double l_seconds = features[0] / l_scale_;
  return l_seconds / avg_utilization_s_;
}

Result<double> AverageUtilization(const data::DailySeries& u,
                                  size_t train_days) {
  if (u.empty()) {
    return Status::InvalidArgument("empty utilization series");
  }
  const data::DailySeries window =
      train_days == 0 ? u : u.Slice(0, train_days);
  if (window.empty()) {
    return Status::InvalidArgument("train_days selects no data");
  }
  const double avg = window.MeanValue();
  if (avg <= 0.0) {
    return Status::NumericError(
        "average utilization is zero; BL undefined for an unused vehicle");
  }
  return avg;
}


void BaselinePredictor::SaveBody(ml::ModelWriter& out) const {
  out.Line("avg", avg_utilization_s_);
  out.Line("lscale", l_scale_);
  out.Line("end");
}

Result<BaselinePredictor> BaselinePredictor::LoadBody(ml::ModelReader& in) {
  double avg = 0.0, l_scale = 0.0;
  if (!in.Expect("avg") || !in.Read(avg)) {
    return Status::DataError("BL: expected 'avg <a>'");
  }
  if (!in.Expect("lscale") || !in.Read(l_scale)) {
    return Status::DataError("BL: expected 'lscale <s>'");
  }
  if (!in.Expect("end")) {
    return Status::DataError("BL: missing end marker");
  }
  if (avg <= 0.0 || l_scale <= 0.0) {
    return Status::DataError("BL: non-positive parameters");
  }
  return BaselinePredictor(avg, l_scale);
}

Result<std::unique_ptr<ml::Regressor>> LoadAnyModel(ml::ModelReader& in) {
  NM_ASSIGN_OR_RETURN(std::string name, ml::ReadModelHeader(in));
  if (name == "BL") {
    NM_ASSIGN_OR_RETURN(BaselinePredictor model,
                        BaselinePredictor::LoadBody(in));
    return std::unique_ptr<ml::Regressor>(
        std::make_unique<BaselinePredictor>(std::move(model)));
  }
  return ml::LoadRegressorBody(name, in);
}

Result<std::unique_ptr<ml::Regressor>> LoadAnyModel(std::istream& in) {
  const std::string text = ml::ReadModelText(in);
  ml::ModelReader reader(text);
  return LoadAnyModel(reader);
}

}  // namespace core
}  // namespace nextmaint
