#include "ml/linear_regression.h"

#include <cmath>

#include "common/macros.h"
#include "ml/serialization.h"

namespace nextmaint {
namespace ml {

LinearRegression::Options LinearRegression::OptionsFromParams(
    const ParamMap& params) {
  Options options;
  if (auto it = params.find("l2"); it != params.end()) options.l2 = it->second;
  return options;
}

Status LinearRegression::FitImpl(const Dataset& train) {
  fitted_ = false;
  if (train.empty()) {
    return Status::InvalidArgument("cannot fit LR on an empty dataset");
  }
  if (!train.x().AllFinite()) {
    return Status::InvalidArgument("LR training features contain non-finite");
  }
  const size_t n = train.num_rows();
  const size_t p = train.num_features();

  // Center the targets and (when fitting an intercept) the features so the
  // intercept stays unpenalized under ridge.
  std::vector<double> feature_means(p, 0.0);
  double target_mean = 0.0;
  if (options_.fit_intercept) {
    for (size_t r = 0; r < n; ++r) {
      std::span<const double> row = train.x().Row(r);
      for (size_t c = 0; c < p; ++c) feature_means[c] += row[c];
      target_mean += train.y()[r];
    }
    for (double& m : feature_means) m /= static_cast<double>(n);
    target_mean /= static_cast<double>(n);
  }

  // One pass accumulates the centered Gram matrix and the centered X^T y,
  // row by row, without materializing the centered matrix. Each upper
  // entry sees the additions of Matrix::Gram and
  // Matrix::TransposeMultiplyVector in the same order, zero skips included,
  // so the solve matches SolveLeastSquares on the explicitly centered data
  // bit for bit. Whole rows of `gram` are accumulated, because full-width
  // inner loops run faster than the triangle's short ones; the lower
  // triangle is then overwritten by the mirror of the upper one.
  Matrix gram(p, p);
  std::vector<double> xty(p, 0.0);
  std::vector<double> centered(p);
  for (size_t r = 0; r < n; ++r) {
    std::span<const double> row = train.x().Row(r);
    for (size_t c = 0; c < p; ++c) centered[c] = row[c] - feature_means[c];
    for (size_t i = 0; i < p; ++i) {
      const double xi = centered[i];
      if (xi == 0.0) continue;
      std::span<double> gram_row = gram.MutableRow(i);
      for (size_t j = 0; j < p; ++j) gram_row[j] += xi * centered[j];
    }
    const double yr = train.y()[r] - target_mean;
    if (yr == 0.0) continue;
    for (size_t c = 0; c < p; ++c) xty[c] += yr * centered[c];
  }
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < i; ++j) gram(i, j) = gram(j, i);
  }

  NM_ASSIGN_OR_RETURN(
      weights_,
      SolveNormalEquations(std::move(gram),
                           std::span<const double>(xty.data(), xty.size()),
                           options_.l2));

  intercept_ = target_mean;
  for (size_t c = 0; c < p; ++c) intercept_ -= weights_[c] * feature_means[c];
  if (!options_.fit_intercept) intercept_ = 0.0;

  for (double w : weights_) {
    if (!std::isfinite(w)) {
      return Status::NumericError("LR produced non-finite weights");
    }
  }
  fitted_ = true;
  return Status::OK();
}

Result<double> LinearRegression::Predict(
    std::span<const double> features) const {
  if (!fitted_) {
    return Status::FailedPrecondition("LR model is not fitted");
  }
  if (features.size() != weights_.size()) {
    return Status::InvalidArgument(
        "feature count mismatch: got " + std::to_string(features.size()) +
        ", trained with " + std::to_string(weights_.size()));
  }
  return intercept_ + Dot(features, weights_);
}


void LinearRegression::SaveBody(ModelWriter& out) const {
  out.Put("weights ").Put(weights_.size());
  for (double w : weights_) out.Put(' ').Put(w);
  out.Put('\n');
  out.Line("intercept", intercept_);
  out.Line("end");
}

Result<LinearRegression> LinearRegression::LoadBody(ModelReader& in) {
  size_t count = 0;
  if (!in.Expect("weights") || !in.Read(count)) {
    return Status::DataError("LR: expected 'weights <n>'");
  }
  if (!in.CanHold(count, 1)) {
    return Status::DataError("LR: implausible weight count");
  }
  LinearRegression model;
  model.weights_.resize(count);
  for (double& w : model.weights_) {
    if (!in.Read(w)) return Status::DataError("LR: truncated weights");
  }
  if (!in.Expect("intercept") || !in.Read(model.intercept_)) {
    return Status::DataError("LR: expected 'intercept <b>'");
  }
  if (!in.Expect("end")) {
    return Status::DataError("LR: missing end marker");
  }
  model.fitted_ = true;
  return model;
}

}  // namespace ml
}  // namespace nextmaint
