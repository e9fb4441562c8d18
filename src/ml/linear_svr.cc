#include "ml/linear_svr.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/macros.h"
#include "common/rng.h"
#include "ml/serialization.h"

namespace nextmaint {
namespace ml {

LinearSvr::Options LinearSvr::OptionsFromParams(const ParamMap& params) {
  Options options;
  if (auto it = params.find("C"); it != params.end()) options.c = it->second;
  if (auto it = params.find("epsilon"); it != params.end()) {
    options.epsilon = it->second;
  }
  return options;
}

Status LinearSvr::FitImpl(const Dataset& train) {
  fitted_ = false;
  if (train.empty()) {
    return Status::InvalidArgument("cannot fit LSVR on an empty dataset");
  }
  if (!train.x().AllFinite()) {
    return Status::InvalidArgument("LSVR features contain non-finite values");
  }
  if (options_.c <= 0.0) {
    return Status::InvalidArgument("LSVR requires C > 0");
  }
  if (options_.epsilon < 0.0) {
    return Status::InvalidArgument("LSVR requires epsilon >= 0");
  }

  const size_t n = train.num_rows();
  const size_t p = train.num_features();

  // Optional internal standardization: z = (x - mean) / std. Constant
  // features keep std = 1 so they map to 0 and receive no weight.
  std::vector<double> means(p, 0.0), stds(p, 1.0);
  if (options_.standardize) {
    for (size_t r = 0; r < n; ++r) {
      std::span<const double> row = train.x().Row(r);
      for (size_t c = 0; c < p; ++c) means[c] += row[c];
    }
    for (double& m : means) m /= static_cast<double>(n);
    std::vector<double> acc(p, 0.0);
    for (size_t r = 0; r < n; ++r) {
      std::span<const double> row = train.x().Row(r);
      for (size_t c = 0; c < p; ++c) {
        const double d = row[c] - means[c];
        acc[c] += d * d;
      }
    }
    for (size_t c = 0; c < p; ++c) {
      const double sd = std::sqrt(acc[c] / static_cast<double>(n));
      stds[c] = sd > 1e-12 ? sd : 1.0;
    }
  }

  // Augmented design: standardized features plus a constant bias column.
  // w has p+1 entries; the last is the intercept in standardized space.
  const size_t dim = p + 1;
  Matrix z(n, dim);
  for (size_t r = 0; r < n; ++r) {
    std::span<const double> row = train.x().Row(r);
    for (size_t c = 0; c < p; ++c) z(r, c) = (row[c] - means[c]) / stds[c];
    z(r, p) = 1.0;
  }

  // Precompute Q_ii = ||z_i||^2.
  std::vector<double> q_diag(n);
  for (size_t i = 0; i < n; ++i) {
    q_diag[i] = Dot(z.Row(i), z.Row(i));
  }

  std::vector<double> w(dim, 0.0);
  std::vector<double> beta(n, 0.0);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(options_.seed);

  const double c_bound = options_.c;
  const double eps = options_.epsilon;
  iterations_run_ = 0;

  for (int pass = 0; pass < options_.max_iterations; ++pass) {
    rng.Shuffle(&order);
    double max_delta = 0.0;
    for (size_t idx : order) {
      const double qii = q_diag[idx];
      if (qii <= 0.0) continue;  // all-zero row carries no information
      std::span<const double> zi = z.Row(idx);
      const double g = Dot(zi, w) - train.y()[idx];

      // Minimize 0.5*q*d^2 + g*d + eps*|beta+d| over d with
      // beta+d in [-C, C]: piecewise-quadratic with a kink at beta+d = 0.
      const double b = beta[idx];
      double d;
      const double d_pos = -(g + eps) / qii;  // stationary point if beta+d>0
      const double d_neg = -(g - eps) / qii;  // stationary point if beta+d<0
      if (b + d_pos > 0.0) {
        d = d_pos;
      } else if (b + d_neg < 0.0) {
        d = d_neg;
      } else {
        d = -b;  // minimum at the kink
      }
      const double new_beta = std::clamp(b + d, -c_bound, c_bound);
      const double delta = new_beta - b;
      if (delta == 0.0) continue;
      beta[idx] = new_beta;
      for (size_t c = 0; c < dim; ++c) w[c] += delta * zi[c];
      max_delta = std::max(max_delta, std::fabs(delta) * std::sqrt(qii));
    }
    ++iterations_run_;
    if (max_delta < options_.tolerance) break;
  }

  // Map the standardized-space weights back to input scale:
  //   w.z = sum_c w_c * (x_c - mean_c)/std_c + w_bias
  weights_.assign(p, 0.0);
  intercept_ = w[p];
  for (size_t c = 0; c < p; ++c) {
    weights_[c] = w[c] / stds[c];
    intercept_ -= w[c] * means[c] / stds[c];
  }
  for (double v : weights_) {
    if (!std::isfinite(v)) {
      return Status::NumericError("LSVR produced non-finite weights");
    }
  }
  if (!std::isfinite(intercept_)) {
    return Status::NumericError("LSVR produced non-finite intercept");
  }
  fitted_ = true;
  return Status::OK();
}

Result<double> LinearSvr::Predict(std::span<const double> features) const {
  if (!fitted_) {
    return Status::FailedPrecondition("LSVR model is not fitted");
  }
  if (features.size() != weights_.size()) {
    return Status::InvalidArgument(
        "feature count mismatch: got " + std::to_string(features.size()) +
        ", trained with " + std::to_string(weights_.size()));
  }
  return intercept_ + Dot(features, weights_);
}


void LinearSvr::SaveBody(ModelWriter& out) const {
  out.Put("weights ").Put(weights_.size());
  for (double w : weights_) out.Put(' ').Put(w);
  out.Put('\n');
  out.Line("intercept", intercept_);
  out.Line("end");
}

Result<LinearSvr> LinearSvr::LoadBody(ModelReader& in) {
  size_t count = 0;
  if (!in.Expect("weights") || !in.Read(count)) {
    return Status::DataError("LSVR: expected 'weights <n>'");
  }
  if (!in.CanHold(count, 1)) {
    return Status::DataError("LSVR: implausible weight count");
  }
  LinearSvr model;
  model.weights_.resize(count);
  for (double& w : model.weights_) {
    if (!in.Read(w)) return Status::DataError("LSVR: truncated weights");
  }
  if (!in.Expect("intercept") || !in.Read(model.intercept_)) {
    return Status::DataError("LSVR: expected 'intercept <b>'");
  }
  if (!in.Expect("end")) {
    return Status::DataError("LSVR: missing end marker");
  }
  model.fitted_ = true;
  return model;
}

}  // namespace ml
}  // namespace nextmaint
