#include "ml/regressor.h"

#include <optional>

#include "common/failpoints.h"
#include "common/macros.h"
#include "common/telemetry.h"
#include "ml/serialization.h"

namespace nextmaint {
namespace ml {

Status Regressor::Fit(const Dataset& train) {
  // The NVI entry point covers every concrete model with one site.
  NEXTMAINT_FAILPOINT("ml.fit");
  if (!telemetry::Enabled()) return FitImpl(train);
  telemetry::ScopedTimer timer("ml.fit.seconds." + name());
  const Status status = FitImpl(train);
  if (status.ok()) {
    telemetry::Count("ml.fit.count." + name());
    telemetry::Count("ml.fit.rows." + name(), train.num_rows());
  }
  return status;
}

Status Regressor::Save(ModelWriter& out) const {
  if (!is_fitted()) {
    return Status::FailedPrecondition("cannot save an unfitted " + name() +
                                      " model");
  }
  out.Line(kModelMagic, kModelVersion, name());
  SaveBody(out);
  return Status::OK();
}

Status Regressor::Save(std::ostream& out) const {
  std::string text;
  ModelWriter writer(text);
  NM_RETURN_NOT_OK(Save(writer));
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return Status::IOError(name() + " serialization failed");
  return Status::OK();
}

Result<std::vector<double>> Regressor::PredictBatch(const Matrix& x) const {
  std::optional<telemetry::ScopedTimer> timer;
  if (telemetry::Enabled()) {
    timer.emplace("ml.predict_batch.seconds." + name());
    telemetry::Count("ml.predict_batch.rows." + name(), x.rows());
  }
  std::vector<double> out;
  out.reserve(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    NM_ASSIGN_OR_RETURN(double value, Predict(x.Row(r)));
    out.push_back(value);
  }
  return out;
}

}  // namespace ml
}  // namespace nextmaint
