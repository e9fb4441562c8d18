#ifndef NEXTMAINT_ML_REGRESSOR_H_
#define NEXTMAINT_ML_REGRESSOR_H_

#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "ml/dataset.h"

/// \file regressor.h
/// The common interface implemented by every regression model in the zoo
/// (LR, LSVR, decision tree, RF, XGB) and by the paper's BL baseline wrapper.

namespace nextmaint {
namespace ml {

class ModelReader;
class ModelWriter;

/// Flat hyper-parameter assignment used by the grid-search machinery.
/// Every tunable of every model is expressible as a double (integer
/// parameters are rounded by the consumer).
using ParamMap = std::map<std::string, double>;

/// Abstract regression model.
///
/// Lifecycle: construct (possibly from an options struct) -> Fit ->
/// Predict/PredictBatch. Fitting again discards the previous state.
/// Predicting before a successful Fit returns FailedPrecondition.
///
/// Fit follows the non-virtual-interface pattern: the public entry point
/// records per-model telemetry (ml.fit.seconds.<name>, ...) and delegates
/// to the protected FitImpl that concrete models override. PredictBatch
/// records ml.predict_batch.* around a loop over Predict. Per-row Predict
/// stays a plain virtual — it is the hot path inside tree ensembles and
/// must not pay an instrumentation check per call.
class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Trains the model. Returns InvalidArgument for empty or non-finite
  /// data, NumericError when optimization fails.
  [[nodiscard]] Status Fit(const Dataset& train);

  /// Predicts the target for one feature row. The length must equal the
  /// training feature count.
  virtual Result<double> Predict(std::span<const double> features) const = 0;

  /// Predicts a batch in one call: Predict over the rows in order, failing
  /// with the first row's error.
  [[nodiscard]] Result<std::vector<double>> PredictBatch(const Matrix& x) const;

  /// Short identifier, e.g. "LR", "LSVR", "RF", "XGB".
  virtual std::string name() const = 0;

  /// True after a successful Fit.
  virtual bool is_fitted() const = 0;

  /// Deep copy carrying the fitted state (used by model selection to keep
  /// the winning model).
  virtual std::unique_ptr<Regressor> Clone() const = 0;

  /// Serializes the fitted model to a line-oriented text format that
  /// ml::LoadRegressor (or core::LoadAnyModel for BL) can read back: the
  /// "nextmaint-model v1 <name>" header line, then the model's body.
  /// Fails with FailedPrecondition on unfitted models, writing nothing.
  [[nodiscard]] Status Save(ModelWriter& out) const;

  /// Stream adapter over Save(ModelWriter&); writes the same bytes.
  [[nodiscard]] Status Save(std::ostream& out) const;

 protected:
  /// Model-specific body, through its closing "end" line; called by Save
  /// on a fitted model after the header line.
  virtual void SaveBody(ModelWriter& out) const = 0;

  /// Model-specific training; called by Fit.
  virtual Status FitImpl(const Dataset& train) = 0;
};

/// Factory signature used by grid search: builds a fresh model for a
/// hyper-parameter assignment.
using RegressorFactory =
    std::function<std::unique_ptr<Regressor>(const ParamMap&)>;

}  // namespace ml
}  // namespace nextmaint

#endif  // NEXTMAINT_ML_REGRESSOR_H_
