// Negative compile fixture for the Status discipline
// (docs/static-analysis.md): dropping a [[nodiscard]] Status MUST fail the
// build, because every build compiles with -Werror=unused-result. The
// StatusNegativeCompile ctest builds this target and passes only when the
// compiler rejects the dropped Status as an unused-result error, so a
// regression that loses the flag or the attribute turns the suite red.
//
// This target is EXCLUDE_FROM_ALL: it must never build as part of the tree.

#include "common/status.h"

namespace {

nextmaint::Status Fail() {
  return nextmaint::Status::InvalidArgument("dropped");
}

}  // namespace

void DropStatus() {
  // BUG (deliberate): the Status is discarded.
  Fail();
}
