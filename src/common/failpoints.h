#ifndef NEXTMAINT_COMMON_FAILPOINTS_H_
#define NEXTMAINT_COMMON_FAILPOINTS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

/// \file failpoints.h
/// Deterministic fault injection for the fleet pipeline.
///
/// The deployed system consumes messy CAN-bus telematics: files go missing,
/// rows truncate, model fits diverge. Every such failure seam carries a
/// named *failpoint* — a site where tests (and operators running chaos
/// drills) can inject a Status error on demand:
///
///   Status ReadRow(...) {
///     NEXTMAINT_FAILPOINT("csv.read_row");
///     ...
///   }
///
/// Arming. A failpoint fires only while armed, via the NEXTMAINT_FAILPOINTS
/// environment variable, the CLI's `--failpoints` flag, or Arm() directly.
/// The spec grammar (comma-separated list):
///
///   site[:nth[:kind]]
///
///   site   a catalogued name (RegisteredSites()); unknown names are
///          rejected so specs cannot rot silently.
///   nth    which hit fires. 0 or omitted = every hit. Inside an ordinal
///          context (see ScopedOrdinal) `nth` selects the context — e.g.
///          "scheduler.train_vehicle:2" fails exactly the second vehicle of
///          the training order. Outside any context it selects the nth
///          evaluation of the site (1-based) counted process-wide.
///   kind   the injected Status code: error (default, kUnknown), io, data,
///          numeric, notfound.
///
/// Determinism. Parallel regions (TrainAll, FleetForecast) wrap each task
/// in a ScopedOrdinal carrying the task's position in the deterministic
/// work order. Firing decisions inside a context depend only on that
/// ordinal — never on thread scheduling — so an armed failpoint produces
/// bit-identical outcomes at any thread count (locked in by
/// tests/chaos_test.cc).
///
/// Cost. Disarmed, every NEXTMAINT_FAILPOINT compiles to a single relaxed
/// atomic load; perfbench measures no end-to-end difference from a build
/// without the sites (docs/observability.md).
///
/// See docs/fault-injection.md for the site catalogue and the degradation
/// semantics each site exercises.

namespace nextmaint {
namespace failpoints {

namespace internal {
/// Number of armed failpoints, or -1 before the NEXTMAINT_FAILPOINTS
/// environment variable has been consulted. Header-visible so Enabled()
/// inlines to one relaxed load on the hot path.
extern std::atomic<int> g_armed_state;
/// Parses NEXTMAINT_FAILPOINTS (once, latched) and returns whether any
/// failpoint is armed afterwards.
bool InitFromEnv();
}  // namespace internal

/// True while at least one failpoint is armed. Safe and cheap to call from
/// any thread; this is the only check disarmed hot paths pay.
inline bool Enabled() {
  const int v = internal::g_armed_state.load(std::memory_order_relaxed);
  if (v >= 0) return v > 0;
  return internal::InitFromEnv();
}

/// Arms every failpoint named in `specs` ("site[:nth[:kind]]", comma
/// separated — the NEXTMAINT_FAILPOINTS / --failpoints grammar). Repeating
/// a site accumulates nth selectors, so
/// "scheduler.train_vehicle:2,scheduler.train_vehicle:5" fails vehicles 2
/// and 5. Fails with InvalidArgument on unknown sites or malformed specs
/// (nothing is armed on failure).
[[nodiscard]] Status Arm(const std::string& specs);

/// Disarms one site; unknown or unarmed sites are a no-op.
void Disarm(const std::string& site);

/// Disarms everything and zeroes hit/fire counters. Re-latches nothing:
/// the environment spec is consumed only once per process.
void DisarmAll();

/// The canonical failpoint catalogue, sorted. Every NEXTMAINT_FAILPOINT
/// site in the tree appears here (the chaos sweep arms each in turn), and
/// Arm() rejects names outside it.
const std::vector<std::string>& RegisteredSites();

/// True when `site` is in RegisteredSites().
bool IsRegisteredSite(const std::string& site);

/// Times an *armed* `site` was evaluated since it was armed (hits do not
/// accumulate while disarmed). Lets tests assert a site is actually wired.
uint64_t HitCount(const std::string& site);

/// Times an armed `site` actually injected a failure.
uint64_t FiredCount(const std::string& site);

/// Evaluates one failpoint: OK when disarmed or not selected, otherwise
/// the injected error. Called by NEXTMAINT_FAILPOINT after the Enabled()
/// fast path; exposed for the framework's own tests.
[[nodiscard]] Status Check(const char* site);

/// The current thread's ordinal context (0 = none). Lets work handed to
/// another thread run in the context of the thread that issued it.
uint64_t CurrentOrdinal();

/// Establishes the deterministic ordinal context (1-based) for the current
/// thread, e.g. the vehicle's position in the training order. Nested scopes
/// save and restore the outer ordinal. Passing 0 clears the context.
class ScopedOrdinal {
 public:
  explicit ScopedOrdinal(uint64_t ordinal);
  ~ScopedOrdinal();

  ScopedOrdinal(const ScopedOrdinal&) = delete;
  ScopedOrdinal& operator=(const ScopedOrdinal&) = delete;

 private:
  uint64_t saved_ = 0;
};

/// Resets the registry to the never-initialized state (armed specs cleared,
/// environment latch released). Test-only: lets env-parsing tests run
/// regardless of what earlier tests in the same process did.
void ResetForTesting();

}  // namespace failpoints
}  // namespace nextmaint

/// Evaluates the named failpoint and returns its injected Status (or a
/// Result, via the implicit conversion) from the enclosing function when it
/// fires. The expansion checks the Status it creates itself.
#define NEXTMAINT_FAILPOINT(site)                                  \
  do {                                                             \
    if (::nextmaint::failpoints::Enabled()) {                      \
      ::nextmaint::Status nm_failpoint_status_ =                   \
          ::nextmaint::failpoints::Check(site);                    \
      if (!nm_failpoint_status_.ok()) return nm_failpoint_status_; \
    }                                                              \
  } while (false)

#endif  // NEXTMAINT_COMMON_FAILPOINTS_H_
