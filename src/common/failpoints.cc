#include "common/failpoints.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "common/thread_annotations.h"
#include "common/strings.h"

namespace nextmaint {
namespace failpoints {

namespace {

/// How an armed site injects failures, parsed from one or more specs.
struct ArmedSite {
  /// nth selectors. Empty or containing 0 means "fire on every hit";
  /// otherwise fire when the ordinal context (or, without a context, the
  /// per-site hit counter) matches one of the selectors.
  std::set<uint64_t> nths;
  StatusCode code = StatusCode::kUnknown;
  uint64_t hits = 0;
  uint64_t fired = 0;
  /// Hits observed outside any ordinal context; drives nth selection on
  /// single-threaded call paths. Context hits deliberately do not bump it:
  /// they would make the count depend on thread interleaving.
  uint64_t uncontexted_hits = 0;
};

struct Registry {
  Mutex mu;
  std::map<std::string, ArmedSite> armed GUARDED_BY(mu);
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // nextmaint-lint: allow(naked-new): leaky singleton, destruction order with detached threads is unsafe
  return *registry;
}

/// Thread-local deterministic ordinal established by ScopedOrdinal;
/// 0 = no context.
thread_local uint64_t t_ordinal = 0;

/// One failing-arm spec: "site[:nth[:kind]]".
struct ParsedSpec {
  std::string site;
  uint64_t nth = 0;
  StatusCode code = StatusCode::kUnknown;
};

Result<StatusCode> ParseKind(std::string_view kind) {
  if (kind == "error") return StatusCode::kUnknown;
  if (kind == "io") return StatusCode::kIOError;
  if (kind == "data") return StatusCode::kDataError;
  if (kind == "numeric") return StatusCode::kNumericError;
  if (kind == "notfound") return StatusCode::kNotFound;
  return Status::InvalidArgument(
      "unknown failpoint kind '" + std::string(kind) +
      "' (expected error, io, data, numeric or notfound)");
}

Result<ParsedSpec> ParseSpec(std::string_view raw) {
  const std::vector<std::string> parts = Split(Trim(raw), ':');
  if (parts.empty() || parts.size() > 3 || parts[0].empty()) {
    return Status::InvalidArgument("malformed failpoint spec '" +
                                   std::string(raw) +
                                   "' (expected site[:nth[:kind]])");
  }
  ParsedSpec spec;
  spec.site = parts[0];
  if (!IsRegisteredSite(spec.site)) {
    return Status::InvalidArgument(
        "unknown failpoint site '" + spec.site + "' (known sites: " +
        Join(RegisteredSites(), ", ") + ")");
  }
  if (parts.size() >= 2 && !parts[1].empty()) {
    const Result<int64_t> nth = ParseInt64(parts[1]);
    if (!nth.ok() || nth.ValueOrDie() < 0) {
      return Status::InvalidArgument(
          "failpoint nth must be a non-negative integer in spec '" +
          std::string(raw) + "'");
    }
    spec.nth = static_cast<uint64_t>(nth.ValueOrDie());
  }
  if (parts.size() == 3) {
    NM_ASSIGN_OR_RETURN(spec.code, ParseKind(parts[2]));
  }
  return spec;
}

Status MakeInjectedError(const char* site, StatusCode code) {
  const std::string msg =
      std::string("injected failure at failpoint '") + site + "'";
  return Status(code, msg);
}

void PublishArmedCount(Registry& registry) REQUIRES(registry.mu) {
  internal::g_armed_state.store(static_cast<int>(registry.armed.size()),
                                std::memory_order_relaxed);
}

}  // namespace

namespace internal {

std::atomic<int> g_armed_state{-1};

bool InitFromEnv() {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  int v = g_armed_state.load(std::memory_order_relaxed);
  if (v >= 0) return v > 0;  // another thread latched while we waited
  // getenv is racy against setenv, but this runs once under the registry
  // lock and the process never calls setenv after main starts.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("NEXTMAINT_FAILPOINTS");
  if (env != nullptr && *env != '\0') {
    // Arm() re-enters this latch-free path under the lock below, so inline
    // the spec application here. A bad env spec cannot return a Status from
    // library initialization; fail loudly instead of arming half a spec.
    std::map<std::string, ArmedSite> armed;
    for (const std::string& raw : Split(env, ',')) {
      Result<ParsedSpec> parsed = ParseSpec(raw);
      if (!parsed.ok()) {
        std::fprintf(stderr, "NEXTMAINT_FAILPOINTS: %s\n",
                     parsed.status().ToString().c_str());
        std::abort();
      }
      const ParsedSpec& spec = parsed.ValueOrDie();
      ArmedSite& site = armed[spec.site];
      site.nths.insert(spec.nth);
      site.code = spec.code;
    }
    registry.armed = std::move(armed);
  }
  PublishArmedCount(registry);
  return !registry.armed.empty();
}

}  // namespace internal

Status Arm(const std::string& specs) {
  // Consume any pending environment spec first so Arm() merges with it
  // instead of racing the lazy latch.
  (void)Enabled();
  std::vector<ParsedSpec> parsed;
  for (const std::string& raw : Split(specs, ',')) {
    NM_ASSIGN_OR_RETURN(ParsedSpec spec, ParseSpec(raw));
    parsed.push_back(std::move(spec));
  }
  if (parsed.empty()) {
    return Status::InvalidArgument("empty failpoint spec");
  }
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  for (const ParsedSpec& spec : parsed) {
    ArmedSite& site = registry.armed[spec.site];
    site.nths.insert(spec.nth);
    site.code = spec.code;
  }
  PublishArmedCount(registry);
  return Status::OK();
}

void Disarm(const std::string& site) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  registry.armed.erase(site);
  PublishArmedCount(registry);
}

void DisarmAll() {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  registry.armed.clear();
  PublishArmedCount(registry);
}

const std::vector<std::string>& RegisteredSites() {
  // Source of truth for the catalogue; keep sorted and in sync with the
  // NEXTMAINT_FAILPOINT call sites and docs/fault-injection.md.
  static const std::vector<std::string>* sites = new std::vector<std::string>{  // nextmaint-lint: allow(naked-new): leaky singleton
      "csv.open_file",
      "csv.read_row",
      "ml.fit",
      "preprocess.aggregate",
      "scheduler.forecast_vehicle",
      "scheduler.ingest",
      "scheduler.load_models",
      "scheduler.save_models",
      "scheduler.train_vehicle",
      "serve.append",
      "serve.daemon.accept",
      "serve.daemon.decode",
      "serve.daemon.enqueue",
      "serve.daemon.refresh",
      "serve.refresh",
      "storage.checkpoint.commit",
      "storage.checkpoint.map",
      "storage.checkpoint.open",
      "storage.checkpoint.segment_write",
  };
  return *sites;
}

bool IsRegisteredSite(const std::string& site) {
  const std::vector<std::string>& sites = RegisteredSites();
  for (const std::string& known : sites) {
    if (known == site) return true;
  }
  return false;
}

uint64_t HitCount(const std::string& site) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  auto it = registry.armed.find(site);
  return it == registry.armed.end() ? 0 : it->second.hits;
}

uint64_t FiredCount(const std::string& site) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  auto it = registry.armed.find(site);
  return it == registry.armed.end() ? 0 : it->second.fired;
}

Status Check(const char* site) {
  if (!Enabled()) return Status::OK();
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  auto it = registry.armed.find(site);
  if (it == registry.armed.end()) return Status::OK();
  ArmedSite& armed = it->second;
  ++armed.hits;
  // "Fire always" when any selector is 0 (or none was given).
  bool fire = armed.nths.count(0) > 0;
  if (!fire) {
    const uint64_t ordinal = t_ordinal;
    if (ordinal != 0) {
      // Deterministic path: match the caller's task ordinal, which depends
      // only on the work order — never on which thread runs the task.
      fire = armed.nths.count(ordinal) > 0;
    } else {
      ++armed.uncontexted_hits;
      fire = armed.nths.count(armed.uncontexted_hits) > 0;
    }
  }
  if (!fire) return Status::OK();
  ++armed.fired;
  return MakeInjectedError(site, armed.code);
}

uint64_t CurrentOrdinal() { return t_ordinal; }

ScopedOrdinal::ScopedOrdinal(uint64_t ordinal) : saved_(t_ordinal) {
  t_ordinal = ordinal;
}

ScopedOrdinal::~ScopedOrdinal() { t_ordinal = saved_; }

void ResetForTesting() {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  registry.armed.clear();
  internal::g_armed_state.store(-1, std::memory_order_relaxed);
}

}  // namespace failpoints
}  // namespace nextmaint
