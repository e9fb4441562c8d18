#ifndef NEXTMAINT_LINT_RULES_H_
#define NEXTMAINT_LINT_RULES_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/source_scan.h"

/// \file rules.h
/// The project-invariant checks enforced by `nextmaint_lint`.
///
/// Each rule is a pure function from a scrubbed source file to findings, so
/// rules are unit-testable on inline fixture snippets without touching the
/// filesystem. Rule semantics are documented in docs/static-analysis.md;
/// any rule can be suppressed on a single line with
/// `// nextmaint-lint: allow(<rule-name>)`.

namespace nextmaint {
namespace lint {

/// Identifies one lint rule.
enum class Rule {
  /// Nondeterminism primitives (rand(), std::random_device, time(), ...)
  /// outside the seeded-RNG module.
  kBannedPrimitive,
  /// An #include that violates the layer dependency order.
  kLayering,
  /// A naked new/delete expression outside allow-listed files.
  kNakedNew,
  /// Row-oriented matrix access (`ml/matrix.h` includes, `.Row(`/`.Col(`)
  /// inside the columnar histogram kernels, which must consume pre-binned
  /// sources exclusively.
  kRowIteration,
  /// A mutex that guards nothing (no sibling GUARDED_BY field in the same
  /// file), or a raw `std::mutex` outside the annotated-wrapper layer.
  kGuardedMutex,
  /// Locking that drifts away from the annotated vocabulary: raw std::
  /// locking primitives (lock_guard, unique_lock, condition_variable, ...)
  /// that -Wthread-safety cannot see, or a NO_THREAD_SAFETY_ANALYSIS
  /// suppression in a subsystem that must stay fully analyzable.
  kLockAnnotationDrift,
};

/// Canonical kebab-case rule name ("banned-primitive", ...), as used by
/// suppression comments and finding output.
const char* RuleName(Rule rule);

/// One violation found in one file.
struct Finding {
  std::string path;
  int line = 0;
  Rule rule = Rule::kBannedPrimitive;
  std::string message;

  /// "path:line: [rule-name] message" — the tool's output format.
  std::string ToString() const;
};

/// Policy knobs for the rules; LintConfig::ProjectDefault() (lint.h) holds
/// the nextmaint policy.
struct RulePolicy {
  /// Layer path prefix (e.g. "src/common") -> include layers it may depend
  /// on. Files under a prefix absent from the map are unconstrained.
  std::map<std::string, std::set<std::string>> layers;
  /// Path suffixes exempt from the banned-primitive rule (the seeded RNG
  /// implementation itself).
  std::vector<std::string> banned_primitive_allowlist;
  /// Path suffixes exempt from the naked-new rule (documented leaky
  /// singletons).
  std::vector<std::string> naked_new_allowlist;
  /// Path suffixes the row-iteration rule applies to (the histogram kernel
  /// files; everywhere else row access is legitimate).
  std::vector<std::string> row_iteration_paths;
  /// Path prefixes where a raw `std::mutex` member may still appear (the
  /// annotated-wrapper layer lives under common/).
  std::vector<std::string> raw_mutex_prefixes;
  /// Path suffixes exempt from both thread-safety rules: the annotation
  /// layer itself, which wraps the raw primitives everyone else must avoid.
  std::vector<std::string> thread_wrapper_allowlist;
  /// Path prefixes where NO_THREAD_SAFETY_ANALYSIS is banned outright
  /// (serve/ and the thread pool must stay fully analyzable).
  std::vector<std::string> no_analysis_banned_prefixes;
};

/// True when `path` ends with one of `suffixes` (paths use '/' separators).
bool PathMatchesSuffix(const std::string& path,
                       const std::vector<std::string>& suffixes);

/// True when `path` starts with one of `prefixes`.
bool PathMatchesPrefix(const std::string& path,
                       const std::vector<std::string>& prefixes);

/// Rule 1: banned nondeterminism primitives.
std::vector<Finding> CheckBannedPrimitives(const std::string& path,
                                           const ScrubbedSource& src,
                                           const RulePolicy& policy);

/// Rule 2: include layering. Reads raw `content` for the include lines and
/// `src` for suppressions.
std::vector<Finding> CheckLayering(const std::string& path,
                                   const std::string& content,
                                   const ScrubbedSource& src,
                                   const RulePolicy& policy);

/// Rule 3: naked new/delete expressions.
std::vector<Finding> CheckNakedNew(const std::string& path,
                                   const ScrubbedSource& src,
                                   const RulePolicy& policy);

/// Rule 4: row-oriented storage access inside the columnar histogram
/// kernels. Flags `ml/matrix.h` / `ml/dataset.h` includes and `.Row(` /
/// `.Col(` member calls in files matching `policy.row_iteration_paths`.
/// Reads raw `content` for the include lines and `src` for code tokens.
std::vector<Finding> CheckRowIteration(const std::string& path,
                                       const std::string& content,
                                       const ScrubbedSource& src,
                                       const RulePolicy& policy);

/// Rule 5: every declared mutex must guard something. Flags a
/// `std::mutex` / `Mutex` member or global with no `GUARDED_BY(<name>)` /
/// `PT_GUARDED_BY(<name>)` field in the same file, and any raw
/// `std::mutex` declaration outside `policy.raw_mutex_prefixes` (raw
/// mutexes are invisible to -Wthread-safety; use nextmaint::Mutex).
/// Name matching is per file, so two mutexes sharing a field name in one
/// file satisfy each other — the Clang analysis closes that gap.
std::vector<Finding> CheckGuardedMutex(const std::string& path,
                                       const ScrubbedSource& src,
                                       const RulePolicy& policy);

/// Rule 6: lock-annotation drift. Flags raw std:: locking vocabulary
/// (lock_guard, unique_lock, scoped_lock, shared_lock, condition_variable,
/// recursive/shared/timed mutexes) anywhere outside the wrapper layer —
/// locking through them bypasses the REQUIRES/EXCLUDES annotations the
/// Clang build checks — and NO_THREAD_SAFETY_ANALYSIS inside
/// `policy.no_analysis_banned_prefixes`.
std::vector<Finding> CheckLockAnnotationDrift(const std::string& path,
                                              const ScrubbedSource& src,
                                              const RulePolicy& policy);

}  // namespace lint
}  // namespace nextmaint

#endif  // NEXTMAINT_LINT_RULES_H_
