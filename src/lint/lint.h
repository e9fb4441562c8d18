#ifndef NEXTMAINT_LINT_LINT_H_
#define NEXTMAINT_LINT_LINT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "lint/rules.h"

/// \file lint.h
/// The `nextmaint_lint` invariant checker: scans the source tree and
/// enforces the project's correctness invariants (deterministic runs,
/// layered includes, no naked ownership, annotated locking). Dropped
/// errors are the compiler's check: Status and Result are [[nodiscard]]
/// and every build passes -Werror=unused-result. See
/// docs/static-analysis.md for the rule catalogue and escape hatches.

namespace nextmaint {
namespace lint {

/// Full linter configuration.
struct LintConfig {
  RulePolicy policy;
  /// File extensions scanned when walking directories.
  std::vector<std::string> extensions = {".h", ".cc", ".hpp", ".cpp"};
  /// Directory names skipped during the walk (build trees, VCS metadata).
  std::vector<std::string> skip_directories = {".git", "third_party"};

  /// The nextmaint project policy: layer order
  /// common < {data, ml, lint} < telematics < core < cli, banned
  /// primitives allowed only in common/rng.*, naked new allowed only in
  /// the documented leaky singletons.
  static LintConfig ProjectDefault();
};

/// Lints one in-memory file. `path` is the repo-relative label used in
/// findings and for allowlist/layer matching.
std::vector<Finding> LintSource(const std::string& path,
                                const std::string& content,
                                const LintConfig& config);

/// Lints files and directory trees rooted at `root`. `paths` are relative
/// to `root` (e.g. {"src", "tools", "bench"}); directories are walked
/// recursively. Findings are sorted by path and line.
/// Fails with IOError/NotFound when a requested path cannot be read.
Result<std::vector<Finding>> LintTree(const std::string& root,
                                      const std::vector<std::string>& paths,
                                      const LintConfig& config);

}  // namespace lint
}  // namespace nextmaint

#endif  // NEXTMAINT_LINT_LINT_H_
