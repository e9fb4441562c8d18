#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/lint.h"

/// The linter's reason to exist: the real tree must be clean. This test is
/// the in-repo equivalent of the CI `lint` job, so a change that introduces
/// a nondeterminism primitive, breaks layering or leaks a naked new fails
/// the unit suite locally too.

#ifndef NEXTMAINT_LINT_SOURCE_ROOT
#error "tests/CMakeLists.txt must define NEXTMAINT_LINT_SOURCE_ROOT"
#endif

namespace nextmaint {
namespace lint {
namespace {

TEST(SelfScanTest, SourceTreeIsClean) {
  const auto findings =
      LintTree(NEXTMAINT_LINT_SOURCE_ROOT, {"src", "tools", "bench"},
               LintConfig::ProjectDefault());
  ASSERT_TRUE(findings.ok()) << findings.status().ToString();
  std::string report;
  for (const Finding& finding : findings.ValueOrDie()) {
    report += finding.ToString() + "\n";
  }
  EXPECT_TRUE(findings.ValueOrDie().empty()) << report;
}

TEST(LintTreeTest, MissingPathFails) {
  const auto findings =
      LintTree(NEXTMAINT_LINT_SOURCE_ROOT, {"no-such-directory"},
               LintConfig::ProjectDefault());
  EXPECT_FALSE(findings.ok());
  EXPECT_EQ(findings.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace lint
}  // namespace nextmaint
