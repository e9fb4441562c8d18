#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/lint.h"
#include "lint/rules.h"

namespace nextmaint {
namespace lint {
namespace {

/// Applies the full rule set to an inline fixture under the project policy.
std::vector<Finding> Lint(const std::string& path,
                          const std::string& content) {
  return LintSource(path, content, LintConfig::ProjectDefault());
}

bool HasRule(const std::vector<Finding>& findings, Rule rule) {
  for (const Finding& finding : findings) {
    if (finding.rule == rule) return true;
  }
  return false;
}

// ---------------------------------------------------------------- rule 1

TEST(BannedPrimitiveRuleTest, FlagsRandCall) {
  const auto findings = Lint("src/ml/foo.cc", "int x = rand() % 7;\n");
  ASSERT_TRUE(HasRule(findings, Rule::kBannedPrimitive));
  EXPECT_EQ(findings[0].line, 1);
}

TEST(BannedPrimitiveRuleTest, FlagsRandomDeviceAndWallClock) {
  EXPECT_TRUE(HasRule(Lint("src/core/a.cc", "std::random_device rd;\n"),
                      Rule::kBannedPrimitive));
  EXPECT_TRUE(HasRule(Lint("src/core/a.cc", "auto t = time(nullptr);\n"),
                      Rule::kBannedPrimitive));
  EXPECT_TRUE(HasRule(Lint("src/core/a.cc", "srand(42);\n"),
                      Rule::kBannedPrimitive));
  EXPECT_TRUE(
      HasRule(Lint("src/core/a.cc",
                   "auto n = std::chrono::system_clock::now();\n"),
              Rule::kBannedPrimitive));
}

TEST(BannedPrimitiveRuleTest, PassesSeededRngAndSteadyClock) {
  EXPECT_TRUE(Lint("src/ml/foo.cc",
                   "Rng rng(42);\n"
                   "auto t0 = std::chrono::steady_clock::now();\n")
                  .empty());
}

TEST(BannedPrimitiveRuleTest, IgnoresMentionsInCommentsAndStrings) {
  EXPECT_TRUE(Lint("src/ml/foo.cc",
                   "// rand() is banned here\n"
                   "const char* msg = \"do not call time()\";\n")
                  .empty());
}

TEST(BannedPrimitiveRuleTest, DoesNotMatchIdentifierSuffixes) {
  // "runtime(" contains "time(" but is not the banned token.
  EXPECT_TRUE(Lint("src/ml/foo.cc", "double r = runtime(3);\n").empty());
}

TEST(BannedPrimitiveRuleTest, AllowlistExemptsRngModule) {
  const std::string source = "std::random_device rd;\n";
  EXPECT_TRUE(Lint("src/common/rng.cc", source).empty());
  EXPECT_FALSE(Lint("src/common/statistics.cc", source).empty());
}

TEST(BannedPrimitiveRuleTest, InlineSuppressionSilencesOneLine) {
  const auto findings = Lint(
      "src/ml/foo.cc",
      "auto t = time(nullptr);  // nextmaint-lint: allow(banned-primitive)\n"
      "auto u = time(nullptr);\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
}

// ---------------------------------------------------------------- rule 2

TEST(LayeringRuleTest, FlagsCommonIncludingCore) {
  const auto findings = Lint("src/common/util.cc",
                             "#include \"core/scheduler.h\"\n");
  ASSERT_TRUE(HasRule(findings, Rule::kLayering));
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LayeringRuleTest, FlagsMlIncludingData) {
  EXPECT_TRUE(HasRule(Lint("src/ml/foo.cc", "#include \"data/csv.h\"\n"),
                      Rule::kLayering));
}

TEST(LayeringRuleTest, PassesDeclaredDependencies) {
  EXPECT_TRUE(Lint("src/core/foo.cc",
                   "#include \"common/status.h\"\n"
                   "#include \"data/time_series.h\"\n"
                   "#include \"ml/regressor.h\"\n"
                   "#include \"core/scheduler.h\"\n")
                  .empty());
  EXPECT_TRUE(Lint("src/cli/foo.cc",
                   "#include \"telematics/fleet.h\"\n"
                   "#include \"core/scheduler.h\"\n")
                  .empty());
}

TEST(LayeringRuleTest, SystemIncludesAreExempt) {
  EXPECT_TRUE(Lint("src/common/util.cc", "#include <vector>\n").empty());
}

TEST(LayeringRuleTest, UnconstrainedDirectoriesPass) {
  // tests/ and bench/ may include anything.
  EXPECT_TRUE(Lint("bench/harness.cc",
                   "#include \"core/scheduler.h\"\n"
                   "#include \"telematics/fleet.h\"\n")
                  .empty());
}

TEST(LayeringRuleTest, UmbrellaHeaderBannedInLayeredCode) {
  EXPECT_TRUE(HasRule(Lint("src/core/foo.cc", "#include \"nextmaint.h\"\n"),
                      Rule::kLayering));
  EXPECT_TRUE(Lint("bench/foo.cc", "#include \"nextmaint.h\"\n").empty());
}

// ---------------------------------------------------------------- rule 3

TEST(NakedNewRuleTest, FlagsNewAndDeleteExpressions) {
  const auto new_findings =
      Lint("src/core/foo.cc", "auto* p = new int[4];\n");
  ASSERT_TRUE(HasRule(new_findings, Rule::kNakedNew));
  const auto delete_findings = Lint("src/core/foo.cc", "delete p;\n");
  ASSERT_TRUE(HasRule(delete_findings, Rule::kNakedNew));
  EXPECT_TRUE(HasRule(Lint("src/core/foo.cc", "delete[] p;\n"),
                      Rule::kNakedNew));
}

TEST(NakedNewRuleTest, PassesSmartPointersAndDeletedFunctions) {
  EXPECT_TRUE(Lint("src/core/foo.cc",
                   "auto p = std::make_unique<int>(4);\n"
                   "X(const X&) = delete;\n"
                   "X& operator=(const X&) = delete;\n")
                  .empty());
}

TEST(NakedNewRuleTest, AllowlistedLeakySingletonFilesPass) {
  const std::string source = "auto* s = new std::string();\n";
  EXPECT_TRUE(Lint("src/common/status.cc", source).empty());
  EXPECT_FALSE(Lint("src/common/date.cc", source).empty());
}

TEST(NakedNewRuleTest, InlineSuppressionWorks) {
  EXPECT_TRUE(
      Lint("src/core/foo.cc",
           "auto* p = new Pool();  // nextmaint-lint: allow(naked-new)\n")
          .empty());
}

// ---------------------------------------------------------------- rule 4

TEST(RowIterationRuleTest, FlagsMatrixIncludeInHistogramFiles) {
  const auto findings = Lint("src/ml/histogram.cc",
                             "#include \"ml/matrix.h\"\n");
  ASSERT_TRUE(HasRule(findings, Rule::kRowIteration));
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_TRUE(HasRule(Lint("src/ml/histogram.h",
                           "#include \"ml/dataset.h\"\n"),
                      Rule::kRowIteration));
}

TEST(RowIterationRuleTest, FlagsRowAndColAccess) {
  EXPECT_TRUE(HasRule(Lint("src/ml/histogram.cc",
                           "double v = x.Row(3)[0];\n"),
                      Rule::kRowIteration));
  EXPECT_TRUE(HasRule(Lint("src/ml/histogram.h",
                           "auto c = m->Col(feature);\n"),
                      Rule::kRowIteration));
}

TEST(RowIterationRuleTest, BinSourceAccessPasses) {
  EXPECT_TRUE(Lint("src/ml/histogram.h",
                   "#include \"ml/binned_dataset.h\"\n"
                   "uint32_t b = bins.Bin(feature, row);\n")
                  .empty());
}

TEST(RowIterationRuleTest, OtherFilesAreUnconstrained) {
  // Row iteration is the norm everywhere outside the histogram kernels.
  EXPECT_TRUE(Lint("src/ml/linear_models.cc",
                   "#include \"ml/matrix.h\"\n"
                   "double v = x.Row(3)[0];\n")
                  .empty());
}

TEST(RowIterationRuleTest, CommentsAndSuppressionsWork) {
  EXPECT_TRUE(Lint("src/ml/histogram.cc",
                   "// never call x.Row(r) in this file\n")
                  .empty());
  EXPECT_TRUE(
      Lint("src/ml/histogram.cc",
           "auto r = x.Row(0);  // nextmaint-lint: allow(row-iteration)\n")
          .empty());
}

// ---------------------------------------------------------------- rule 5

TEST(GuardedMutexRuleTest, FlagsRawStdMutexOutsideCommon) {
  const auto findings = Lint("src/serve/foo.h",
                             "class Q {\n"
                             "  std::mutex mu_;\n"
                             "  int x_ GUARDED_BY(mu_);\n"
                             "};\n");
  ASSERT_TRUE(HasRule(findings, Rule::kGuardedMutex));
  EXPECT_EQ(findings[0].line, 2);
}

TEST(GuardedMutexRuleTest, FlagsMutexGuardingNothing) {
  const auto findings = Lint("src/serve/foo.h",
                             "class Q {\n"
                             "  Mutex mu_;\n"
                             "  int x_;\n"
                             "};\n");
  ASSERT_TRUE(HasRule(findings, Rule::kGuardedMutex));
  EXPECT_EQ(findings[0].line, 2);
}

TEST(GuardedMutexRuleTest, PassesGuardedAnnotatedMutex) {
  EXPECT_TRUE(Lint("src/serve/foo.h",
                   "class Q {\n"
                   "  mutable Mutex mu_;\n"
                   "  int x_ GUARDED_BY(mu_);\n"
                   "  char* p_ PT_GUARDED_BY(mu_);\n"
                   "};\n")
                  .empty());
}

TEST(GuardedMutexRuleTest, RawStdMutexAllowedUnderCommonWhenGuarding) {
  const std::string source =
      "struct R {\n"
      "  std::mutex mu;\n"
      "  int n GUARDED_BY(mu);\n"
      "};\n";
  EXPECT_TRUE(Lint("src/common/foo.cc", source).empty());
  EXPECT_FALSE(Lint("src/core/foo.cc", source).empty());
}

TEST(GuardedMutexRuleTest, ReferencesAndParametersDoNotMatch) {
  EXPECT_TRUE(Lint("src/serve/foo.h",
                   "void Wait(Mutex& mu);\n"
                   "void Lock(std::mutex* mu);\n")
                  .empty());
}

TEST(GuardedMutexRuleTest, WrapperHeaderIsExempt) {
  EXPECT_TRUE(Lint("src/common/thread_annotations.h",
                   "class Mutex {\n"
                   "  std::mutex raw_;\n"
                   "};\n")
                  .empty());
}

TEST(GuardedMutexRuleTest, InlineSuppressionSilencesOneLine) {
  const auto findings = Lint(
      "src/serve/foo.h",
      "class Q {\n"
      "  Mutex a_;  // nextmaint-lint: allow(guarded-mutex)\n"
      "  Mutex b_;\n"
      "};\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[0].rule, Rule::kGuardedMutex);
}

// ---------------------------------------------------------------- rule 6

TEST(LockAnnotationDriftRuleTest, FlagsRawLockingVocabulary) {
  EXPECT_TRUE(HasRule(
      Lint("src/core/foo.cc", "std::lock_guard<std::mutex> lock(mu_);\n"),
      Rule::kLockAnnotationDrift));
  EXPECT_TRUE(HasRule(
      Lint("src/core/foo.cc", "std::unique_lock<std::mutex> lock(mu_);\n"),
      Rule::kLockAnnotationDrift));
  EXPECT_TRUE(HasRule(Lint("src/core/foo.cc", "std::condition_variable cv;\n"),
                      Rule::kLockAnnotationDrift));
  EXPECT_TRUE(
      HasRule(Lint("src/core/foo.cc", "std::condition_variable_any cv;\n"),
              Rule::kLockAnnotationDrift));
  EXPECT_TRUE(HasRule(Lint("src/core/foo.cc", "std::shared_mutex rw;\n"),
                      Rule::kLockAnnotationDrift));
}

TEST(LockAnnotationDriftRuleTest, PassesAnnotatedWrappers) {
  EXPECT_TRUE(Lint("src/serve/foo.cc",
                   "MutexLock lock(mu_);\n"
                   "while (queue_.empty()) cv_.Wait(mu_);\n"
                   "cv_.NotifyAll();\n")
                  .empty());
}

TEST(LockAnnotationDriftRuleTest, WrapperFilesAreExempt) {
  EXPECT_TRUE(Lint("src/common/thread_annotations.cc",
                   "std::unique_lock<std::mutex> relock(mu.raw_);\n")
                  .empty());
}

TEST(LockAnnotationDriftRuleTest, FlagsSuppressionInServeAndParallel) {
  const std::string source = "void F() NO_THREAD_SAFETY_ANALYSIS;\n";
  EXPECT_TRUE(HasRule(Lint("src/serve/daemon.cc", source),
                      Rule::kLockAnnotationDrift));
  EXPECT_TRUE(HasRule(Lint("src/common/parallel.cc", source),
                      Rule::kLockAnnotationDrift));
  // Elsewhere NO_THREAD_SAFETY_ANALYSIS is discouraged but not lint-banned.
  EXPECT_TRUE(Lint("src/common/telemetry.cc", source).empty());
}

TEST(LockAnnotationDriftRuleTest, IgnoresCommentsAndSuppressions) {
  EXPECT_TRUE(Lint("src/core/foo.cc",
                   "// replaced std::lock_guard with MutexLock\n")
                  .empty());
  EXPECT_TRUE(
      Lint("src/core/foo.cc",
           "std::lock_guard<std::mutex> lock(mu_);  "
           "// nextmaint-lint: allow(lock-annotation-drift)\n")
          .empty());
}

// ------------------------------------------------------------- plumbing

TEST(FindingTest, ToStringFormat) {
  const Finding finding{"src/core/foo.cc", 12, Rule::kLayering, "bad"};
  EXPECT_EQ(finding.ToString(), "src/core/foo.cc:12: [layering] bad");
}

TEST(RuleNameTest, KebabCaseNames) {
  EXPECT_STREQ(RuleName(Rule::kBannedPrimitive), "banned-primitive");
  EXPECT_STREQ(RuleName(Rule::kLayering), "layering");
  EXPECT_STREQ(RuleName(Rule::kNakedNew), "naked-new");
  EXPECT_STREQ(RuleName(Rule::kRowIteration), "row-iteration");
  EXPECT_STREQ(RuleName(Rule::kGuardedMutex), "guarded-mutex");
  EXPECT_STREQ(RuleName(Rule::kLockAnnotationDrift), "lock-annotation-drift");
}

}  // namespace
}  // namespace lint
}  // namespace nextmaint
