#include "lint/source_scan.h"

#include <gtest/gtest.h>

#include <string>

namespace nextmaint {
namespace lint {
namespace {

TEST(ScrubTest, BlanksLineCommentsButKeepsLineStructure) {
  const std::string in = "int a;  // rand() here\nint b;\n";
  const ScrubbedSource out = Scrub(in);
  EXPECT_EQ(out.code.size(), in.size());
  EXPECT_EQ(out.code.find("rand"), std::string::npos);
  EXPECT_NE(out.code.find("int a;"), std::string::npos);
  EXPECT_NE(out.code.find("int b;"), std::string::npos);
  // Newlines survive so line numbers stay aligned.
  EXPECT_EQ(out.code[in.find('\n')], '\n');
}

TEST(ScrubTest, BlanksBlockCommentsAcrossLines) {
  const ScrubbedSource out = Scrub("a /* rand()\n time( */ b\n");
  EXPECT_EQ(out.code.find("rand"), std::string::npos);
  EXPECT_EQ(out.code.find("time"), std::string::npos);
  EXPECT_NE(out.code.find('a'), std::string::npos);
  EXPECT_NE(out.code.find('b'), std::string::npos);
}

TEST(ScrubTest, BlanksStringLiteralContents) {
  const ScrubbedSource out =
      Scrub("auto s = \"rand() and \\\" time(\";\nint x;\n");
  EXPECT_EQ(out.code.find("rand"), std::string::npos);
  EXPECT_EQ(out.code.find("time"), std::string::npos);
  EXPECT_NE(out.code.find("int x;"), std::string::npos);
}

TEST(ScrubTest, BlanksRawStringContents) {
  const ScrubbedSource out =
      Scrub("auto p = R\"(\\brand\\s*\\()\";\nint y;\n");
  EXPECT_EQ(out.code.find("rand"), std::string::npos);
  EXPECT_NE(out.code.find("int y;"), std::string::npos);
}

TEST(ScrubTest, BlanksCharLiteralButNotDigitSeparator) {
  const ScrubbedSource out = Scrub("char c = 'r'; double d = 2'000'000.0;\n");
  EXPECT_EQ(out.code.find("'r'"), std::string::npos);
  // The digit separator must not open a character literal and swallow the
  // rest of the line.
  EXPECT_NE(out.code.find("2'000'000.0"), std::string::npos);
}

TEST(ScrubTest, RecordsSuppressionsWithRuleNames) {
  const ScrubbedSource out = Scrub(
      "int* p = new int;  // nextmaint-lint: allow(naked-new)\n"
      "int q;\n"
      "int r;  // nextmaint-lint: allow(*)\n");
  EXPECT_TRUE(out.IsAllowed(1, "naked-new"));
  EXPECT_FALSE(out.IsAllowed(1, "banned-primitive"));
  EXPECT_FALSE(out.IsAllowed(2, "naked-new"));
  EXPECT_TRUE(out.IsAllowed(3, "naked-new"));
  EXPECT_TRUE(out.IsAllowed(3, "layering"));
}

TEST(ScrubTest, SuppressionListSupportsMultipleRules) {
  const ScrubbedSource out =
      Scrub("x;  // nextmaint-lint: allow(naked-new, banned-primitive)\n");
  EXPECT_TRUE(out.IsAllowed(1, "naked-new"));
  EXPECT_TRUE(out.IsAllowed(1, "banned-primitive"));
  EXPECT_FALSE(out.IsAllowed(1, "layering"));
}

TEST(ScrubTest, LineOfMapsOffsetsToOneBasedLines) {
  const ScrubbedSource out = Scrub("ab\ncd\nef\n");
  EXPECT_EQ(out.LineOf(0), 1);
  EXPECT_EQ(out.LineOf(2), 1);  // the newline belongs to line 1
  EXPECT_EQ(out.LineOf(3), 2);
  EXPECT_EQ(out.LineOf(6), 3);
}

TEST(ExtractQuotedIncludesTest, FindsQuotedIncludesWithLines) {
  const auto includes = ExtractQuotedIncludes(
      "#include <vector>\n"
      "#include \"common/status.h\"\n"
      "\n"
      "  #  include \"core/scheduler.h\"\n");
  ASSERT_EQ(includes.size(), 2u);
  EXPECT_EQ(includes[0].first, 2);
  EXPECT_EQ(includes[0].second, "common/status.h");
  EXPECT_EQ(includes[1].first, 4);
  EXPECT_EQ(includes[1].second, "core/scheduler.h");
}

TEST(ExtractQuotedIncludesTest, IgnoresNonIncludeDirectives) {
  const auto includes =
      ExtractQuotedIncludes("#define X \"core/foo.h\"\n#pragma once\n");
  EXPECT_TRUE(includes.empty());
}

}  // namespace
}  // namespace lint
}  // namespace nextmaint
