#include "lint/rules.h"

#include <cctype>
#include <regex>

#include "common/strings.h"

namespace nextmaint {
namespace lint {
namespace {

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Last identifier ending at `end` (exclusive) in `text`, or "" when the
/// preceding token is not an identifier. Skips whitespace first.
std::string IdentifierEndingAt(const std::string& text, size_t end) {
  size_t stop = end;
  while (stop > 0 &&
         std::isspace(static_cast<unsigned char>(text[stop - 1])) != 0) {
    --stop;
  }
  size_t start = stop;
  while (start > 0 && IsWordChar(text[start - 1])) --start;
  if (start == stop) return "";
  return text.substr(start, stop - start);
}

}  // namespace

const char* RuleName(Rule rule) {
  switch (rule) {
    case Rule::kBannedPrimitive:
      return "banned-primitive";
    case Rule::kLayering:
      return "layering";
    case Rule::kNakedNew:
      return "naked-new";
    case Rule::kRowIteration:
      return "row-iteration";
    case Rule::kGuardedMutex:
      return "guarded-mutex";
    case Rule::kLockAnnotationDrift:
      return "lock-annotation-drift";
  }
  return "unknown";
}

std::string Finding::ToString() const {
  return StrFormat("%s:%d: [%s] %s", path.c_str(), line, RuleName(rule),
                   message.c_str());
}

bool PathMatchesSuffix(const std::string& path,
                       const std::vector<std::string>& suffixes) {
  for (const std::string& suffix : suffixes) {
    if (path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      return true;
    }
  }
  return false;
}

bool PathMatchesPrefix(const std::string& path,
                       const std::vector<std::string>& prefixes) {
  for (const std::string& prefix : prefixes) {
    if (path.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

std::vector<Finding> CheckGuardedMutex(const std::string& path,
                                       const ScrubbedSource& src,
                                       const RulePolicy& policy) {
  std::vector<Finding> findings;
  if (PathMatchesSuffix(path, policy.thread_wrapper_allowlist)) {
    return findings;
  }
  // Mutex-typed member/global declarations: `Mutex name;` /
  // `mutable std::mutex name;`. References and parameters (`Mutex& mu`)
  // deliberately do not match — only owning declarations need a guard.
  static const std::regex* const kMutexDecl =
      new std::regex(  // nextmaint-lint: allow(naked-new)
          R"((?:\bmutable\s+)?\b(std\s*::\s*mutex|(?:nextmaint\s*::\s*)?Mutex)\s+([A-Za-z_]\w*)\s*;)");
  for (std::sregex_iterator it(src.code.begin(), src.code.end(), *kMutexDecl),
       end;
       it != end; ++it) {
    const int line = src.LineOf(static_cast<size_t>(it->position()));
    if (src.IsAllowed(line, RuleName(Rule::kGuardedMutex))) continue;
    const std::string name = (*it)[2];
    const bool raw = (*it)[1].str().find("std") != std::string::npos;
    if (raw && !PathMatchesPrefix(path, policy.raw_mutex_prefixes)) {
      findings.push_back(
          {path, line, Rule::kGuardedMutex,
           StrFormat("raw std::mutex '%s' is invisible to -Wthread-safety; "
                     "use nextmaint::Mutex from common/thread_annotations.h",
                     name.c_str())});
    }
    // The declared mutex must guard at least one field in this file.
    const std::regex guarded(R"(\b(?:PT_)?GUARDED_BY\s*\(\s*)" + name +
                             R"(\s*\))");
    if (!std::regex_search(src.code, guarded)) {
      findings.push_back(
          {path, line, Rule::kGuardedMutex,
           StrFormat("mutex '%s' guards nothing; annotate at least one "
                     "sibling field GUARDED_BY(%s) (or remove the mutex)",
                     name.c_str(), name.c_str())});
    }
  }
  return findings;
}

std::vector<Finding> CheckLockAnnotationDrift(const std::string& path,
                                              const ScrubbedSource& src,
                                              const RulePolicy& policy) {
  std::vector<Finding> findings;
  if (PathMatchesSuffix(path, policy.thread_wrapper_allowlist)) {
    return findings;
  }
  // Raw std:: locking vocabulary. Locks taken through these are invisible
  // to the Clang analysis, so the REQUIRES/EXCLUDES annotations on the
  // surrounding functions silently drift out of sync with reality.
  static const std::regex* const kRawLocking =
      new std::regex(  // nextmaint-lint: allow(naked-new)
          R"(\bstd\s*::\s*(lock_guard|unique_lock|scoped_lock|shared_lock|condition_variable(?:_any)?|recursive_timed_mutex|recursive_mutex|shared_mutex|timed_mutex)\b)");
  for (std::sregex_iterator it(src.code.begin(), src.code.end(), *kRawLocking),
       end;
       it != end; ++it) {
    const int line = src.LineOf(static_cast<size_t>(it->position()));
    if (src.IsAllowed(line, RuleName(Rule::kLockAnnotationDrift))) continue;
    findings.push_back(
        {path, line, Rule::kLockAnnotationDrift,
         StrFormat("std::%s bypasses the annotated locking layer; lock "
                   "through Mutex/MutexLock/CondVar "
                   "(common/thread_annotations.h) so -Wthread-safety sees "
                   "it and keep REQUIRES/EXCLUDES on the locking function's "
                   "declaration",
                   it->str(1).c_str())});
  }
  // Suppressions are a last resort everywhere, and banned outright in the
  // subsystems whose lock discipline the serving stack depends on.
  static const std::regex* const kNoAnalysis =
      new std::regex(  // nextmaint-lint: allow(naked-new)
          R"(\bNO_THREAD_SAFETY_ANALYSIS\b)");
  if (PathMatchesPrefix(path, policy.no_analysis_banned_prefixes)) {
    for (std::sregex_iterator it(src.code.begin(), src.code.end(),
                                 *kNoAnalysis),
         end;
         it != end; ++it) {
      const int line = src.LineOf(static_cast<size_t>(it->position()));
      if (src.IsAllowed(line, RuleName(Rule::kLockAnnotationDrift))) continue;
      findings.push_back(
          {path, line, Rule::kLockAnnotationDrift,
           "NO_THREAD_SAFETY_ANALYSIS is banned in this subsystem; restate "
           "the locking so the analysis can prove it "
           "(docs/static-analysis.md#thread-safety-analysis)"});
    }
  }
  return findings;
}

std::vector<Finding> CheckBannedPrimitives(const std::string& path,
                                           const ScrubbedSource& src,
                                           const RulePolicy& policy) {
  std::vector<Finding> findings;
  if (PathMatchesSuffix(path, policy.banned_primitive_allowlist)) {
    return findings;
  }
  struct Banned {
    std::regex pattern;
    const char* what;
  };
  // The scrubbed text has comments and literals blanked, so these match
  // only real code tokens. Leaky singleton: regexes compile once.
  static const std::vector<Banned>* const kBanned =
      new std::vector<Banned>{  // nextmaint-lint: allow(naked-new)
      {std::regex(R"(\brand\s*\()"),
       "rand() is nondeterministic; use a seeded common/rng.h Rng"},
      {std::regex(R"(\bsrand\s*\()"),
       "srand() seeds global state; use a seeded common/rng.h Rng"},
      {std::regex(R"(\brandom_device\b)"),
       "std::random_device is nondeterministic; use a seeded common/rng.h "
       "Rng"},
      {std::regex(R"(\btime\s*\()"),
       "time() reads the wall clock; results must not depend on it"},
      {std::regex(R"(\bgettimeofday\s*\()"),
       "gettimeofday() reads the wall clock; results must not depend on it"},
      {std::regex(R"(\bsystem_clock\b)"),
       "system_clock is the wall clock; use steady_clock for durations and "
       "a seeded Rng for randomness"},
  };
  for (const Banned& banned : *kBanned) {
    for (std::sregex_iterator it(src.code.begin(), src.code.end(),
                                 banned.pattern),
         end;
         it != end; ++it) {
      const int line = src.LineOf(static_cast<size_t>(it->position()));
      if (src.IsAllowed(line, RuleName(Rule::kBannedPrimitive))) continue;
      findings.push_back(
          {path, line, Rule::kBannedPrimitive, banned.what});
    }
  }
  return findings;
}

std::vector<Finding> CheckNakedNew(const std::string& path,
                                   const ScrubbedSource& src,
                                   const RulePolicy& policy) {
  std::vector<Finding> findings;
  if (PathMatchesSuffix(path, policy.naked_new_allowlist)) return findings;
  static const std::regex* const kNewOrDelete =
      new std::regex(R"(\b(new|delete)\b)");  // nextmaint-lint: allow(naked-new)
  const std::string& code = src.code;
  for (std::sregex_iterator it(code.begin(), code.end(), *kNewOrDelete), end;
       it != end; ++it) {
    const size_t pos = static_cast<size_t>(it->position());
    const bool is_new = (*it)[1] == "new";
    // `operator new` / `operator delete` declarations are not expressions.
    if (IdentifierEndingAt(code, pos) == "operator") continue;
    size_t after = pos + (*it)[1].length();
    while (after < code.size() &&
           std::isspace(static_cast<unsigned char>(code[after])) != 0) {
      ++after;
    }
    if (is_new) {
      // A new-expression is followed by a type or placement parens.
      if (after >= code.size() ||
          (!IsWordChar(code[after]) && code[after] != '(' &&
           code[after] != ':')) {
        continue;
      }
    } else {
      // `= delete;` / `= delete` declarations: skip when preceded by '='
      // or when no operand follows.
      size_t before = pos;
      while (before > 0 &&
             std::isspace(static_cast<unsigned char>(code[before - 1])) != 0) {
        --before;
      }
      if (before > 0 && code[before - 1] == '=') continue;
      if (after < code.size() && code[after] == '[') {
        after = code.find(']', after);
        if (after == std::string::npos) continue;
        ++after;
        while (after < code.size() &&
               std::isspace(static_cast<unsigned char>(code[after])) != 0) {
          ++after;
        }
      }
      if (after >= code.size() ||
          (!IsWordChar(code[after]) && code[after] != '(' &&
           code[after] != '*')) {
        continue;
      }
    }
    const int line = src.LineOf(pos);
    if (src.IsAllowed(line, RuleName(Rule::kNakedNew))) continue;
    findings.push_back(
        {path, line, Rule::kNakedNew,
         is_new ? "naked new; use std::make_unique / std::make_shared or a "
                  "container"
                : "naked delete; owning pointers must be smart pointers"});
  }
  return findings;
}

std::vector<Finding> CheckLayering(const std::string& path,
                                   const std::string& content,
                                   const ScrubbedSource& src,
                                   const RulePolicy& policy) {
  std::vector<Finding> findings;
  // The layer of this file: longest configured prefix that matches.
  const std::map<std::string, std::set<std::string>>& layers = policy.layers;
  std::string file_layer;
  for (const auto& [prefix, allowed] : layers) {
    (void)allowed;
    if (path.rfind(prefix + "/", 0) == 0 && prefix.size() > file_layer.size()) {
      file_layer = prefix;
    }
  }
  if (file_layer.empty()) return findings;  // unconstrained directory
  const std::set<std::string>& allowed = layers.at(file_layer);

  for (const auto& [line, include] : ExtractQuotedIncludes(content)) {
    if (src.IsAllowed(line, RuleName(Rule::kLayering))) continue;
    if (include.find('/') == std::string::npos) {
      // The umbrella header (nextmaint.h) aggregates every layer; layered
      // code must include the specific headers it uses instead.
      if (include == "nextmaint.h") {
        findings.push_back({path, line, Rule::kLayering,
                            "layered code must not include the umbrella "
                            "header nextmaint.h"});
      }
      continue;
    }
    const std::string include_layer =
        "src/" + include.substr(0, include.find('/'));
    if (layers.find(include_layer) == layers.end()) continue;
    if (allowed.count(include_layer) == 0) {
      findings.push_back(
          {path, line, Rule::kLayering,
           StrFormat("%s must not include %s (allowed layers: %s)",
                     file_layer.c_str(), include.c_str(),
                     Join(std::vector<std::string>(allowed.begin(),
                                                   allowed.end()),
                          ", ")
                         .c_str())});
    }
  }
  return findings;
}

std::vector<Finding> CheckRowIteration(const std::string& path,
                                       const std::string& content,
                                       const ScrubbedSource& src,
                                       const RulePolicy& policy) {
  std::vector<Finding> findings;
  if (!PathMatchesSuffix(path, policy.row_iteration_paths)) return findings;
  for (const auto& [line, include] : ExtractQuotedIncludes(content)) {
    if (include != "ml/matrix.h" && include != "ml/dataset.h") continue;
    if (src.IsAllowed(line, RuleName(Rule::kRowIteration))) continue;
    findings.push_back(
        {path, line, Rule::kRowIteration,
         StrFormat("histogram kernels are columnar; include "
                   "ml/binned_dataset.h and consume a BinSource instead of "
                   "%s",
                   include.c_str())});
  }
  static const std::regex* const kRowAccess =
      new std::regex(  // nextmaint-lint: allow(naked-new)
          R"((?:\.|->)\s*(Row|Col)\s*\()");
  for (std::sregex_iterator it(src.code.begin(), src.code.end(), *kRowAccess),
       end;
       it != end; ++it) {
    const int line = src.LineOf(static_cast<size_t>(it->position()));
    if (src.IsAllowed(line, RuleName(Rule::kRowIteration))) continue;
    findings.push_back(
        {path, line, Rule::kRowIteration,
         StrFormat("raw %s() access in a histogram kernel; go through the "
                   "BinSource (BinnedDataset or OnTheFlyBins) instead",
                   it->str(1).c_str())});
  }
  return findings;
}

}  // namespace lint
}  // namespace nextmaint
