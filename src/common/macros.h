#ifndef NEXTMAINT_COMMON_MACROS_H_
#define NEXTMAINT_COMMON_MACROS_H_

#include <cstdio>
#include <cstdlib>

/// \file macros.h
/// Control-flow macros for Status/Result plumbing and invariant checks.

/// Aborts the process when `condition` is false. Reserved for programmer
/// errors (violated invariants), never for recoverable input errors.
#define NM_CHECK(condition)                                                  \
  do {                                                                       \
    if (!(condition)) {                                                      \
      std::fprintf(stderr, "NM_CHECK failed at %s:%d: %s\n", __FILE__,       \
                   __LINE__, #condition);                                    \
      std::abort();                                                          \
    }                                                                        \
  } while (false)

/// NM_CHECK with an explanatory message.
#define NM_CHECK_MSG(condition, msg)                                         \
  do {                                                                       \
    if (!(condition)) {                                                      \
      std::fprintf(stderr, "NM_CHECK failed at %s:%d: %s (%s)\n", __FILE__,  \
                   __LINE__, #condition, msg);                               \
      std::abort();                                                          \
    }                                                                        \
  } while (false)

#define NM_CONCAT_IMPL(a, b) a##b
#define NM_CONCAT(a, b) NM_CONCAT_IMPL(a, b)

/// Explicitly discards a Status (or Result) that is intentionally ignored.
///
/// `Status` is [[nodiscard]] and every build compiles with
/// -Werror=unused-result, so every dropped error must be voided through this
/// macro.
/// Acceptable only when failure is handled out of band or genuinely benign
/// (e.g. best-effort cleanup on an already-failing path); say why in a
/// comment at the call site.
#define NEXTMAINT_IGNORE_STATUS(expr) static_cast<void>(expr)

/// Evaluates an expression returning Status; propagates non-OK statuses to
/// the caller.
#define NM_RETURN_NOT_OK(expr)                       \
  do {                                               \
    ::nextmaint::Status nm_status_ = (expr);         \
    if (!nm_status_.ok()) return nm_status_;         \
  } while (false)

/// Evaluates an expression returning Result<T>; on success binds the value
/// to `lhs`, otherwise propagates the error status to the caller.
///
///   NM_ASSIGN_OR_RETURN(auto table, csv::ReadTable(path));
#define NM_ASSIGN_OR_RETURN(lhs, rexpr)                               \
  NM_ASSIGN_OR_RETURN_IMPL(NM_CONCAT(nm_result_, __LINE__), lhs, rexpr)

#define NM_ASSIGN_OR_RETURN_IMPL(result_name, lhs, rexpr) \
  auto result_name = (rexpr);                             \
  if (!result_name.ok()) return result_name.status();     \
  lhs = std::move(result_name).ValueOrDie()

#endif  // NEXTMAINT_COMMON_MACROS_H_
