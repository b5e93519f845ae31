//===- support/Error.h - Fatal-error and unreachable helpers ---*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers for reporting programmatic errors. Invariant violations (caller
/// bugs) abort with a diagnostic, mirroring the LLVM convention of
/// assert/llvm_unreachable. Recoverable *runtime* failures of the
/// distributed layer — a peer that stopped responding, a poisoned world —
/// are different: they depend on external conditions, not on caller
/// correctness, so they are reported as structured icores::Error
/// exceptions carrying the machine-readable failure kind and, under fault
/// injection, the trace of the faults that caused them.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_SUPPORT_ERROR_H
#define ICORES_SUPPORT_ERROR_H

#include <exception>
#include <string>
#include <vector>

namespace icores {

/// Prints \p Msg (with file/line context) to stderr and aborts. Used for
/// invariant violations that must be diagnosed even in release builds.
[[noreturn]] void reportFatalError(const char *Msg, const char *File,
                                   int Line);

/// A structured, recoverable runtime failure. Thrown by the distributed
/// substrate (dist/RankComm.h) when a receive exhausts its retry budget or
/// the world has been poisoned by a failing peer; never thrown for caller
/// bugs (those abort via ICORES_CHECK). The fault trace names the
/// injected faults that provoked the failure, so a seeded chaos run can
/// assert *which* fault it died of.
class Error : public std::exception {
public:
  enum class Kind {
    RecvTimeout,   ///< recv() exhausted its retry/backoff budget.
    WorldPoisoned, ///< A peer rank failed; the world is unusable.
    Generic,       ///< Other structured runtime failure.
  };

  Error(Kind K, std::string Message,
        std::vector<std::string> FaultTrace = {})
      : K(K), Message(std::move(Message)), Trace(std::move(FaultTrace)) {}

  const char *what() const noexcept override { return Message.c_str(); }

  Kind kind() const { return K; }
  const std::string &message() const { return Message; }

  /// The injected faults (as recorded by fault/FaultInjector.h) relevant
  /// to this failure; empty when no fault plan was armed.
  const std::vector<std::string> &faultTrace() const { return Trace; }

private:
  Kind K;
  std::string Message;
  std::vector<std::string> Trace;
};

} // namespace icores

/// Aborts with a message; marks code paths that must never be reached.
#define ICORES_UNREACHABLE(MSG)                                                \
  ::icores::reportFatalError(MSG, __FILE__, __LINE__)

/// Release-mode-checked invariant: unlike assert, this fires in all build
/// configurations. Use for cheap checks guarding memory safety.
#define ICORES_CHECK(COND, MSG)                                                \
  do {                                                                         \
    if (!(COND))                                                               \
      ::icores::reportFatalError(MSG, __FILE__, __LINE__);                     \
  } while (false)

#endif // ICORES_SUPPORT_ERROR_H
