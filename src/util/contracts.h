// Debug contracts: machine-checked invariants behind a build flag.
//
// The static analyzer (scripts/jaws_analyzer.py) guards the *code shape* of
// the kernel contract; this header guards the *runtime state*. Core
// containers (EventQueue, SimResource, BufferCache, PrecedenceGraph,
// WorkloadManager) expose an `audit()` method that
// exhaustively re-derives their redundant state — heap order, channel
// accounting, byte conservation, graph acyclicity — and reports the first
// inconsistency through the contract handler. Audits are ordinary methods
// (tests call them in any build); the *automatic* invocation at state
// transitions is compiled only when the JAWS_AUDIT_BUILD CMake option is on,
// FoundationDB-style: the simulation preset pays for aggressive self-checks,
// the default build pays nothing.
//
//   JAWS_INVARIANT(cond, msg)  in audit builds: evaluate `cond`, report a
//                              contract violation when false. No-op (and
//                              `cond` unevaluated) otherwise.
//   JAWS_AUDIT(expr)           in audit builds: evaluate `expr` (typically
//                              `state.audit()`). No-op otherwise.
//
// Violations go through a process-wide handler so tests can assert that an
// audit *fires* without dying; the default handler prints the failing
// expression with its location and aborts.
#pragma once

#include <cstdint>

namespace jaws::util {

/// Callback invoked on a failed JAWS_INVARIANT. `expr` is the stringified
/// condition, `msg` the human explanation.
using ContractHandler = void (*)(const char* file, int line, const char* expr,
                                 const char* msg);

/// Install a violation handler (tests). nullptr restores the default
/// print-and-abort handler. Returns the previously installed handler.
ContractHandler set_contract_handler(ContractHandler handler) noexcept;

/// Number of contract violations reported so far (monotone; never reset).
/// Lets tests assert "this sequence audits clean" without a handler.
std::uint64_t contract_violations() noexcept;

/// Report a violation through the installed handler. Called by the macros
/// and by audit() methods; callable directly from always-compiled code.
void contract_violation(const char* file, int line, const char* expr,
                        const char* msg);

namespace detail {
/// Used by JAWS_INVARIANT so `cond` is evaluated exactly once.
inline bool contract_check(bool ok, const char* file, int line,
                           const char* expr, const char* msg) {
    if (!ok) contract_violation(file, line, expr, msg);
    return ok;
}
}  // namespace detail

}  // namespace jaws::util

#if defined(JAWS_AUDIT_BUILD) && JAWS_AUDIT_BUILD
#define JAWS_INVARIANT(cond, msg) \
    (void)::jaws::util::detail::contract_check((cond), __FILE__, __LINE__, #cond, (msg))
#define JAWS_AUDIT(expr) (void)(expr)
#else
#define JAWS_INVARIANT(cond, msg) ((void)0)
#define JAWS_AUDIT(expr) ((void)0)
#endif

/// Always-on variant for audit() bodies: audit() is callable in every build
/// (tests invoke it directly), so its checks must not compile away. Yields
/// `cond`, so an audit collects its checks with `ok &= JAWS_AUDIT_CHECK(...)`
/// and every violation names the line and condition that failed.
#define JAWS_AUDIT_CHECK(cond, msg) \
    ::jaws::util::detail::contract_check((cond), __FILE__, __LINE__, #cond, (msg))
