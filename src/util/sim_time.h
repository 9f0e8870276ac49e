// Virtual (simulated) time.
//
// All experiment clocks in this repository are *virtual*: reading an atom from
// the simulated disk or evaluating positions schedules its completion on the
// event kernel's virtual timeline (util::EventQueue) instead of sleeping.
// This is what lets the benches reproduce the paper's multi-hour workloads in
// seconds, deterministically. Time is kept as integer microseconds to avoid
// floating-point drift in long runs.
//
// Arithmetic on SimTime is *overflow-safe*: `+`, `-`, `+=`, `-=` and
// `scaled_by` saturate at the int64 microsecond range instead of wrapping
// (signed overflow would be UB). Under the audit preset (JAWS_AUDIT_BUILD)
// any saturation additionally reports a contract violation, so simulations
// that silently hit the rail are caught in CI. The tick count is private, so
// no call site can reach around these operators: code outside this header
// builds a SimTime from the factories (`from_micros`, `from_seconds`, ...)
// and computes with the typed helpers (`scaled_by`, `minus_clamped`,
// `checked_sum`), reading `raw_micros()` only to serialize or score.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <string>

#include "util/contracts.h"

namespace jaws::util {

/// A point or span of virtual time, in integer microseconds.
class SimTime {
  public:
    constexpr SimTime() noexcept = default;

    static constexpr SimTime zero() noexcept { return SimTime{0}; }
    /// Saturation rails. `max()` doubles as the "never"/"no deadline"
    /// sentinel across the engine and cluster layers.
    static constexpr SimTime max() noexcept {
        return SimTime{std::numeric_limits<std::int64_t>::max()};
    }
    static constexpr SimTime min() noexcept {
        return SimTime{std::numeric_limits<std::int64_t>::min()};
    }
    static constexpr SimTime from_micros(std::int64_t us) noexcept { return SimTime{us}; }
    // Round to the nearest microsecond (half away from zero, like llround):
    // truncation would drop up to 1 us per conversion, and those errors
    // accumulate over the millions of conversions in a long run. Saturating:
    // NaN maps to zero and magnitudes beyond the int64 microsecond range
    // clamp to the extremes — std::llround's result is unspecified there,
    // and heavy-tail specs can legally price a single request past it
    // (found by fuzz/fuzz_disk_model.cpp).
    static SimTime from_millis(double ms) noexcept { return from_real_micros(ms * 1e3); }
    static SimTime from_seconds(double s) noexcept { return from_real_micros(s * 1e6); }
    static SimTime from_real_micros(double us) noexcept {
        // Just below 2^63 (~9.223e18); llround is well-defined within it.
        constexpr double bound = 9.2e18;
        if (std::isnan(us)) return zero();
        if (us >= bound) return max();
        if (us <= -bound) return min();
        return SimTime{std::llround(us)};
    }

    /// Raw microsecond count, for serialization and scoring only. Prefer the
    /// arithmetic helpers for anything that computes with the value.
    constexpr std::int64_t raw_micros() const noexcept { return micros; }

    constexpr double seconds() const noexcept { return static_cast<double>(micros) * 1e-6; }
    constexpr double millis() const noexcept { return static_cast<double>(micros) * 1e-3; }

    /// Saturating addition. Release builds clamp to the rails; audit builds
    /// additionally report a contract violation (compile-time overflow in a
    /// constant expression is a hard error either way).
    friend constexpr SimTime operator+(SimTime a, SimTime b) noexcept {
        std::int64_t sum = 0;
        if (__builtin_add_overflow(a.micros, b.micros, &sum)) {
            JAWS_INVARIANT(false, "SimTime addition overflowed; saturating");
            return b.micros > 0 ? max() : min();
        }
        return SimTime{sum};
    }
    /// Saturating subtraction (same trap-and-clamp policy as `+`).
    friend constexpr SimTime operator-(SimTime a, SimTime b) noexcept {
        std::int64_t diff = 0;
        if (__builtin_sub_overflow(a.micros, b.micros, &diff)) {
            JAWS_INVARIANT(false, "SimTime subtraction overflowed; saturating");
            return b.micros < 0 ? max() : min();
        }
        return SimTime{diff};
    }
    constexpr SimTime& operator+=(SimTime o) noexcept { return *this = *this + o; }
    constexpr SimTime& operator-=(SimTime o) noexcept { return *this = *this - o; }

    /// Saturating scalar multiply: per-unit cost times an integer count
    /// (e.g. per-read latency times a miss count).
    constexpr SimTime scaled_by(std::int64_t factor) const noexcept {
        std::int64_t prod = 0;
        if (__builtin_mul_overflow(micros, factor, &prod)) {
            JAWS_INVARIANT(false, "SimTime scale overflowed; saturating");
            return ((micros < 0) == (factor < 0)) ? max() : min();
        }
        return SimTime{prod};
    }

    /// `max(0, *this - max(0, o))`: subtract a charge that may be partially
    /// or fully unapplied, never going negative. The disk model's tail
    /// cancellation and delay refunds are the canonical users.
    constexpr SimTime minus_clamped(SimTime o) const noexcept {
        const SimTime charged = o > zero() ? o : zero();
        const SimTime rest = *this - charged;
        return rest > zero() ? rest : zero();
    }

    /// Saturating sum of any number of spans (each pairwise step saturates,
    /// so a partial overflow cannot cancel back into range).
    template <class... Rest>
    static constexpr SimTime checked_sum(SimTime first, Rest... rest) noexcept {
        SimTime total = first;
        ((total += rest), ...);
        return total;
    }

    friend constexpr auto operator<=>(SimTime, SimTime) = default;

  private:
    constexpr explicit SimTime(std::int64_t us) noexcept : micros(us) {}

    std::int64_t micros = 0;
};

/// Render as a human-readable duration (used by bench output).
inline std::string to_string(SimTime t) {
    const double s = t.seconds();
    if (s < 1e-3) return std::to_string(t.raw_micros()) + "us";
    if (s < 1.0) return std::to_string(t.raw_micros() / 1000) + "ms";
    return std::to_string(s) + "s";
}

}  // namespace jaws::util
