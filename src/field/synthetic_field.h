// Synthetic turbulence field.
//
// The paper's dataset is a 27 TB direct numerical simulation of isotropic
// turbulence (velocity + pressure on a 1024^3 grid over 1024 time steps). We
// cannot ship that, so this module synthesises a statistically turbulence-like
// field that is:
//   * divergence-free  — velocity is the curl of a random vector potential,
//     so particle advection behaves like an incompressible flow;
//   * deterministic    — fully determined by a seed, so experiments reproduce;
//   * analytic         — evaluable at any continuous (x, y, z, t) without
//     storing voxels, which lets the storage layer materialise atoms lazily.
//
// The substitution preserves what JAWS actually depends on: queries touch the
// same *atoms* regardless of voxel values, and particle-tracking jobs gain
// genuine data dependencies because the next query's positions are computed
// from velocities interpolated out of the previous query's result.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace jaws::field {

/// A 3-component velocity sample.
struct Vec3 {
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;

    friend Vec3 operator+(Vec3 a, Vec3 b) noexcept {
        return {a.x + b.x, a.y + b.y, a.z + b.z};
    }
    friend Vec3 operator-(Vec3 a, Vec3 b) noexcept {
        return {a.x - b.x, a.y - b.y, a.z - b.z};
    }
    friend Vec3 operator*(double s, Vec3 v) noexcept { return {s * v.x, s * v.y, s * v.z}; }
    double norm2() const noexcept { return x * x + y * y + z * z; }
};

/// One velocity + pressure sample.
struct FlowSample {
    Vec3 velocity;
    double pressure = 0.0;
};

/// Parameters of the synthetic field. Its root-mean-square speed (1.0) and
/// eddy turnover time (1.0) are calibration constants of synthetic_field.cpp.
struct FieldSpec {
    std::uint64_t seed = 42;     ///< Determines all mode amplitudes/phases.
    std::size_t modes = 24;      ///< Number of Fourier modes in the potential.
    double max_wavenumber = 6.0; ///< Spectral support (integer wavevectors up to this).
};

/// Periodic, incompressible synthetic flow on the unit torus [0, 1)^3.
///
/// velocity(x, t) = curl A(x, t) with
/// A(x, t) = sum_m a_m cos(2*pi*(k_m . x) + w_m t + phi_m),
/// which is divergence-free by construction. Pressure is a separate random
/// scalar sum with the same spectral support.
class SyntheticField {
  public:
    /// Build the mode table from `spec` (deterministic in spec.seed).
    explicit SyntheticField(const FieldSpec& spec = {});

    /// Velocity at continuous position `p` (torus coordinates) and time `t`.
    Vec3 velocity(const Vec3& p, double t) const noexcept;

    /// Pressure at continuous position `p` and time `t`.
    double pressure(const Vec3& p, double t) const noexcept;

    /// Velocity + pressure together (one trig pass over the modes).
    FlowSample sample(const Vec3& p, double t) const noexcept;

    /// The spec this field was built from.
    const FieldSpec& spec() const noexcept { return spec_; }

  private:
    struct Mode {
        Vec3 wavevector;   // 2*pi*k, k integer components
        Vec3 amplitude;    // vector-potential amplitude (orthogonalised below)
        double frequency;  // temporal angular frequency
        double phase;      // random phase offset
        double pressure_amp;
    };

    FieldSpec spec_;
    std::vector<Mode> modes_;
};

/// Advance `p` one explicit midpoint (RK2) step of length `dt` through the
/// field — the advection kernel used by particle-tracking jobs. Coordinates
/// wrap on the unit torus.
Vec3 advect_rk2(const SyntheticField& field, const Vec3& p, double t, double dt) noexcept;

/// Wrap a coordinate onto the unit torus [0, 1).
double wrap01(double v) noexcept;

}  // namespace jaws::field
