#include "field/synthetic_field.h"

#include <cmath>
#include <numbers>

namespace jaws::field {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Target root-mean-square speed: the field is normalised to it.
constexpr double kRmsVelocity = 1.0;

/// Eddy turnover time controlling the mode frequencies.
constexpr double kTimeScale = 1.0;

Vec3 cross(const Vec3& a, const Vec3& b) noexcept {
    return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x};
}
}  // namespace

SyntheticField::SyntheticField(const FieldSpec& spec) : spec_(spec) {
    util::Rng rng(spec.seed);
    modes_.reserve(spec.modes);
    const auto kmax = static_cast<std::int64_t>(spec.max_wavenumber);
    while (modes_.size() < spec.modes) {
        // Integer wavevector (periodicity) with |k| <= kmax, excluding k = 0.
        const std::int64_t kx = rng.uniform_int(-kmax, kmax);
        const std::int64_t ky = rng.uniform_int(-kmax, kmax);
        const std::int64_t kz = rng.uniform_int(-kmax, kmax);
        if (kx == 0 && ky == 0 && kz == 0) continue;
        const Vec3 k{static_cast<double>(kx), static_cast<double>(ky),
                     static_cast<double>(kz)};
        if (k.norm2() > spec.max_wavenumber * spec.max_wavenumber) continue;
        // Random amplitude direction; only the component orthogonal to k
        // contributes to curl, and a k^(-5/6)-ish falloff gives the velocity a
        // decaying spectrum reminiscent of Kolmogorov scaling.
        Vec3 a{rng.normal(), rng.normal(), rng.normal()};
        const double falloff = std::pow(k.norm2(), -5.0 / 12.0);
        Mode m;
        m.wavevector = kTwoPi * k;
        m.amplitude = falloff * a;
        m.frequency = kTwoPi / kTimeScale * std::sqrt(k.norm2()) * 0.35;
        m.phase = rng.uniform(0.0, kTwoPi);
        m.pressure_amp = falloff * rng.normal();
        modes_.push_back(m);
    }
    // Normalise to the target RMS speed by sampling the field.
    util::Rng probe(spec.seed ^ 0x5bd1e995);
    double sum2 = 0.0;
    constexpr int kProbes = 256;
    for (int i = 0; i < kProbes; ++i) {
        const Vec3 p{probe.uniform(), probe.uniform(), probe.uniform()};
        sum2 += velocity(p, 0.0).norm2();
    }
    const double rms = std::sqrt(sum2 / kProbes);
    if (rms > 0.0) {
        const double scale = kRmsVelocity / rms;
        for (auto& m : modes_) m.amplitude = scale * m.amplitude;
    }
}

Vec3 SyntheticField::velocity(const Vec3& p, double t) const noexcept {
    // u = curl A with A = sum a_m cos(k.x + w t + phi):
    // curl(a cos(theta)) = -sin(theta) (k x a).
    Vec3 u;
    for (const auto& m : modes_) {
        const double theta =
            m.wavevector.x * p.x + m.wavevector.y * p.y + m.wavevector.z * p.z +
            m.frequency * t + m.phase;
        const double s = -std::sin(theta);
        const Vec3 ka = cross(m.wavevector, m.amplitude);
        u = u + s * ka;
    }
    return u;
}

double SyntheticField::pressure(const Vec3& p, double t) const noexcept {
    double pr = 0.0;
    for (const auto& m : modes_) {
        const double theta =
            m.wavevector.x * p.x + m.wavevector.y * p.y + m.wavevector.z * p.z +
            m.frequency * t + m.phase;
        pr += m.pressure_amp * std::cos(theta);
    }
    return pr;
}

FlowSample SyntheticField::sample(const Vec3& p, double t) const noexcept {
    FlowSample out;
    for (const auto& m : modes_) {
        const double theta =
            m.wavevector.x * p.x + m.wavevector.y * p.y + m.wavevector.z * p.z +
            m.frequency * t + m.phase;
        const double c = std::cos(theta);
        const double s = -std::sin(theta);
        const Vec3 ka = cross(m.wavevector, m.amplitude);
        out.velocity = out.velocity + s * ka;
        out.pressure += m.pressure_amp * c;
    }
    return out;
}

double wrap01(double v) noexcept {
    v -= std::floor(v);
    // floor can leave exactly 1.0 for tiny negative inputs; fold it back.
    return v >= 1.0 ? 0.0 : v;
}

Vec3 advect_rk2(const SyntheticField& field, const Vec3& p, double t, double dt) noexcept {
    const Vec3 k1 = field.velocity(p, t);
    const Vec3 mid{wrap01(p.x + 0.5 * dt * k1.x), wrap01(p.y + 0.5 * dt * k1.y),
                   wrap01(p.z + 0.5 * dt * k1.z)};
    const Vec3 k2 = field.velocity(mid, t + 0.5 * dt);
    return Vec3{wrap01(p.x + dt * k2.x), wrap01(p.y + dt * k2.y), wrap01(p.z + dt * k2.z)};
}

}  // namespace jaws::field
