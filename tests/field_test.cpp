// Tests for the synthetic turbulence field (field/synthetic_field.h).
#include <gtest/gtest.h>

#include <cmath>

#include "field/synthetic_field.h"
#include "util/rng.h"
#include "util/stats.h"

namespace jaws::field {
namespace {

TEST(SyntheticField, DeterministicInSeed) {
    const SyntheticField a({.seed = 5});
    const SyntheticField b({.seed = 5});
    const Vec3 p{0.3, 0.6, 0.9};
    const Vec3 va = a.velocity(p, 0.1), vb = b.velocity(p, 0.1);
    EXPECT_DOUBLE_EQ(va.x, vb.x);
    EXPECT_DOUBLE_EQ(va.y, vb.y);
    EXPECT_DOUBLE_EQ(va.z, vb.z);
    EXPECT_DOUBLE_EQ(a.pressure(p, 0.1), b.pressure(p, 0.1));
}

TEST(SyntheticField, DifferentSeedsDiffer) {
    const SyntheticField a({.seed = 1});
    const SyntheticField b({.seed = 2});
    const Vec3 p{0.25, 0.5, 0.75};
    EXPECT_NE(a.velocity(p, 0.0).x, b.velocity(p, 0.0).x);
}

TEST(SyntheticField, PeriodicOnUnitTorus) {
    const SyntheticField f({.seed = 3});
    const Vec3 p{0.12, 0.34, 0.56};
    const Vec3 q{p.x + 1.0, p.y + 2.0, p.z - 1.0};
    const Vec3 vp = f.velocity(p, 0.2), vq = f.velocity(q, 0.2);
    EXPECT_NEAR(vp.x, vq.x, 1e-9);
    EXPECT_NEAR(vp.y, vq.y, 1e-9);
    EXPECT_NEAR(vp.z, vq.z, 1e-9);
    EXPECT_NEAR(f.pressure(p, 0.2), f.pressure(q, 0.2), 1e-9);
}

TEST(SyntheticField, DivergenceFree) {
    // Numerical divergence via central differences should vanish to O(h^2):
    // the velocity is a curl by construction.
    const SyntheticField f({.seed = 4});
    util::Rng rng(17);
    const double h = 1e-5;
    for (int i = 0; i < 50; ++i) {
        const Vec3 p{rng.uniform(), rng.uniform(), rng.uniform()};
        const double dudx =
            (f.velocity({p.x + h, p.y, p.z}, 0.0).x - f.velocity({p.x - h, p.y, p.z}, 0.0).x) /
            (2 * h);
        const double dvdy =
            (f.velocity({p.x, p.y + h, p.z}, 0.0).y - f.velocity({p.x, p.y - h, p.z}, 0.0).y) /
            (2 * h);
        const double dwdz =
            (f.velocity({p.x, p.y, p.z + h}, 0.0).z - f.velocity({p.x, p.y, p.z - h}, 0.0).z) /
            (2 * h);
        ASSERT_NEAR(dudx + dvdy + dwdz, 0.0, 1e-4);
    }
}

TEST(SyntheticField, RmsVelocityCalibrated) {
    const SyntheticField f({.seed = 6});
    util::Rng rng(18);
    double sum2 = 0.0;
    constexpr int kSamples = 2000;
    for (int i = 0; i < kSamples; ++i) {
        const Vec3 p{rng.uniform(), rng.uniform(), rng.uniform()};
        sum2 += f.velocity(p, 0.0).norm2();
    }
    EXPECT_NEAR(std::sqrt(sum2 / kSamples), 1.0, 0.15);
}

TEST(SyntheticField, SampleMatchesSeparateEvaluation) {
    const SyntheticField f({.seed = 7});
    const Vec3 p{0.4, 0.1, 0.8};
    const FlowSample s = f.sample(p, 0.3);
    const Vec3 v = f.velocity(p, 0.3);
    EXPECT_NEAR(s.velocity.x, v.x, 1e-12);
    EXPECT_NEAR(s.velocity.y, v.y, 1e-12);
    EXPECT_NEAR(s.velocity.z, v.z, 1e-12);
    EXPECT_NEAR(s.pressure, f.pressure(p, 0.3), 1e-12);
}

TEST(SyntheticField, TimeVaries) {
    const SyntheticField f({.seed = 8});
    const Vec3 p{0.5, 0.5, 0.5};
    EXPECT_NE(f.velocity(p, 0.0).x, f.velocity(p, 0.5).x);
}

TEST(Wrap01, MapsIntoUnitInterval) {
    EXPECT_DOUBLE_EQ(wrap01(0.25), 0.25);
    EXPECT_DOUBLE_EQ(wrap01(1.25), 0.25);
    EXPECT_DOUBLE_EQ(wrap01(-0.25), 0.75);
    EXPECT_EQ(wrap01(1.0), 0.0);
    const double w = wrap01(-1e-18);
    EXPECT_GE(w, 0.0);
    EXPECT_LT(w, 1.0);
}

TEST(AdvectRk2, StaysOnTorus) {
    const SyntheticField f({.seed = 9});
    util::Rng rng(19);
    Vec3 p{rng.uniform(), rng.uniform(), rng.uniform()};
    for (int i = 0; i < 100; ++i) {
        p = advect_rk2(f, p, i * 0.01, 0.01);
        ASSERT_GE(p.x, 0.0);
        ASSERT_LT(p.x, 1.0);
        ASSERT_GE(p.y, 0.0);
        ASSERT_LT(p.y, 1.0);
        ASSERT_GE(p.z, 0.0);
        ASSERT_LT(p.z, 1.0);
    }
}

TEST(AdvectRk2, ConvergesToSmallStepLimit) {
    // Two half steps should land closer to the fine solution than one full
    // step of twice the size (2nd-order accuracy sanity check).
    const SyntheticField f({.seed = 10});
    const Vec3 p{0.3, 0.3, 0.3};
    const double dt = 0.02;
    // Reference: many tiny steps.
    Vec3 ref = p;
    for (int i = 0; i < 64; ++i) ref = advect_rk2(f, ref, i * dt / 64, dt / 64);
    const Vec3 coarse = advect_rk2(f, p, 0.0, dt);
    Vec3 fine = advect_rk2(f, p, 0.0, dt / 2);
    fine = advect_rk2(f, fine, dt / 2, dt / 2);
    const auto dist = [](const Vec3& a, const Vec3& b) {
        const Vec3 d = a - b;
        return std::sqrt(d.norm2());
    };
    EXPECT_LT(dist(fine, ref), dist(coarse, ref) + 1e-12);
}

TEST(AdvectRk2, ZeroStepIsIdentity) {
    const SyntheticField f({.seed = 11});
    const Vec3 p{0.6, 0.7, 0.8};
    const Vec3 q = advect_rk2(f, p, 0.0, 0.0);
    EXPECT_DOUBLE_EQ(q.x, p.x);
    EXPECT_DOUBLE_EQ(q.y, p.y);
    EXPECT_DOUBLE_EQ(q.z, p.z);
}

}  // namespace
}  // namespace jaws::field
