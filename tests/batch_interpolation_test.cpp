// Batched == scalar bit-identity for field::BatchInterpolator.
//
// The batched kernel's whole contract is that its restructuring — Morton
// blocked traversal, shared weight planes, fixed-trip-count stencils — is
// invisible in the results: every output is bit-for-bit the sample the
// scalar interpolate() produces. These tests pin that across every order,
// batch sizes {1, 3, 17, 256}, shuffled input orders, positions exactly on
// atom ghost faces and on the torus wrap, plus golden FNV-1a digests so a
// numerical drift that hit *both* kernels equally would still be caught.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <numeric>
#include <vector>

#include "core/direct_executor.h"
#include "core/metrics.h"
#include "field/batch_interpolator.h"
#include "field/grid.h"
#include "field/interpolation.h"
#include "field/synthetic_field.h"
#include "util/morton.h"
#include "util/rng.h"

namespace jaws::field {
namespace {

constexpr InterpOrder kOrders[] = {InterpOrder::kLinear, InterpOrder::kLag4,
                                   InterpOrder::kLag6, InterpOrder::kLag8};
constexpr std::size_t kBatchSizes[] = {1, 3, 17, 256};

GridSpec test_grid() {
    GridSpec g;
    g.voxels_per_side = 64;
    g.atom_side = 16;
    g.ghost = 4;  // room for order-8 kernels on atom faces
    g.timesteps = 2;
    return g;
}

FieldSpec test_field() {
    FieldSpec f;
    f.seed = 77;
    f.modes = 6;
    f.max_wavenumber = 3.0;
    return f;
}

/// Deterministic positions inside `atom`, biased toward the adversarial
/// placements: exact lower/upper faces (the window reaches into the ghost
/// layers) and near-face interior points. Atom 0's lower face sits on the
/// torus wrap: its ghost voxels replicate the far end of the domain.
std::vector<Vec3> make_positions(const GridSpec& grid, const util::Coord3& atom,
                                 std::size_t count, std::uint64_t seed) {
    util::Rng rng(seed);
    const double aext = 1.0 / grid.atoms_per_side();
    std::vector<Vec3> out(count);
    for (std::size_t i = 0; i < count; ++i) {
        const auto axis = [&](std::uint32_t atom_c) {
            switch (rng.uniform_u64(5)) {
                case 0: return atom_c * aext;  // lower face (wrap for atom 0)
                case 1:                        // upper face, inside the domain
                    if (atom_c + 1 < grid.atoms_per_side()) return (atom_c + 1.0) * aext;
                    return atom_c * aext;
                default: return (atom_c + rng.uniform()) * aext;
            }
        };
        out[i] = Vec3{axis(atom.x), axis(atom.y), axis(atom.z)};
    }
    return out;
}

std::vector<FlowSample> scalar_reference(const GridSpec& grid, const VoxelBlock& block,
                                         const util::Coord3& atom,
                                         const std::vector<Vec3>& positions,
                                         InterpOrder order) {
    std::vector<FlowSample> out(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i)
        out[i] = interpolate(grid, block, atom, positions[i], order);
    return out;
}

std::uint64_t digest(const std::vector<FlowSample>& samples) {
    std::uint64_t h = core::kFnvOffset;
    for (const FlowSample& s : samples) {
        const double fields[4] = {s.velocity.x, s.velocity.y, s.velocity.z, s.pressure};
        h = core::fnv1a64(h, fields, sizeof fields);
    }
    return h;
}

class BatchInterpolation : public ::testing::TestWithParam<InterpOrder> {};

TEST_P(BatchInterpolation, BitIdenticalToScalarAcrossBatchSizesAndShuffles) {
    const GridSpec grid = test_grid();
    const SyntheticField synth(test_field());
    const util::Coord3 atom{1, 2, 3};
    const VoxelBlock block(grid, synth, atom, 1);
    BatchInterpolator interp;
    for (const std::size_t count : kBatchSizes) {
        std::vector<Vec3> positions = make_positions(grid, atom, count, 7 + count);
        std::vector<FlowSample> want =
            scalar_reference(grid, block, atom, positions, GetParam());
        for (int shuffle = 0; shuffle < 3; ++shuffle) {
            std::vector<FlowSample> got(count);
            interp.evaluate(grid, block, atom, positions.data(), count, GetParam(),
                            got.data());
            for (std::size_t i = 0; i < count; ++i)
                ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(FlowSample)), 0)
                    << "order " << static_cast<int>(GetParam()) << " batch " << count
                    << " shuffle " << shuffle << " position " << i;
            // Re-evaluate a permuted batch next round; the outputs above were
            // compared slot-by-slot so each permutation is fresh coverage.
            util::Rng rng(100 + static_cast<std::uint64_t>(shuffle));
            for (std::size_t i = count; i > 1; --i) {
                const std::size_t j = rng.uniform_u64(i);
                std::swap(positions[i - 1], positions[j]);
                std::swap(want[i - 1], want[j]);
            }
        }
    }
}

TEST_P(BatchInterpolation, TorusWrapFacesBitIdentical) {
    const GridSpec grid = test_grid();
    const SyntheticField synth(test_field());
    const util::Coord3 atom{0, 0, 0};  // lower faces sit on the torus wrap
    const VoxelBlock block(grid, synth, atom, 0);
    std::vector<Vec3> positions = make_positions(grid, atom, 64, 13);
    positions.push_back(Vec3{0.0, 0.0, 0.0});  // the wrap corner itself
    BatchInterpolator interp;
    std::vector<FlowSample> got(positions.size());
    interp.evaluate(grid, block, atom, positions.data(), positions.size(), GetParam(),
                    got.data());
    const std::vector<FlowSample> want =
        scalar_reference(grid, block, atom, positions, GetParam());
    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                          positions.size() * sizeof(FlowSample)),
              0);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, BatchInterpolation, ::testing::ValuesIn(kOrders));

// Golden digests of the batched kernel over the fixed fixture. These pin the
// *values*, not just batched == scalar agreement: a change that altered both
// kernels identically (different weights, different placement) would slip
// past the equivalence tests but trips these. Regenerate only for a justified
// numerical policy change (see the FP-contraction note in CMakeLists.txt).
TEST(BatchInterpolationGolden, DigestsPinned) {
    const GridSpec grid = test_grid();
    const SyntheticField synth(test_field());
    const util::Coord3 atom{1, 2, 3};
    const VoxelBlock block(grid, synth, atom, 1);
    const std::vector<Vec3> positions = make_positions(grid, atom, 256, 99);
    struct Golden {
        InterpOrder order;
        std::uint64_t digest;
    };
    const Golden goldens[] = {
        {InterpOrder::kLinear, 0x4658fee66db787c3ULL},
        {InterpOrder::kLag4, 0x6c848bbf581436b0ULL},
        {InterpOrder::kLag6, 0xeab96be46832d3a8ULL},
        {InterpOrder::kLag8, 0xedde91997d7bf930ULL},
    };
    BatchInterpolator interp;
    for (const Golden& g : goldens) {
        std::vector<FlowSample> got(positions.size());
        interp.evaluate(grid, block, atom, positions.data(), positions.size(), g.order,
                        got.data());
        EXPECT_EQ(digest(got), g.digest)
            << "order " << static_cast<int>(g.order) << ": digest 0x" << std::hex
            << digest(got);
        EXPECT_EQ(digest(scalar_reference(grid, block, atom, positions, g.order)),
                  g.digest)
            << "scalar path drifted from the pinned golden, order "
            << static_cast<int>(g.order);
    }
}

// DirectExecutor evaluates through the batched kernel: every sample must be
// bit-for-bit the scalar oracle's against the same atom payload, end to end
// through the atom store and the cache.
TEST(DirectExecutorKernel, MatchesScalarReferenceBitForBit) {
    core::EngineConfig config;
    config.grid = test_grid();
    config.field = test_field();
    config.grid.timesteps = 4;
    config.cache.capacity_atoms = 64;  // the whole step: later orders hit
    constexpr std::uint32_t kStep = 2;

    core::DirectExecutor executor(config);
    util::Rng rng(41);
    std::vector<Vec3> positions;
    for (int i = 0; i < 300; ++i)
        positions.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    std::vector<core::DirectResult> got;
    for (const InterpOrder order : kOrders) {
        got.push_back(executor.evaluate(kStep, positions, order));
        ASSERT_EQ(got.back().samples.size(), positions.size());
    }

    std::map<std::uint64_t, std::vector<std::size_t>> by_atom;
    for (std::size_t i = 0; i < positions.size(); ++i)
        by_atom[config.grid.atom_morton_of(positions[i])].push_back(i);
    const SyntheticField synth(config.field);
    for (const auto& [morton, indices] : by_atom) {
        const util::Coord3 atom = util::morton_decode(morton);
        const VoxelBlock block(config.grid, synth, atom, kStep);
        std::vector<Vec3> atom_positions;
        for (const std::size_t i : indices) atom_positions.push_back(positions[i]);
        for (std::size_t k = 0; k < got.size(); ++k) {
            const std::vector<FlowSample> want =
                scalar_reference(config.grid, block, atom, atom_positions, kOrders[k]);
            for (std::size_t j = 0; j < indices.size(); ++j)
                ASSERT_EQ(std::memcmp(&got[k].samples[indices[j]], &want[j],
                                      sizeof(FlowSample)),
                          0)
                    << "order " << static_cast<int>(kOrders[k]) << " position "
                    << indices[j];
        }
    }
}

}  // namespace
}  // namespace jaws::field
