// Direct query execution with real data.
//
// The scheduling experiments run descriptor-only (voxel payloads cannot
// change which atoms a query touches), but the example programs want actual
// turbulence values: interpolated velocities to advect particles with,
// pressures to aggregate. DirectExecutor is the thin synchronous path for
// that — atom store with materialisation on, a buffer cache in front, and the
// database-node interpolation kernels — bypassing the batch scheduler the
// way a single interactive session would.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/buffer_cache.h"
#include "core/config.h"
#include "field/interpolation.h"
#include "storage/atom_store.h"
#include "storage/database_node.h"

namespace jaws::core {

/// Result of one direct evaluation.
struct DirectResult {
    std::vector<field::FlowSample> samples;  ///< Parallel to the input positions.
    util::SimTime virtual_cost;              ///< Modelled I/O + compute time.
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
};

/// Statistical array over a sub-volume (the paper's query class (1):
/// "evaluating statistical arrays of turbulence quantities over the entire
/// or parts of the volume", Sec. III-A).
struct VolumeStats {
    std::uint64_t samples = 0;        ///< Sample points evaluated.
    field::Vec3 mean_velocity;        ///< Component-wise mean velocity.
    double rms_velocity = 0.0;        ///< Root-mean-square speed.
    double mean_pressure = 0.0;
    double pressure_variance = 0.0;
    double kinetic_energy = 0.0;      ///< 0.5 * <|u|^2>.
    util::SimTime virtual_cost;       ///< Modelled I/O + compute time.
    std::uint64_t atoms_touched = 0;  ///< Atoms in the box cover.
};

/// Synchronous executor over materialised atoms.
///
/// Touched atoms are read, cached and evaluated one at a time in Morton
/// order, so cost accounting is deterministic; each atom's samples land in
/// its positions' slots of the output vector. Evaluation runs inline:
/// parallel evaluation lives in the engine (EvalSpec), not here.
class DirectExecutor {
  public:
    /// Builds its own store with materialisation forced on; `config.cache`
    /// sizes the private cache.
    explicit DirectExecutor(const EngineConfig& config);

    /// Evaluate velocity+pressure at `positions` within time step `timestep`
    /// using Lagrange interpolation of `order`.
    DirectResult evaluate(std::uint32_t timestep, const std::vector<field::Vec3>& positions,
                          field::InterpOrder order = field::InterpOrder::kLag4);

    /// Statistical array over the axis-aligned box [lo, hi] of time step
    /// `timestep`, sampled on a regular lattice of `samples_per_axis`^3
    /// points (torus coordinates; lo <= hi component-wise, both in [0, 1)).
    /// Atoms of the box cover are visited in Morton order, each read once.
    /// Throws std::invalid_argument naming the argument when
    /// `samples_per_axis` is 0, a coordinate of `lo` or `hi` lies outside
    /// [0, 1) (NaN included), or `lo` exceeds `hi` on some axis.
    VolumeStats evaluate_box(std::uint32_t timestep, const field::Vec3& lo,
                             const field::Vec3& hi, std::uint32_t samples_per_axis = 16,
                             field::InterpOrder order = field::InterpOrder::kLag4);

    /// Ground-truth field (examples compare interpolation against it).
    const field::SyntheticField& field() const noexcept { return store_.field(); }
    /// Dataset geometry.
    const field::GridSpec& grid() const noexcept { return store_.grid(); }
    /// Cache statistics so far.
    const cache::CacheStats& cache_stats() const noexcept { return cache_.stats(); }

  private:
    storage::AtomStore store_;
    cache::BufferCache cache_;
    storage::DatabaseNode db_;
};

}  // namespace jaws::core
