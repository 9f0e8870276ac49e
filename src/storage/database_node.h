// Database node executor.
//
// In the Turbulence cluster each node evaluates "sub-queries": lists of
// positions that all fall within one atom, executed in a single pass over
// that atom's data (paper Sec. III-B). This executor performs that evaluation:
// it charges the per-position computation cost T_m on the virtual clock and —
// when the atom's voxel payload is materialised — actually interpolates
// velocity/pressure at each position, so example programs obtain real values.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "field/grid.h"
#include "field/interpolation.h"
#include "storage/atom.h"
#include "util/sim_time.h"

namespace jaws::storage {

/// What a sub-query computes at each position.
enum class ComputeKind : std::uint8_t {
    kVelocity,  ///< Interpolated velocity vector.
    kPressure,  ///< Interpolated pressure.
    kFlowStats, ///< Aggregate statistics of velocity magnitude over positions.
};

/// Virtual-time cost constants of computation (T_m in Eq. 1).
struct CostModel {
    double t_m_us = 40.0;  ///< Virtual microseconds of compute per position.
};

/// One unit of executable work: the explicit positions of a single query
/// falling inside a single atom.
struct SubQueryExec {
    AtomId atom;
    /// A slice of the query's positions, every one inside `atom`; the caller
    /// keeps them alive until execute() returns.
    std::span<const field::Vec3> positions;
    field::InterpOrder order = field::InterpOrder::kLag4;
    ComputeKind kind = ComputeKind::kVelocity;
};

/// Stateless executor bound to a grid geometry and cost model.
///
/// Materialised sub-queries evaluate through the batched SIMD-friendly
/// field::BatchInterpolator. It is bit-identical to the scalar
/// field::interpolate, which stays as the oracle for tests and fuzzing.
class DatabaseNode {
  public:
    DatabaseNode(const field::GridSpec& grid, const CostModel& cost)
        : grid_(grid), cost_(cost) {}

    /// Execute `work` against `data` (the atom's voxel payload): one sample
    /// per position, in the positions' order. Samples are produced only
    /// when both data and positions are present; the virtual time it costs
    /// is modeled_cost(work.positions.size()).
    std::vector<field::FlowSample> execute(const SubQueryExec& work,
                                           const field::VoxelBlock* data) const;

    /// Virtual compute time of evaluating `positions` positions (T_m per
    /// position, Eq. 1), without evaluating anything. The engine charges
    /// this on SimResource as the authoritative service duration of a
    /// sub-query, from its descriptor alone, whether the real interpolation
    /// runs inline, on the evaluation pool, or not at all.
    util::SimTime modeled_cost(std::uint64_t positions) const noexcept;

  private:
    field::GridSpec grid_;
    CostModel cost_;
};

}  // namespace jaws::storage
