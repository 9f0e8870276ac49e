#include "storage/database_node.h"

#include <cmath>

#include "field/batch_interpolator.h"
#include "util/morton.h"

namespace jaws::storage {

util::SimTime DatabaseNode::modeled_cost(const SubQueryExec& work) const noexcept {
    return util::SimTime::from_micros(
        static_cast<std::int64_t>(cost_.t_m_us * static_cast<double>(work.count())));
}

ExecOutcome DatabaseNode::execute(const SubQueryExec& work,
                                  const field::VoxelBlock* data) const {
    ExecOutcome out;
    if (data == nullptr || work.positions.empty()) return out;

    const util::Coord3 atom_coord = util::morton_decode(work.atom.morton);
    out.samples.resize(work.positions.size());
    // One scratch arena per thread: execute() runs concurrently on the
    // evaluation pool, and the interpolator's weight planes amortise across
    // every sub-query a worker evaluates.
    thread_local field::BatchInterpolator interp;
    interp.evaluate(grid_, *data, atom_coord, work.positions.data(), work.positions.size(),
                    work.order, out.samples.data());
    if (work.kind == ComputeKind::kFlowStats) {
        // Collapse to magnitude in the velocity.x slot; aggregation over
        // positions happens in the caller, which sees all samples.
        for (field::FlowSample& s : out.samples) {
            const double mag = std::sqrt(s.velocity.norm2());
            s.velocity = field::Vec3{mag, 0.0, 0.0};
        }
    }
    return out;
}

}  // namespace jaws::storage
