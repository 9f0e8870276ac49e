// Golden gating counters of JAWS_2 at benchmark density.
//
// The repository benchmark fingerprints the schedule (throughput, response
// times, hit rate) but not RunReport::gating, so an admission change that
// left the schedule alone would pass every benchmark run. These goldens pin
// all six GatingStats counters of JAWS_2 (k = 15) on the calibrated trace
// (generator seed 7, default grid): at Fig. 10's 400 jobs, and at 150 jobs
// compressed 16x, the arrival density of perfbench's cluster_saturated.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "workload/generator.h"

namespace jaws {
namespace {

sched::GatingStats jaws2_gating(std::size_t jobs, double speedup) {
    core::EngineConfig config;
    const field::SyntheticField field(config.field);
    workload::WorkloadSpec spec;
    spec.jobs = jobs;
    spec.seed = 7;
    workload::Workload trace = workload::generate_workload(spec, config.grid, field);
    if (speedup != 1.0) workload::apply_speedup(trace, speedup);
    config.scheduler.kind = core::SchedulerKind::kJaws;
    config.scheduler.jaws.batch_size_k = 15;
    config.scheduler.jaws.job_aware = true;
    core::Engine engine(config);
    return engine.run(trace).gating;
}

TEST(GatingGolden, Jaws2OnTheFig10Trace) {
    const sched::GatingStats s = jaws2_gating(400, 1.0);
    EXPECT_EQ(s.alignments_run, 15576u);
    EXPECT_EQ(s.edges_admitted, 7172u);
    EXPECT_EQ(s.edges_rejected_gating_number, 10434u);
    EXPECT_EQ(s.edges_rejected_crossing, 5138u);
    EXPECT_EQ(s.edges_rejected_deadlock, 483u);
    EXPECT_EQ(s.forced_promotions, 0u);
}

TEST(GatingGolden, Jaws2AtClusterSaturatedDensity) {
    const sched::GatingStats s = jaws2_gating(150, 16.0);
    EXPECT_EQ(s.alignments_run, 2080u);
    EXPECT_EQ(s.edges_admitted, 1715u);
    EXPECT_EQ(s.edges_rejected_gating_number, 1467u);
    EXPECT_EQ(s.edges_rejected_crossing, 996u);
    EXPECT_EQ(s.edges_rejected_deadlock, 5u);
    EXPECT_EQ(s.forced_promotions, 0u);
}

}  // namespace
}  // namespace jaws
