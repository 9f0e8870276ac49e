// Adaptive starvation resistance (paper Sec. V-A).
//
// JAWS tunes the age bias alpha of the aged workload-throughput metric
// automatically: the workload is divided into runs of r consecutive queries,
// per-run average response time rt(i) and throughput tp(i) are measured
// (smoothed as rt' = 0.2 rt + 0.8 rt', tp' likewise), and alpha moves by the
// paper's two rules:
//   (1) saturation rising (rt ratio >= 1) and throughput not keeping up
//       (tp ratio < rt ratio): alpha -= min(rt_ratio - tp_ratio, alpha)
//       -> bias towards contention, maximise sharing;
//   (2) saturation falling (rt ratio < 1) but throughput fell even faster
//       (tp ratio < rt ratio): alpha += min(rt_ratio - tp_ratio, 1 - alpha)
//       -> spend spare capacity on response time.
// If two consecutive runs show no change, a small exploration step perturbs
// alpha so it cannot stay stuck at a bad initial value.
#pragma once

#include <cstddef>

#include "util/sim_time.h"
#include "util/stats.h"

namespace jaws::sched {

/// Controller configuration.
struct AdaptiveAlphaConfig {
    double initial_alpha = 0.5;
    /// Queries per run (r). core::Engine overwrites it with
    /// EngineConfig::run_length.
    std::size_t run_length = 200;
    double smoothing = 0.2;           ///< EWMA weight on the newest run.
    double stall_epsilon = 0.02;      ///< Ratios within 1 +/- eps count as "no change".
    double explore_step = 0.08;       ///< Exploration perturbation of alpha.
};

/// Per-run measurement and alpha adjustment.
class AdaptiveAlphaController {
  public:
    explicit AdaptiveAlphaController(const AdaptiveAlphaConfig& config = {});

    /// Record one completed query. Returns true when this completion closed a
    /// run (alpha may have changed; callers re-read alpha() and propagate).
    bool on_query_completed(util::SimTime response_time, util::SimTime now);

    /// Current age bias.
    double alpha() const noexcept { return alpha_; }
    /// Number of completed runs.
    std::size_t runs() const noexcept { return runs_; }
    /// Exploration steps taken (for reports).
    std::size_t explorations() const noexcept { return explorations_; }

  private:
    void close_run(util::SimTime now);

    AdaptiveAlphaConfig config_;
    double alpha_;
    util::Ewma rt_ewma_;
    util::Ewma tp_ewma_;
    double prev_rt_ = 0.0;
    double prev_tp_ = 0.0;
    bool have_prev_ = false;
    std::size_t stall_runs_ = 0;
    double explore_direction_ = 1.0;
    std::size_t explorations_ = 0;

    util::RunningStats run_rt_;
    util::SimTime run_start_;
    bool run_started_ = false;
    std::size_t runs_ = 0;
};

}  // namespace jaws::sched
