#include "sched/adaptive_alpha.h"

#include <algorithm>
#include <cmath>

namespace jaws::sched {

AdaptiveAlphaController::AdaptiveAlphaController(const AdaptiveAlphaConfig& config)
    : config_(config),
      alpha_(config.initial_alpha),
      rt_ewma_(config.smoothing),
      tp_ewma_(config.smoothing) {}

bool AdaptiveAlphaController::on_query_completed(util::SimTime response_time,
                                                 util::SimTime now) {
    if (!run_started_) {
        run_start_ = now;
        run_started_ = true;
    }
    run_rt_.add(response_time.millis());
    if (run_rt_.count() < config_.run_length) return false;
    close_run(now);
    return true;
}

void AdaptiveAlphaController::close_run(util::SimTime now) {
    const double elapsed_s = std::max(1e-9, (now - run_start_).seconds());
    const double rt = rt_ewma_.update(run_rt_.mean());
    const double tp = tp_ewma_.update(static_cast<double>(run_rt_.count()) / elapsed_s);
    ++runs_;
    run_rt_ = util::RunningStats{};
    run_started_ = false;

    if (!have_prev_) {
        prev_rt_ = rt;
        prev_tp_ = tp;
        have_prev_ = true;
        return;
    }
    const double rt_ratio = prev_rt_ > 0.0 ? rt / prev_rt_ : 1.0;
    const double tp_ratio = prev_tp_ > 0.0 ? tp / prev_tp_ : 1.0;
    prev_rt_ = rt;
    prev_tp_ = tp;

    const bool no_change = std::fabs(rt_ratio - 1.0) < config_.stall_epsilon &&
                           std::fabs(tp_ratio - 1.0) < config_.stall_epsilon;
    if (no_change) {
        if (++stall_runs_ >= 2) {
            // Explore the trade-off curve rather than staying stuck
            // (paper: "vary the age bias ... if there is no change during
            // two consecutive runs").
            alpha_ = std::clamp(alpha_ + explore_direction_ * config_.explore_step, 0.0, 1.0);
            // std::clamp returns its bound *exactly* at saturation, so these
            // inequalities hold for just the values `== 0.0 || == 1.0` would.
            if (alpha_ <= 0.0 || alpha_ >= 1.0) explore_direction_ = -explore_direction_;
            ++explorations_;
            stall_runs_ = 0;
        }
        return;
    }
    stall_runs_ = 0;

    if (rt_ratio >= 1.0 && tp_ratio < rt_ratio) {
        // Rule (1): saturation rose and throughput lagged — favour contention.
        alpha_ -= std::min(rt_ratio - tp_ratio, alpha_);
    } else if (rt_ratio < 1.0 && tp_ratio < rt_ratio) {
        // Rule (2): saturation fell and throughput fell faster — favour age.
        alpha_ += std::min(rt_ratio - tp_ratio, 1.0 - alpha_);
    }
    alpha_ = std::clamp(alpha_, 0.0, 1.0);
}

}  // namespace jaws::sched
