#include <coal/adaptive/adaptive_coalescer.hpp>

#include <coal/common/assert.hpp>
#include <coal/common/logging.hpp>
#include <coal/common/stopwatch.hpp>

#include <algorithm>

namespace coal::adaptive {

adaptive_coalescer::adaptive_coalescer(runtime& rt, tuner_config config)
  : runtime_(rt)
  , config_(std::move(config))
{
    COAL_ASSERT_MSG(!config_.action_name.empty(), "tuner needs an action");
    COAL_ASSERT(config_.max_nparcels >= min_nparcels);
    COAL_ASSERT(config_.min_interval_us >= 1);
    COAL_ASSERT(config_.max_interval_us >= config_.min_interval_us);

    auto params =
        rt.get_locality(0u).coalescing().params(config_.action_name);
    COAL_ASSERT_MSG(params.has_value(),
        "coalescing must be enabled for the tuned action before "
        "constructing the adaptive controller");
    base_params_ = *params;
    current_ = std::clamp(
        base_params_.nparcels, min_nparcels, config_.max_nparcels);
    current_interval_ = std::clamp(base_params_.interval_us,
        config_.min_interval_us, config_.max_interval_us);

    overhead_counter_ = rt.counters().get("/threads/background-overhead");
    parcels_counter_ =
        rt.counters().get("/coalescing/count/parcels@" + config_.action_name);
    COAL_ASSERT(overhead_counter_ != nullptr);
    COAL_ASSERT(parcels_counter_ != nullptr);

    // Establish reset baselines so the first tick sees only its window.
    overhead_counter_->reset();
    parcels_counter_->reset();
    last_sample_ns_ = now_ns();
}

std::size_t adaptive_coalescer::step_nparcels(
    std::size_t n, int direction) const
{
    std::size_t const next = direction > 0 ? n * 2 : n / 2;
    return std::clamp(next, min_nparcels, config_.max_nparcels);
}

std::int64_t adaptive_coalescer::step_interval(
    std::int64_t interval_us, int direction) const
{
    std::int64_t const next =
        direction > 0 ? interval_us * 2 : interval_us / 2;
    return std::clamp(
        next, config_.min_interval_us, config_.max_interval_us);
}

std::pair<std::size_t, std::int64_t> adaptive_coalescer::stepped(
    int direction) const
{
    if (dimension_ == dimension::nparcels)
        return {step_nparcels(current_, direction), current_interval_};
    return {current_, step_interval(current_interval_, direction)};
}

bool adaptive_coalescer::at_bound(int direction) const
{
    auto const [n, interval] = stepped(direction);
    return n == current_ && interval == current_interval_;
}

void adaptive_coalescer::apply(std::size_t n, std::int64_t interval_us)
{
    if (n == current_ && interval_us == current_interval_)
        return;
    coalescing::coalescing_params p = base_params_;
    p.nparcels = n;
    p.interval_us = interval_us;
    runtime_.set_coalescing_params(config_.action_name, p);
    current_ = n;
    current_interval_ = interval_us;
    ++decisions_;
}

bool adaptive_coalescer::tick()
{
    std::lock_guard lock(mutex_);
    ++tick_count_;

    std::int64_t const now = now_ns();
    double const window_s =
        static_cast<double>(now - last_sample_ns_) / 1e9;
    last_sample_ns_ = now;

    // Per-window readings (reset-on-read).
    double const overhead = overhead_counter_->value(true).value;
    double const parcels = parcels_counter_->value(true).value;
    double const rate = window_s > 0.0 ? parcels / window_s : 0.0;

    decision_record rec;
    rec.tick = tick_count_;
    rec.nparcels = current_;
    rec.interval_us = current_interval_;
    rec.overhead = overhead;
    rec.parcel_rate = rate;
    rec.next_nparcels = current_;
    rec.next_interval_us = current_interval_;

    // Idle window: no traffic, no decision.  The sparse-traffic bypass in
    // the handler already disables coalescing for us.
    if (parcels < static_cast<double>(config_.min_parcels_per_sample))
    {
        rec.event = "idle";
        history_.push_back(rec);
        return false;
    }

    // Phase-change detection: a large shift in arrival rate means the
    // application entered a different communication regime; previous
    // conclusions no longer apply.
    if (previous_rate_ > 0.0)
    {
        double const ratio = rate > previous_rate_ ?
            rate / previous_rate_ :
            previous_rate_ / rate;
        if (ratio > phase_change_factor && state_ == state::settled)
        {
            state_ = state::warmup;
            dimension_ = dimension::nparcels;
            interval_pass_done_ = false;
            reversed_once_ = false;
            pending_confirmation_ = false;
            direction_ = +1;
            rec.event = "phase-change";
            previous_rate_ = rate;
            history_.push_back(rec);
            return false;
        }
    }
    previous_rate_ = rate;

    bool decided = false;
    switch (state_)
    {
    case state::warmup:
    {
        // Baseline established; start exploring upward (coalescing more
        // is the a-priori promising direction for a busy phase).
        previous_overhead_ = overhead;
        best_overhead_ = overhead;
        best_nparcels_ = current_;
        best_interval_ = current_interval_;
        state_ = state::exploring;
        auto const [n, interval] = stepped(direction_);
        rec.event = "warmup";
        rec.next_nparcels = n;
        rec.next_interval_us = interval;
        decided = n != current_ || interval != current_interval_;
        apply(n, interval);
        break;
    }
    case state::exploring:
    {
        if (overhead < best_overhead_)
        {
            best_overhead_ = overhead;
            best_nparcels_ = current_;
            best_interval_ = current_interval_;
        }

        bool const worsened = overhead >
            previous_overhead_ * (1.0 + config_.improvement_threshold);

        // Noise guard: a single bad window does not justify a reversal.
        // Hold the settings and re-measure; act only if the regression
        // repeats (the paper's counters are per-window samples on a live
        // system — one-off spikes are routine).
        if (worsened && !pending_confirmation_)
        {
            pending_confirmation_ = true;
            rec.event = "confirm";
            history_.push_back(rec);
            return false;    // previous_overhead_ stays as the baseline
        }
        pending_confirmation_ = false;
        previous_overhead_ = overhead;

        auto settle = [&](char const* event) {
            rec.event = event;
            rec.next_nparcels = best_nparcels_;
            rec.next_interval_us = best_interval_;
            decided = best_nparcels_ != current_ ||
                best_interval_ != current_interval_;
            apply(best_nparcels_, best_interval_);

            if (config_.tune_interval && !interval_pass_done_ &&
                dimension_ == dimension::nparcels)
            {
                // Coordinate descent: switch to the wait-time dimension
                // and re-open exploration from the nparcels optimum.
                dimension_ = dimension::interval;
                interval_pass_done_ = true;
                reversed_once_ = false;
                pending_confirmation_ = false;
                direction_ = +1;
                state_ = state::warmup;
            }
            else
            {
                state_ = state::settled;
            }
        };

        if (!worsened && !at_bound(direction_))
        {
            // Keep going while it helps (or is flat) and there is room.
            auto const [n, interval] = stepped(direction_);
            rec.event = "explore";
            rec.next_nparcels = n;
            rec.next_interval_us = interval;
            decided = true;
            apply(n, interval);
        }
        else if (!worsened)
        {
            settle("settle-bound");
        }
        else if (!reversed_once_)
        {
            // Got worse: reverse once and walk back past the best point.
            direction_ = -direction_;
            reversed_once_ = true;
            auto const [n, interval] = stepped(direction_);
            rec.event = "reverse";
            rec.next_nparcels = n;
            rec.next_interval_us = interval;
            decided = n != current_ || interval != current_interval_;
            apply(n, interval);
        }
        else
        {
            // Second reversal would oscillate: settle on the best seen.
            settle("settle");
        }
        break;
    }
    case state::settled:
        rec.event = "hold";
        break;
    }

    history_.push_back(rec);
    return decided;
}

std::size_t adaptive_coalescer::current_nparcels() const
{
    std::lock_guard lock(mutex_);
    return current_;
}

std::int64_t adaptive_coalescer::current_interval_us() const
{
    std::lock_guard lock(mutex_);
    return current_interval_;
}

std::vector<decision_record> adaptive_coalescer::history() const
{
    std::lock_guard lock(mutex_);
    return history_;
}

}    // namespace coal::adaptive
