#pragma once

/// \file adaptive_coalescer.hpp
/// Adaptive tuning of coalescing parameters from the paper's introspection
/// metrics — the capability the paper motivates as its end goal (§I, §V)
/// but leaves as future work ("our aim is to eventually use these metrics
/// to tune, at runtime, parameters relating to active message
/// coalescing").  This module is therefore an *extension* of the paper,
/// built exactly the way §V prescribes:
///
///  - it samples the new intrinsic counters in real time
///    (`/threads/background-overhead` — Eq. 4 — and the per-action
///    coalescing counters), rather than relying on per-iteration timing
///    like Charm++'s PICS, so it works for applications without an
///    iterative structure;
///  - it detects *phase changes* from the parcel arrival rate and
///    re-opens exploration when the communication behaviour shifts;
///  - it hill-climbs `nparcels` in ×2 steps, settling when reversals
///    bracket a minimum of the measured overhead.
///
/// The caller pumps the controller: each `tick()` samples one window
/// and possibly moves a parameter, so tests drive it deterministically
/// and benches tick at their own cadence (once per phase or step).

#include <coal/core/coalescing_params.hpp>
#include <coal/perf/counter.hpp>
#include <coal/runtime/runtime.hpp>

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace coal::adaptive {

struct tuner_config
{
    std::string action_name;

    /// Upper search bound for nparcels (inclusive, explored in ×2 steps
    /// from adaptive_coalescer::min_nparcels).
    std::size_t max_nparcels = 512;

    /// Relative overhead change required to call a move "worse" (the
    /// hysteresis band).  Each ×2 step changes message counts by 2×, so
    /// genuine effects comfortably clear 10%; smaller values make the
    /// controller jumpy on noisy hosts.
    double improvement_threshold = 0.10;

    /// Ignore samples with fewer parcels than this (idle phases must not
    /// trigger decisions).
    std::uint64_t min_parcels_per_sample = 64;

    /// Also tune the flush wait time after nparcels settles (coordinate
    /// descent over the paper's full parameter space, §VI's "broad set
    /// of messaging parameters").
    bool tune_interval = false;
    std::int64_t min_interval_us = 500;
    std::int64_t max_interval_us = 16000;
};

/// One controller observation/decision, for analysis and the bench.
struct decision_record
{
    std::uint64_t tick = 0;
    std::size_t nparcels = 0;          ///< value that produced this sample
    std::int64_t interval_us = 0;      ///< wait time during the sample
    double overhead = 0.0;             ///< Eq. 4 over the sample window
    double parcel_rate = 0.0;          ///< parcels/s over the window
    std::size_t next_nparcels = 0;     ///< value chosen for the next window
    std::int64_t next_interval_us = 0;
    char const* event = "";            ///< "explore", "reverse", "settle", ...
};

class adaptive_coalescer
{
public:
    adaptive_coalescer(runtime& rt, tuner_config config);

    adaptive_coalescer(adaptive_coalescer const&) = delete;
    adaptive_coalescer& operator=(adaptive_coalescer const&) = delete;

    /// Lower search bound for nparcels (1 = coalescing off).
    static constexpr std::size_t min_nparcels = 1;

    /// Relative change in parcel arrival rate that signals a new
    /// application phase and re-opens exploration.
    static constexpr double phase_change_factor = 3.0;

    /// Take one sample and possibly adjust nparcels.  Returns true if a
    /// decision (parameter change) was made.
    bool tick();

    [[nodiscard]] std::size_t current_nparcels() const;
    [[nodiscard]] std::int64_t current_interval_us() const;

    /// True once exploration bracketed a minimum (until a phase change).
    [[nodiscard]] bool converged() const noexcept
    {
        return state_ == state::settled;
    }

    /// Number of parameter *changes* made so far (the PICS comparison:
    /// their controller converged in 5 decisions).
    [[nodiscard]] std::uint64_t decisions() const noexcept
    {
        return decisions_;
    }

    [[nodiscard]] std::vector<decision_record> history() const;

private:
    enum class state
    {
        warmup,       ///< first usable sample establishes the baseline
        exploring,    ///< moving in `direction_` while overhead improves
        settled,      ///< minimum bracketed; holding
    };

    /// Coordinate-descent dimension currently being explored.
    enum class dimension
    {
        nparcels,
        interval,
    };

    void apply(std::size_t n, std::int64_t interval_us);
    [[nodiscard]] std::size_t step_nparcels(
        std::size_t n, int direction) const;
    [[nodiscard]] std::int64_t step_interval(
        std::int64_t interval_us, int direction) const;

    /// Current value of the active dimension / step along it (as a pair
    /// of candidate settings).
    [[nodiscard]] std::pair<std::size_t, std::int64_t> stepped(
        int direction) const;
    [[nodiscard]] bool at_bound(int direction) const;

    runtime& runtime_;
    tuner_config config_;
    coalescing::coalescing_params base_params_;

    perf::counter_ptr overhead_counter_;
    perf::counter_ptr parcels_counter_;

    mutable std::mutex mutex_;
    std::vector<decision_record> history_;

    state state_ = state::warmup;
    dimension dimension_ = dimension::nparcels;
    bool interval_pass_done_ = false;
    int direction_ = +1;
    bool reversed_once_ = false;
    bool pending_confirmation_ = false;
    std::size_t current_ = 0;
    std::int64_t current_interval_ = 0;
    double previous_overhead_ = 0.0;
    double previous_rate_ = -1.0;
    double best_overhead_ = 0.0;
    std::size_t best_nparcels_ = 0;
    std::int64_t best_interval_ = 0;
    std::uint64_t tick_count_ = 0;
    std::uint64_t decisions_ = 0;
    std::int64_t last_sample_ns_ = 0;
};

}    // namespace coal::adaptive
