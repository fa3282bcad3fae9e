/// \file bench_timer_accuracy.cpp
/// Reproduces the paper's §II-B flush-timer accuracy experiment: "we
/// observed that the flush timer fires within on average 33 µs of the
/// desired fire time", versus a sleep-based software timer "limited by
/// the time slicing of the Operating System which is in the range of
/// milliseconds".
///
/// Here flush deadlines are served by the workers' progress path, not by
/// a dedicated timer thread, so the experiment measures how late a
/// deadline flush runs (the /timers/time/* lateness) in two regimes:
///   - idle sibling: one of locality 0's two workers is held in a
///     sleeping task, so the locality never goes idle and the other
///     worker, asleep, must wake at the deadline;
///   - short tasks: locality 0's only worker runs an endless stream of
///     ~20 µs tasks, so the deadline is met between two of them.
/// Each sample queues one parcel under (nparcels = 2^20, interval =
/// delay, no sparse bypass) and waits for its deadline flush.  The last
/// column is the paper's rejected design: one sleeping OS thread per
/// timer.
///
///     ./bench_timer_accuracy [samples=200]

#include <coal/parcel/action.hpp>
#include <coal/timing/busy_work.hpp>

#include "bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

namespace {

void tacc_sink(int) {}

}    // namespace

COAL_PLAIN_ACTION(tacc_sink, tacc_sink_action);

namespace {

enum class regime
{
    idle_sibling,
    short_tasks,
};

/// Deadline-flush lateness (µs) of `samples` single-parcel queues armed
/// for `delay_us` on locality 0, under `mode`.
coal::running_stats measure_deadline_flush(
    regime mode, std::int64_t delay_us, std::uint64_t samples)
{
    coal::runtime_config cfg;
    cfg.num_localities = 2;
    cfg.workers_per_locality = mode == regime::idle_sibling ? 2 : 1;
    cfg.apply_coalescing_defaults = false;
    coal::runtime rt(cfg);
    coal::coalescing::coalescing_params params{1u << 20, delay_us};
    params.sparse_bypass = false;
    rt.enable_coalescing(tacc_sink_action::name(), params);

    auto& here = rt.get_locality(0u);
    std::atomic<bool> done{false};
    std::atomic<bool> started{false};
    if (mode == regime::idle_sibling)
    {
        // Sleeps rather than spins, as in bench_ablation_bypass: busy to
        // the scheduler either way, without taking a vCPU.
        here.post([&] {
            started.store(true, std::memory_order_release);
            while (!done.load(std::memory_order_acquire))
                std::this_thread::sleep_for(std::chrono::microseconds(500));
        });
    }
    else
    {
        // A task that re-posts itself: the worker always finds one, so
        // it never idles and meets deadlines only between tasks.
        struct chain
        {
            coal::locality& loc;
            std::atomic<bool>& done;
            void operator()() const
            {
                coal::timing::spin_for_us(20.0);
                if (!done.load(std::memory_order_acquire))
                    loc.post(chain{loc, done});
            }
        };
        here.post([&] {
            started.store(true, std::memory_order_release);
            here.post(chain{here, done});
        });
    }
    while (!started.load(std::memory_order_acquire))
        std::this_thread::yield();

    auto const& counters = here.parcels().counters();
    auto const other = here.find_remote_localities().front();
    coal::running_stats errors;
    for (std::uint64_t i = 0; i != samples; ++i)
    {
        auto const fired =
            counters.deadline_flushes.load(std::memory_order_acquire);
        auto const late_ns =
            counters.deadline_lateness_ns.load(std::memory_order_acquire);
        here.apply<tacc_sink_action>(other, 0);
        while (counters.deadline_flushes.load(std::memory_order_acquire) ==
            fired)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        errors.add(static_cast<double>(counters.deadline_lateness_ns.load(
                       std::memory_order_acquire) -
                       late_ns) /
            1000.0);
    }
    done.store(true, std::memory_order_release);
    rt.stop();
    return errors;
}

/// One OS thread per timer, sleeping until the deadline — the design the
/// paper rejects because wake-up is at the mercy of the scheduler's time
/// slicing.  Returns the wake-up error in µs.
coal::running_stats measure_sleep_timer(
    std::int64_t delay_us, std::uint64_t samples)
{
    coal::running_stats errors;
    for (std::uint64_t i = 0; i != samples; ++i)
    {
        auto const deadline = std::chrono::steady_clock::now() +
            std::chrono::microseconds(delay_us);
        std::int64_t err_ns = 0;
        std::thread t([&] {
            std::this_thread::sleep_until(deadline);
            err_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - deadline)
                         .count();
        });
        t.join();
        errors.add(std::abs(static_cast<double>(err_ns)) / 1000.0);
    }
    return errors;
}

}    // namespace

int main(int argc, char** argv)
{
    auto cfg = coal::bench::parse_cli(argc, argv);
    auto const samples =
        static_cast<std::uint64_t>(cfg.get_int("samples", 200));

    coal::bench::print_header("Flush-deadline accuracy",
        "paper §II-B (dedicated-thread deadline timer, ~33 us mean error)");

    std::printf("%-12s %-24s %-24s %-22s\n", "delay [us]",
        "idle sibling [us]", "short tasks [us]", "sleep timer err [us]");
    std::printf("%-12s %-12s %-11s %-12s %-11s %-11s %-10s\n", "", "mean",
        "max", "mean", "max", "mean", "max");

    double idle_mean_sum = 0.0;
    double idle_max = 0.0;
    double busy_mean_sum = 0.0;
    double busy_max = 0.0;
    double sleep_mean_sum = 0.0;
    int rows = 0;
    for (std::int64_t delay : {500, 1000, 2000, 4000, 10000, 50000})
    {
        auto const idle =
            measure_deadline_flush(regime::idle_sibling, delay, samples);
        auto const busy =
            measure_deadline_flush(regime::short_tasks, delay, samples);
        auto const sleeping = measure_sleep_timer(delay, samples / 4);

        std::printf(
            "%-12lld %-12.2f %-11.2f %-12.2f %-11.2f %-11.2f %-10.2f\n",
            static_cast<long long>(delay), idle.mean(), idle.max(),
            busy.mean(), busy.max(), sleeping.mean(), sleeping.max());

        idle_mean_sum += idle.mean();
        idle_max = std::max(idle_max, idle.max());
        busy_mean_sum += busy.mean();
        busy_max = std::max(busy_max, busy.max());
        sleep_mean_sum += sleeping.mean();
        ++rows;
    }
    std::printf("BENCH {\"bench\":\"timer_accuracy\","
                "\"mean_error_us\":%.2f,\"max_error_us\":%.2f,"
                "\"short_tasks_mean_error_us\":%.2f,"
                "\"short_tasks_max_error_us\":%.2f,"
                "\"sleep_timer_mean_error_us\":%.2f,"
                "\"samples_per_delay\":%llu}\n",
        idle_mean_sum / rows, idle_max, busy_mean_sum / rows, busy_max,
        sleep_mean_sum / rows, static_cast<unsigned long long>(samples));

    std::printf("\npaper reports ~33 us mean error for its dedicated-thread "
                "timer.  Here no thread\nis dedicated: the idle-sibling "
                "column is a sleeping worker woken at the deadline,\nthe "
                "short-task column a busy worker meeting it between tasks.  "
                "The sleep-based\ntimer is at the mercy of OS time slicing "
                "(paper: milliseconds).\n");
    return 0;
}
