/// \file bench_ablation_bypass.cpp
/// Ablation: the sparse-traffic bypass of Algorithm 1 ("we overcome this
/// hurdle by coalescing the scheduled parcels only when the time between
/// them is less than the maximum wait time", §II-B).  Without it, a
/// sparse phase pays the full flush-timer wait on (nearly) every parcel
/// unless the locality goes idle first; with it, sparse parcels go out
/// immediately.  A locality that goes idle sends at once anyway (the
/// idle flush, DESIGN.md §5 item 7), so the requester's locality is kept
/// busy: a second worker runs a long task for the whole measurement, the
/// way parquet's compute gaps keep a locality busy between sends.
///
/// Workload: request/response round trips issued one at a time with a
/// gap larger than the wait time — per-request latency is the metric.
///
///     ./bench_ablation_bypass [requests=60] [interval=4000]

#include <coal/threading/future.hpp>

#include "bench_common.hpp"

#include <atomic>
#include <complex>
#include <thread>

namespace {

double mean_latency_us(bool bypass, unsigned requests,
    std::int64_t interval_us)
{
    coal::runtime_config cfg;
    cfg.num_localities = 2;
    cfg.workers_per_locality = 2;
    cfg.apply_coalescing_defaults = false;
    coal::runtime rt(cfg);

    coal::coalescing::coalescing_params params{64, interval_us};
    params.sparse_bypass = bypass;
    rt.enable_coalescing(coal::apps::toy_action_name(), params);

    // The long task holds one of locality 0's workers until the requests
    // are done; the requester runs on the other.  It sleeps rather than
    // spins: a worker inside a task is busy to the scheduler either way,
    // and a spinning task takes a vCPU from the network threads
    // on a small host (bypass-on latency then read 0.2-2.5 ms instead of
    // 0.14 ms on a 4-vCPU VM).
    std::atomic<bool> started{false};
    std::atomic<bool> done{false};
    rt.get_locality(0).post([&] {
        started.store(true, std::memory_order_release);
        while (!done.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::microseconds(500));
    });
    while (!started.load(std::memory_order_acquire))
        std::this_thread::yield();

    coal::running_stats latency;
    rt.run_on(0, [&](coal::locality& here) {
        auto const other = here.find_remote_localities().front();
        for (unsigned i = 0; i != requests; ++i)
        {
            coal::stopwatch sw;
            auto f = here.async<toy_get_cplx_action>(other);
            f.wait();
            latency.add(static_cast<double>(sw.elapsed_us()));
            // Sparse arrival: gap comfortably above the wait time.
            std::this_thread::sleep_for(
                std::chrono::microseconds(interval_us * 3 / 2));
        }
    });
    done.store(true, std::memory_order_release);
    rt.stop();
    return latency.mean();
}

}    // namespace

int main(int argc, char** argv)
{
    auto cli = coal::bench::parse_cli(argc, argv);
    auto const requests =
        static_cast<unsigned>(cli.get_int("requests", 60));
    auto const interval = cli.get_int("interval", 4000);

    coal::bench::print_header(
        "Ablation — Algorithm 1's sparse-traffic bypass (tslp > interval)",
        "sparse round trips; metric = per-request latency");

    double const with_bypass = mean_latency_us(true, requests, interval);
    double const without = mean_latency_us(false, requests, interval);

    std::printf("%-22s %-22s\n", "configuration", "mean latency [us]");
    std::printf("%-22s %-22.1f\n", "bypass on (paper)", with_bypass);
    std::printf("%-22s %-22.1f\n", "bypass off", without);
    std::printf("\nwithout the bypass a sparse request waits for the flush "
                "timer (~%lld us) while\nits locality is busy; bypass on vs "
                "off: %.1fx lower latency here.\n",
        static_cast<long long>(interval), without / with_bypass);
    return 0;
}
