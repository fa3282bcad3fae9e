/// \file bench_ablation_bypass.cpp
/// Ablation: the sparse-traffic bypass of Algorithm 1 ("we overcome this
/// hurdle by coalescing the scheduled parcels only when the time between
/// them is less than the maximum wait time", §II-B).  Without it, a
/// sparse phase pays the full flush-timer wait on (nearly) every parcel
/// unless the locality goes idle first; with it, sparse parcels go out
/// immediately.  Here the requesting task waits on each response, which
/// leaves its locality idle, so the idle flush (DESIGN.md §5 item 7)
/// sends the request at once even with the bypass off.
///
/// Workload: request/response round trips issued one at a time with a
/// gap larger than the wait time — per-request latency is the metric.
///
///     ./bench_ablation_bypass [requests=60] [interval=4000]

#include <coal/threading/future.hpp>

#include "bench_common.hpp"

#include <complex>
#include <thread>

namespace {

double mean_latency_us(bool bypass, unsigned requests,
    std::int64_t interval_us)
{
    coal::runtime_config cfg;
    cfg.num_localities = 2;
    cfg.apply_coalescing_defaults = false;
    coal::runtime rt(cfg);

    coal::coalescing::coalescing_params params{64, interval_us};
    params.sparse_bypass = bypass;
    rt.enable_coalescing(coal::apps::toy_action_name(), params);

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
    std::printf("\nwithout the bypass a sparse parcel waits for the flush "
                "timer (~%lld us x 2 per\nround trip) unless its locality "
                "goes idle first, which the waiting task here\nmakes it do; "
                "bypass on vs off: %.1fx lower latency here.\n",
        static_cast<long long>(interval), without / with_bypass);
    return 0;
}
