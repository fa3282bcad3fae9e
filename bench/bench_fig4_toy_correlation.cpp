/// \file bench_fig4_toy_correlation.cpp
/// Reproduces Fig. 4: scatter of average network overhead per phase vs
/// average execution time per phase for the toy application, one point
/// per coalescing-parameter set.  Paper: Pearson r = 0.97 — the
/// intrinsic overhead metric (Eq. 4) predicts runtime.
///
///     ./bench_fig4_toy_correlation [parcels=6000] [repeats=2]

#include "bench_common.hpp"

#include <coal/common/stats.hpp>

int main(int argc, char** argv)
{
    auto cfg = coal::bench::parse_cli(argc, argv);
    auto const parcels =
        static_cast<std::size_t>(cfg.get_int("parcels", 6000));
    auto const repeats = static_cast<unsigned>(cfg.get_int("repeats", 3));

    coal::bench::print_header(
        "Fig. 4 — toy app: average network overhead vs phase time",
        "one dot per coalescing parameter set; paper Pearson r = 0.97");

    std::printf("%-10s %-14s %-14s %-16s\n", "nparcels", "interval [us]",
        "overhead", "phase time [ms]");
    coal::bench::csv_sink csv(cfg, "nparcels,interval_us,overhead,time_ms");

    std::vector<double> overheads, times;
    for (std::int64_t interval : {2000, 4000})
    {
        for (std::size_t n : {1, 2, 4, 8, 16, 32, 64, 128})
        {
            coal::apps::toy_params params;
            params.parcels_per_phase = parcels;
            params.phases = 3;
            params.coalescing = {n, interval};

            auto const m = coal::bench::measure_toy(params, repeats);
            overheads.push_back(m.median_overhead);
            times.push_back(m.median_phase_s * 1e3);
            std::printf("%-10zu %-14lld %-14.4f %-16.2f\n", n,
                static_cast<long long>(interval), m.median_overhead,
                m.median_phase_s * 1e3);
            csv.row("%zu,%lld,%.6f,%.4f", n,
                static_cast<long long>(interval), m.median_overhead,
                m.median_phase_s * 1e3);
        }
    }

    double const r = coal::pearson_correlation(overheads, times);
    std::printf("\nPearson correlation (overhead vs time): %.3f   "
                "(paper: 0.97)\n",
        r);
    return 0;
}
