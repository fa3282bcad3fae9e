/// \file bench_fig7_parquet_correlation.cpp
/// Reproduces Fig. 7: scatter of average network overhead vs average
/// time per iteration for the parquet application across the coalescing
/// parameter sweep.  Paper: Pearson r = 0.92, and most of the parameter
/// space produces larger overhead than the optimum — an arbitrary choice
/// of parameters is likely suboptimal.
///
///     ./bench_fig7_parquet_correlation [nc=24] [repeats=2]

#include "bench_common.hpp"

#include <coal/common/stats.hpp>

int main(int argc, char** argv)
{
    auto cfg = coal::bench::parse_cli(argc, argv);
    auto const nc = static_cast<std::uint32_t>(cfg.get_int("nc", 24));
    auto const repeats = static_cast<unsigned>(cfg.get_int("repeats", 3));

    coal::bench::print_header(
        "Fig. 7 — parquet: average network overhead vs time per iteration",
        "one dot per parameter set; paper Pearson r = 0.92");

    std::printf("%-10s %-14s %-12s %-18s\n", "nparcels", "interval [us]",
        "overhead", "iter time [ms]");
    coal::bench::csv_sink csv(
        cfg, "nparcels,interval_us,overhead,iter_time_ms");

    std::vector<double> overheads, times;
    double best_time = 1e300;
    double best_overhead = 0.0;

    // Same parameter grid as the Fig. 8 sweep — the paper derives both
    // figures from one sweep, including the disabled boundary settings.
    for (std::size_t n : {1, 2, 4, 8, 16, 32})
    {
        for (std::int64_t interval : {1, 1000, 4000, 8000})
        {
            coal::apps::parquet_params params;
            params.nc = nc;
            params.iterations = 2;
            params.coalescing = {n, interval};

            auto const m = coal::bench::measure_parquet(params, 4, repeats);
            overheads.push_back(m.median_overhead);
            times.push_back(m.median_iteration_s * 1e3);
            std::printf("%-10zu %-14lld %-12.4f %-18.2f\n", n,
                static_cast<long long>(interval), m.median_overhead,
                m.median_iteration_s * 1e3);
            csv.row("%zu,%lld,%.6f,%.4f", n,
                static_cast<long long>(interval), m.median_overhead,
                m.median_iteration_s * 1e3);

            if (m.median_iteration_s < best_time)
            {
                best_time = m.median_iteration_s;
                best_overhead = m.median_overhead;
            }
        }
    }

    double const r = coal::pearson_correlation(overheads, times);
    std::printf(
        "\nPearson correlation (overhead vs time): %.3f   (paper: 0.92)\n",
        r);

    unsigned worse = 0;
    for (double o : overheads)
    {
        if (o > best_overhead)
            ++worse;
    }
    std::printf("parameter sets with more overhead than the optimum: %u of "
                "%zu (paper: 'most')\n",
        worse, overheads.size());
    return 0;
}
