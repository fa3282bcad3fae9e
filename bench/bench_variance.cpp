/// \file bench_variance.cpp
/// Reproduces the §IV-C run-to-run variance claim: with fixed parameters
/// (4 parcels/message, 5000 µs wait) the relative standard deviation of
/// repeated parquet runs is below five percent on the paper's testbed
/// (100 runs).  We run a smaller number of repetitions suitable for a
/// laptop and report the same statistic.
///
///     ./bench_variance [nc=24] [runs=12]

#include "bench_common.hpp"

int main(int argc, char** argv)
{
    auto cfg = coal::bench::parse_cli(argc, argv);
    auto const nc = static_cast<std::uint32_t>(cfg.get_int("nc", 24));
    auto const runs = static_cast<unsigned>(cfg.get_int("runs", 12));

    coal::bench::print_header(
        "§IV-C — run-to-run variance at fixed parameters (4, 5000 us)",
        "paper: relative standard deviation < 5% over 100 runs");

    coal::running_stats totals;
    std::printf("%-6s %-16s\n", "run", "iter time [ms]");
    for (unsigned r = 0; r != runs; ++r)
    {
        coal::apps::parquet_params params;
        params.nc = nc;
        params.iterations = 2;
        params.coalescing = {4, 5000};

        auto const m = coal::bench::measure_parquet(params, 4, 1);
        totals.add(m.median_iteration_s * 1e3);
        std::printf("%-6u %-16.2f\n", r, m.median_iteration_s * 1e3);
    }

    std::printf("\nmean %.2f ms, stddev %.2f ms, relative stddev %.1f%%   "
                "(paper: <5%% on dedicated nodes; expect more on a shared "
                "host whose other tenants steal cycles)\n",
        totals.mean(), totals.stddev(), totals.relative_stddev() * 100.0);
    return 0;
}
