/// \file bench_fig8_parquet_sweep.cpp
/// Reproduces Fig. 8: average time per parquet iteration over the full
/// 2-D coalescing parameter space (parcels/message × wait time).
/// Paper shape: ridges of slow runs along nparcels=1 and interval=1 µs
/// (both effectively disable coalescing); best cell around
/// (nparcels=4, interval=5000 µs).
///
///     ./bench_fig8_parquet_sweep [nc=24] [iterations=2] [repeats=2]

#include "bench_common.hpp"

#include <vector>

int main(int argc, char** argv)
{
    auto cfg = coal::bench::parse_cli(argc, argv);
    auto const nc = static_cast<std::uint32_t>(cfg.get_int("nc", 24));
    auto const iterations =
        static_cast<unsigned>(cfg.get_int("iterations", 2));
    auto const repeats = static_cast<unsigned>(cfg.get_int("repeats", 3));

    std::vector<std::size_t> const nparcels{1, 2, 4, 8, 16, 32};
    std::vector<std::int64_t> const intervals{1, 1000, 2000, 4000, 5000,
        8000};

    coal::bench::print_header(
        "Fig. 8 — parquet: avg time per iteration over (nparcels x wait)",
        "paper: slow ridges at nparcels=1 and wait=1 us; best ~(4, 5000)");

    coal::bench::csv_sink csv(cfg, "nparcels,interval_us,iter_time_ms");
    std::printf("avg iteration time [ms]\n%-10s", "nparcels");
    for (auto interval : intervals)
        std::printf(" %8lldus", static_cast<long long>(interval));
    std::printf("\n");

    double best = 1e300;
    std::size_t best_n = 0;
    std::int64_t best_i = 0;
    double ridge_n1 = 0.0;
    unsigned ridge_cells = 0;

    for (auto n : nparcels)
    {
        std::printf("%-10zu", n);
        for (auto interval : intervals)
        {
            coal::apps::parquet_params params;
            params.nc = nc;
            params.iterations = iterations;
            params.coalescing = {n, interval};

            auto const m = coal::bench::measure_parquet(params, 4, repeats);
            std::printf(" %10.2f", m.median_iteration_s * 1e3);
            csv.row("%zu,%lld,%.4f", n, static_cast<long long>(interval),
                m.median_iteration_s * 1e3);

            if (m.median_iteration_s < best)
            {
                best = m.median_iteration_s;
                best_n = n;
                best_i = interval;
            }
            if (n == 1 || interval == 1)
            {
                ridge_n1 += m.median_iteration_s;
                ++ridge_cells;
            }
        }
        std::printf("\n");
    }

    std::printf("\nbest cell: nparcels=%zu, wait=%lld us (%.2f ms)   "
                "(paper: 4, 5000 us)\n",
        best_n, static_cast<long long>(best_i), best * 1e3);
    std::printf("mean of disabled ridges (nparcels=1 or wait=1 us): %.2f ms "
                "-> %.2fx slower than best\n",
        ridge_n1 / ridge_cells * 1e3, (ridge_n1 / ridge_cells) / best);
    return 0;
}
