/// \file bench_fig6_parquet_iterations.cpp
/// Reproduces Fig. 6: time to reach completion of successive iterations
/// of the parquet application for various numbers of parcels per message
/// (wait time 4000 µs).  Paper shape: clear improvement from 1 -> 2,
/// minimum at 4, degradation beyond (a U-shape), more pronounced in
/// later iterations because the effect is cumulative.
///
/// With `nodes>1 hier=1` the localities group into nodes and cross-node
/// coalesced traffic relays hierarchically — used to check the hierarchy
/// layer does not tax a real application's critical path.
///
///     ./bench_fig6_parquet_iterations [nc=24] [iterations=3] [repeats=3]
///                                     [nodes=1] [hier=0]

#include "bench_common.hpp"

int main(int argc, char** argv)
{
    auto cfg = coal::bench::parse_cli(argc, argv);
    auto const nc = static_cast<std::uint32_t>(cfg.get_int("nc", 24));
    auto const iterations =
        static_cast<unsigned>(cfg.get_int("iterations", 3));
    auto const repeats = static_cast<unsigned>(cfg.get_int("repeats", 3));
    auto const nodes = static_cast<std::uint32_t>(cfg.get_int("nodes", 1));
    bool const hier = cfg.get_int("hier", 0) != 0;

    coal::bench::print_header(
        "Fig. 6 — parquet: cumulative time per iteration vs parcels/message",
        "wait 4000 us, 4 localities; paper: minimum at nparcels=4 (U-shape)");
    if (nodes > 1)
        std::printf("topology: %u nodes, hierarchical routing %s\n\n", nodes,
            hier ? "on" : "off");

    coal::bench::csv_sink csv(
        cfg, "nparcels,iteration,cumulative_ms,median_iter_ms");
    std::printf("%-10s", "nparcels");
    for (unsigned i = 0; i != iterations; ++i)
        std::printf(" iter%-2u cum [ms]", i + 1);
    std::printf("  median iter [ms]\n");

    double best = 1e300, best_n = 0, at1 = 0;
    for (std::size_t n : {1, 2, 4, 8, 16, 32})
    {
        coal::apps::parquet_params params;
        params.nc = nc;
        params.iterations = iterations;
        params.coalescing = {n, 4000};

        auto const m =
            coal::bench::measure_parquet(params, 4, repeats, 1, nodes, hier);
        std::printf("%-10zu", n);
        unsigned iteration = 1;
        for (double cum : m.per_iteration_cumulative_s)
        {
            std::printf(" %-14.2f", cum * 1e3);
            csv.row("%zu,%u,%.4f,%.4f", n, iteration++, cum * 1e3,
                m.median_iteration_s * 1e3);
        }
        std::printf("  %-14.2f\n", m.median_iteration_s * 1e3);
        std::printf("BENCH {\"bench\":\"fig6_parquet\",\"nparcels\":%zu,"
                    "\"nodes\":%u,\"hier\":%d,\"median_iter_ms\":%.3f}\n",
            n, nodes, hier ? 1 : 0, m.median_iteration_s * 1e3);

        if (m.median_iteration_s < best)
        {
            best = m.median_iteration_s;
            best_n = static_cast<double>(n);
        }
        if (n == 1)
            at1 = m.median_iteration_s;
    }

    std::printf("\nminimum at nparcels=%.0f (paper: 4); improvement over "
                "nparcels=1: %.2fx\n",
        best_n, at1 / best);
    return 0;
}
