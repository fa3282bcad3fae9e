/// \file bench_fig5_toy_phase_times.cpp
/// Reproduces Fig. 5: time to complete a phase of the toy application
/// for increasing numbers of parcels per message, wait time 4000 µs.
/// Paper shape: monotone decrease up to the largest value (128) —
/// the toy app has no dependencies, so more coalescing is always better.
///
///     ./bench_fig5_toy_phase_times [parcels=8000] [repeats=3]

#include "bench_common.hpp"

int main(int argc, char** argv)
{
    auto cfg = coal::bench::parse_cli(argc, argv);
    auto const parcels =
        static_cast<std::size_t>(cfg.get_int("parcels", 8000));
    auto const repeats = static_cast<unsigned>(cfg.get_int("repeats", 3));

    coal::bench::print_header(
        "Fig. 5 — toy app phase completion time vs parcels per message",
        "wait time 4000 us; paper: monotone decrease up to nparcels=128");

    std::printf("%-10s %-16s %-12s %-14s\n", "nparcels", "phase time [ms]",
        "overhead", "msgs/phase");
    coal::bench::csv_sink csv(
        cfg, "nparcels,time_ms,overhead,messages_per_phase");

    double first = 0.0, last = 0.0;
    for (std::size_t n : {1, 2, 4, 8, 16, 32, 64, 128})
    {
        coal::apps::toy_params params;
        params.parcels_per_phase = parcels;
        params.phases = 3;
        params.coalescing = {n, 4000};

        auto const m = coal::bench::measure_toy(params, repeats);
        std::printf("%-10zu %-16.2f %-12.4f %-14.0f\n", n,
            m.median_phase_s * 1e3, m.median_overhead, m.median_messages);
        csv.row("%zu,%.4f,%.6f,%.0f", n, m.median_phase_s * 1e3,
            m.median_overhead, m.median_messages);
        if (n == 1)
            first = m.median_phase_s;
        last = m.median_phase_s;
    }

    std::printf("\nspeedup nparcels=1 -> 128: %.2fx  (paper shape: fastest "
                "at the largest value)\n",
        first / last);
    return 0;
}
