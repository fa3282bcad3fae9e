/// \file bench_ablation_trigger.cpp
/// Ablation: parcel-COUNT trigger (this paper's design) vs buffer-SIZE
/// trigger (Active Pebbles / AM++ / Charm++, §I).  A size trigger is
/// emulated by setting nparcels to infinity and capping max_buffer_bytes
/// at k × the action's wire size, so both configurations flush after
/// ~k parcels; the comparison isolates the triggering rule under a
/// mixed-size workload where size-based batches drift.
///
///     ./bench_ablation_trigger [nc=24]

#include "bench_common.hpp"

int main(int argc, char** argv)
{
    auto cli = coal::bench::parse_cli(argc, argv);
    auto const nc = static_cast<std::uint32_t>(cli.get_int("nc", 24));

    coal::bench::print_header(
        "Ablation — count-based vs size-based coalescing trigger",
        "paper §I: prior systems trigger on buffer size; this design on "
        "parcel count");

    // Wire size of one parquet parcel: header + args tuple
    // (u32 + u64 + vector<complex>: 8B count + 16B·Nc).
    std::size_t const parcel_bytes = 24 + 8 + 4 + 8 + 8 + 16ull * nc;

    std::printf("%-8s %-22s %-22s\n", "k", "count trigger [ms]",
        "size trigger [ms]");

    for (std::size_t k : {2, 4, 8, 16})
    {
        coal::apps::parquet_params count_params;
        count_params.nc = nc;
        count_params.iterations = 2;
        count_params.coalescing = {k, 4000};

        coal::apps::parquet_params size_params = count_params;
        size_params.coalescing.nparcels = 1u << 20;
        size_params.coalescing.max_buffer_bytes = k * parcel_bytes;

        auto const count_m =
            coal::bench::measure_parquet(count_params, 4, 2);
        auto const size_m = coal::bench::measure_parquet(size_params, 4, 2);

        std::printf("%-8zu %-22.2f %-22.2f\n", k,
            count_m.median_iteration_s * 1e3, size_m.median_iteration_s * 1e3);
    }

    std::printf("\nexpected: comparable performance — the triggering rule "
                "matters less than the\nbatch size itself; count-based "
                "control is simply easier to reason about per action.\n");
    return 0;
}
