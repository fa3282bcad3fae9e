/// \file bench_alltoall.cpp
/// The all-to-all benchmark the paper's related work tunes on (PICS/TRAM,
/// §I and §V): every locality bursts many small chunks to every other
/// locality each round, with a round barrier.  Swept over nparcels, plus
/// an A/B of the per-round burst order.
///
///     ./bench_alltoall [localities=4] [chunks=256] [doubles=16] [rounds=4]

#include <coal/collectives/collectives.hpp>

#include "bench_common.hpp"

#include <atomic>

namespace {

// One measured configuration: mean round time in seconds over `rounds`
// (after one warm-up round).
double measure(std::size_t nparcels, std::size_t chunks, std::size_t doubles,
    unsigned rounds, std::uint32_t localities, bool staggered = true)
{
    coal::runtime_config cfg;
    cfg.num_localities = localities;
    cfg.apply_coalescing_defaults = false;
    coal::runtime rt(cfg);
    rt.enable_coalescing(
        coal::collectives::deposit_action_name(), {nparcels, 4000});

    std::uint32_t const n = rt.num_localities();
    coal::running_stats round_times;
    // Tag space: each round consumes `chunks` tags per (src,dst) pair.
    static std::atomic<std::uint64_t> tag_base{1u << 20};

    for (unsigned round = 0; round != rounds + 1; ++round)
    {
        std::uint64_t const tag =
            tag_base.fetch_add(chunks + 1, std::memory_order_relaxed);
        coal::stopwatch sw;
        rt.run_everywhere([&](coal::locality& here) {
            std::vector<std::vector<std::vector<double>>> payload(n);
            for (auto& per_dest : payload)
                per_dest.assign(chunks, std::vector<double>(doubles, 1.0));
            (void) coal::collectives::all_to_all_chunked(
                rt, here, payload, tag, staggered);
        });
        if (round != 0)    // round 0 is the warm-up
            round_times.add(sw.elapsed_s());
    }

    rt.stop();
    return round_times.mean();
}

}    // namespace

int main(int argc, char** argv)
{
    auto cli = coal::bench::parse_cli(argc, argv);
    auto const localities =
        static_cast<std::uint32_t>(cli.get_int("localities", 4));
    auto const chunks =
        static_cast<std::size_t>(cli.get_int("chunks", 256));
    auto const doubles =
        static_cast<std::size_t>(cli.get_int("doubles", 16));
    auto const rounds = static_cast<unsigned>(cli.get_int("rounds", 4));

    coal::bench::print_header(
        "All-to-all benchmark (PICS/TRAM reference workload)",
        "per round each locality sends `chunks` x `doubles` to every peer");
    std::printf("localities=%u chunks=%zu doubles=%zu rounds=%u\n\n",
        localities, chunks, doubles, rounds);

    std::printf("%-10s %-18s\n", "nparcels", "round time [ms]");
    double worst = 0.0, best = 1e300;
    for (std::size_t n : {1, 4, 16, 64, 128})
    {
        double const r = measure(n, chunks, doubles, rounds, localities);
        std::printf("%-10zu %-18.2f\n", n, r * 1e3);
        worst = std::max(worst, r);
        best = std::min(best, r);
    }
    std::printf("static sweep: best/worst = %.2fx\n\n", worst / best);

    // Destination-order stagger A/B (ROADMAP 5a): identical traffic, only
    // the burst order differs.  The synchronized order flush-storms each
    // receiver in turn; the rotated order spreads them.
    {
        double const sync =
            measure(64, chunks, doubles, rounds, localities, false);
        double const stag =
            measure(64, chunks, doubles, rounds, localities, true);
        std::printf("burst order: synchronized %.2f ms -> staggered %.2f ms "
                    "(%.2fx)\n\n",
            sync * 1e3, stag * 1e3, stag > 0.0 ? sync / stag : 0.0);
        std::printf("BENCH {\"bench\":\"alltoall_stagger\",\"staggered\":0,"
                    "\"localities\":%u,\"round_ms\":%.3f}\n",
            localities, sync * 1e3);
        std::printf("BENCH {\"bench\":\"alltoall_stagger\",\"staggered\":1,"
                    "\"localities\":%u,\"round_ms\":%.3f}\n",
            localities, stag * 1e3);
    }
    return 0;
}
