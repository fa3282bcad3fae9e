/// \file bench_chaos.cpp
/// Goodput under crash/rejoin chaos: an all-to-all exchange runs for a
/// fixed window while a chaos thread kills and restarts localities at a
/// configurable rate.  Each row reports delivered goodput next to the
/// per-cause refusal split (shed / link_down / peer_failed), so the
/// cost of a death verdict — fenced backlog plus the fast-fail window
/// until rejoin — is visible as a function of the kill rate.
///
///     ./build/bench/bench_chaos [duration_ms=2500] [kills=0,1,2,4]
///
/// Machine-readable rows:
///     BENCH {"bench":"chaos","kills":...,"goodput_pps":...}
///
/// The kill schedule derives from one seed (printed, COAL_FAULT_SEED
/// overrides) so a surprising row replays exactly.

#include "bench_common.hpp"

#include <coal/common/stopwatch.hpp>
#include <coal/net/faulty_transport.hpp>
#include <coal/parcel/action.hpp>

#include <cinttypes>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

namespace {

constexpr std::uint32_t chaos_n = 4;    // localities

std::atomic<std::uint64_t> g_delivered{0};

std::uint32_t chaos_sink(std::uint32_t tag)
{
    g_delivered.fetch_add(1);
    return tag;
}

}    // namespace

COAL_PLAIN_ACTION(chaos_sink, chaos_sink_action);

namespace {

using coal::parcel::delivery_error;
using coal::parcel::parcel;
using coal::parcel::peer_status;

// splitmix64: victim choices derive from the seed, not from rand().
std::uint64_t mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

coal::runtime_config chaos_config(std::uint64_t seed)
{
    coal::runtime_config cfg;
    cfg.num_localities = chaos_n;
    cfg.workers_per_locality = 1;    // keep thread count sane on small boxes
    cfg.transport = "loopback";
    cfg.apply_coalescing_defaults = false;

    cfg.faults.seed = seed;

    cfg.reliability.enabled = true;
    cfg.reliability.ack_delay_us = 100;
    cfg.reliability.min_rto_us = 500;
    cfg.reliability.max_rto_us = 20000;

    cfg.flow.enabled = true;
    cfg.flow.initial_window_bytes = 64 * 1024;
    cfg.flow.window_bytes = 256 * 1024;
    cfg.flow.min_window_bytes = 16 * 1024;
    cfg.flow.link_soft_bytes = 1u << 20;
    cfg.flow.link_inflight_cap_bytes = 4u << 20;
    cfg.flow.pool_soft_bytes = 16u << 20;
    cfg.flow.pool_critical_bytes = 32u << 20;
    cfg.flow.pool_fallback_cap_bytes = 16u << 20;

    cfg.membership.enabled = true;
    cfg.membership.heartbeat_interval_us = 5000;
    cfg.membership.probe_interval_us = 10000;
    cfg.membership.min_dead_us = 150000;
    return cfg;
}

struct chaos_measurement
{
    std::uint64_t offered = 0;
    std::uint64_t delivered = 0;
    std::uint64_t shed = 0;
    std::uint64_t link_down = 0;
    std::uint64_t peer_failed = 0;
    std::uint64_t deaths = 0;
    std::uint64_t rejoins = 0;
    double elapsed_s = 0.0;
};

/// One measurement window: every locality streams parcels at every
/// other for `duration_ms`, while `kills` kill/restart cycles run
/// concurrently (victims seed-derived, never the same twice in a row).
chaos_measurement measure(std::uint64_t seed, unsigned kills,
    unsigned duration_ms)
{
    chaos_measurement out;
    g_delivered.store(0);

    coal::runtime rt(chaos_config(seed));
    rt.enable_coalescing(chaos_sink_action::name(), {16, 500});

    std::atomic<std::uint64_t> shed{0}, link_down{0}, peer_failed{0};
    for (std::uint32_t s = 0; s != chaos_n; ++s)
    {
        rt.get_locality(s).parcels().set_delivery_error_handler(
            [&](delivery_error err, parcel&&) {
                switch (err)
                {
                case delivery_error::shed_overload:
                    shed.fetch_add(1);
                    break;
                case delivery_error::link_down:
                    link_down.fetch_add(1);
                    break;
                case delivery_error::peer_failed:
                    peer_failed.fetch_add(1);
                    break;
                }
            });
    }

    auto all_alive = [&] {
        for (std::uint32_t i = 0; i != chaos_n; ++i)
            for (std::uint32_t j = 0; j != chaos_n; ++j)
                if (i != j &&
                    rt.get_locality(i).parcels().peer_liveness(j) !=
                        peer_status::alive)
                    return false;
        return true;
    };

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> offered{0};

    // A crashed or fenced destination drops delivery throughput to
    // near zero while offers keep succeeding into the coalescer, so an
    // unpaced sender would bank minutes of drain work during every
    // blackout.  Cap the in-flight backlog (offered but not yet
    // delivered or refused) to keep the post-chaos drain bounded.
    // Signed: a parcel whose ack died with the victim is counted both
    // delivered and peer_failed, so "done" can slightly exceed offered.
    auto backlog = [&]() -> std::int64_t {
        auto const done = g_delivered.load() + shed.load() +
            link_down.load() + peer_failed.load();
        return static_cast<std::int64_t>(offered.load()) -
            static_cast<std::int64_t>(done);
    };

    // Senders: all-to-all, paced by the backlog cap (flow control
    // defers under pressure; a crashed sender's puts fast-fail and are
    // counted like every other refusal).
    std::vector<std::thread> senders;
    senders.reserve(chaos_n);
    for (std::uint32_t s = 0; s != chaos_n; ++s)
    {
        senders.emplace_back([&, s] {
            std::uint32_t tag = 0;
            while (!stop.load(std::memory_order_relaxed))
            {
                while (backlog() > 4000 &&
                    !stop.load(std::memory_order_relaxed))
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
                for (std::uint32_t d = 0; d != chaos_n; ++d)
                {
                    if (d == s)
                        continue;
                    rt.get_locality(s).apply<chaos_sink_action>(
                        coal::agas::locality_id{d}, tag);
                    offered.fetch_add(1, std::memory_order_relaxed);
                }
                ++tag;
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
        });
    }

    // Chaos: spread `kills` kill/restart cycles across the window.
    std::thread chaos([&] {
        for (unsigned k = 0; k != kills && !stop.load(); ++k)
        {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(duration_ms / (2 * kills + 1)));
            auto const victim =
                static_cast<std::uint32_t>(mix(seed + k) % chaos_n);
            rt.kill_locality(victim);
            // Past the death floor so the verdict actually lands.
            std::this_thread::sleep_for(std::chrono::milliseconds(250));
            rt.restart_locality(victim);
            coal::stopwatch rejoin;
            while (!all_alive() && rejoin.elapsed_ms() < 10000.0)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });

    coal::stopwatch clock;
    std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
    stop.store(true);
    for (auto& t : senders)
        t.join();
    chaos.join();
    rt.quiesce();
    out.elapsed_s = clock.elapsed_ms() / 1e3;

    out.offered = offered.load();
    out.delivered = g_delivered.load();
    out.shed = shed.load();
    out.link_down = link_down.load();
    out.peer_failed = peer_failed.load();
    for (std::uint32_t s = 0; s != chaos_n; ++s)
    {
        auto const& c = rt.get_locality(s).parcels().counters();
        out.deaths += c.peers_declared_dead.load();
        out.rejoins += c.peer_rejoins.load();
    }

    rt.stop();
    return out;
}

}    // namespace

int main(int argc, char** argv)
{
    auto cli = coal::bench::parse_cli(argc, argv);
    auto const duration_ms =
        static_cast<unsigned>(cli.get_int("duration_ms", 2500));

    coal::bench::print_header("goodput vs kill rate under crash/rejoin chaos",
        "robustness extension: failure detection, fencing, epoched rejoin "
        "(DESIGN.md §12)");

    std::uint64_t const seed =
        coal::net::fault_plan::resolve_seed(0xBE7CC4A05ull);
    std::printf("seed=%llu (set COAL_FAULT_SEED to replay)\n\n",
        static_cast<unsigned long long>(seed));

    coal::bench::csv_sink csv(cli,
        "kills,offered,delivered,shed,link_down,peer_failed,goodput_pps");

    std::printf("%-7s %-10s %-10s %-7s %-10s %-11s %-8s %-9s %-11s\n",
        "kills", "offered", "delivered", "shed", "link-down", "peer-fail",
        "deaths", "rejoins", "goodput/s");
    for (unsigned const kills : {0u, 1u, 2u, 4u})
    {
        auto const m = measure(seed, kills, duration_ms);
        double const goodput = m.elapsed_s > 0.0 ?
            static_cast<double>(m.delivered) / m.elapsed_s :
            0.0;
        std::printf("%-7u %-10" PRIu64 " %-10" PRIu64 " %-7" PRIu64
                    " %-10" PRIu64 " %-11" PRIu64 " %-8" PRIu64 " %-9" PRIu64
                    " %-11.0f\n",
            kills, m.offered, m.delivered, m.shed, m.link_down, m.peer_failed,
            m.deaths, m.rejoins, goodput);
        std::printf("BENCH {\"bench\":\"chaos\",\"kills\":%u,\"duration_ms\""
                    ":%u,\"offered\":%" PRIu64 ",\"delivered\":%" PRIu64
                    ",\"shed\":%" PRIu64 ",\"link_down\":%" PRIu64
                    ",\"peer_failed\":%" PRIu64 ",\"deaths\":%" PRIu64
                    ",\"rejoins\":%" PRIu64 ",\"goodput_pps\":%.0f"
                    ",\"elapsed_s\":%.3f}\n",
            kills, duration_ms, m.offered, m.delivered, m.shed, m.link_down,
            m.peer_failed, m.deaths, m.rejoins, goodput, m.elapsed_s);
        csv.row("%u,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                ",%" PRIu64 ",%.0f",
            kills, m.offered, m.delivered, m.shed, m.link_down, m.peer_failed,
            goodput);
    }

    std::printf("\nexpectation: goodput degrades gracefully with the kill "
                "rate; every refused parcel is split across shed / "
                "link_down / peer_failed (no silent loss), and deaths == "
                "rejoins once the window ends healed.\n");
    return 0;
}
