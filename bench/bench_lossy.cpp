/// \file bench_lossy.cpp
/// Robustness cost curve: toy-app phase completion time under injected
/// message loss, with and without coalescing.  Shows (a) what the
/// ack/retransmit layer costs when the network is clean, and (b) how
/// gracefully throughput degrades as the drop rate rises — coalescing
/// keeps amortizing per-message cost while retransmission fills the
/// holes.
///
///     ./bench_lossy [parcels=4000] [phases=3] [repeats=2] [seed=...]
///
/// Each row is also emitted as a machine-readable line:
///     BENCH {"bench":"lossy","drop":...,"coalescing":...,...}
///
/// A second sweep drives the flow-control layer into overload: producers
/// burst best-effort parcels at a link that is dark for the first 100 ms,
/// against fixed pool watermarks, and the rows report goodput and shed
/// rate versus offered load:
///     BENCH {"bench":"lossy-overload","offered":...,"goodput_pps":...}

#include "bench_common.hpp"

#include <coal/net/faulty_transport.hpp>
#include <coal/net/loopback.hpp>
#include <coal/parcel/action.hpp>
#include <coal/parcel/parcelhandler.hpp>
#include <coal/serialization/buffer_pool.hpp>
#include <coal/threading/scheduler.hpp>

#include <atomic>
#include <cinttypes>
#include <thread>

namespace {

std::atomic<std::uint64_t> g_overload_delivered{0};

std::size_t overload_sink(std::string blob)
{
    g_overload_delivered.fetch_add(1);
    return blob.size();
}

}    // namespace

COAL_PLAIN_ACTION(overload_sink, overload_sink_action);

namespace {

struct lossy_measurement
{
    double mean_phase_s = 0.0;
    double mean_overhead = 0.0;
    std::uint64_t retransmits = 0;
    std::uint64_t fast_retransmits = 0;    ///< subset of retransmits
    std::uint64_t drops_injected = 0;
    std::uint64_t messages_sent = 0;
    std::uint64_t breaker_trips = 0;
    double pool_hit_rate = 0.0;
    double copied_per_message = 0.0;
};

lossy_measurement measure(coal::apps::toy_params params, double drop,
    std::uint64_t seed, unsigned repeats, std::string const& transport)
{
    lossy_measurement out;
    coal::running_stats phase_times, overheads;

    params.phases += 1;    // warm-up phase, dropped below

    for (unsigned r = 0; r != repeats; ++r)
    {
        coal::runtime_config cfg;
        cfg.num_localities = 2;
        cfg.apply_coalescing_defaults = false;
        cfg.transport = transport;    // "sim" or real wire: tcp / uds
        cfg.faults.seed = seed + r;
        cfg.faults.drop_probability = drop;
        // Bulk traffic: let the ack window breathe instead of tripping
        // the breaker on every burst (degradation is bench_lossy's
        // subject only insofar as it shows up in the phase times).  Sack-
        // driven fast retransmit recovers most holes within a round trip;
        // the RTO only backs it up for tail and repeated losses.  An
        // aggressive RTO against a burst of thousands of outstanding
        // frames would retransmit spuriously, so a conservative floor
        // keeps "retransmits" meaning "actual loss recovery".
        cfg.reliability.min_rto_us = 100000;
        cfg.reliability.breaker_trip_backlog = 1u << 20;
        cfg.reliability.breaker_trip_attempts = 1000;
        coal::runtime rt(cfg);

        auto const result = coal::apps::run_toy_app(rt, params);
        for (std::size_t i = 1; i < result.phases.size(); ++i)
        {
            phase_times.add(result.phases[i].metrics.duration_s);
            overheads.add(result.phases[i].metrics.network_overhead);
        }

        rt.quiesce();
        for (std::uint32_t l = 0; l != 2; ++l)
        {
            auto const& c = rt.get_locality(l).parcels().counters();
            out.retransmits += c.retransmits.load();
            out.fast_retransmits += c.fast_retransmits.load();
            out.breaker_trips += c.circuit_breaker_trips.load();
        }
        auto const net = rt.network().stats();
        out.drops_injected += net.drops_injected;
        out.messages_sent += net.messages_sent;
        rt.stop();
    }

    // Pool behaviour over the whole sweep cell (the pool is
    // process-global, so per-repeat deltas would race with nothing —
    // every repeat in this cell contributes).
    auto const pool = coal::serialization::buffer_pool::global().stats();
    out.pool_hit_rate = pool.hits + pool.misses > 0
        ? static_cast<double>(pool.hits) /
            static_cast<double>(pool.hits + pool.misses)
        : 0.0;
    out.copied_per_message = out.messages_sent > 0
        ? static_cast<double>(pool.bytes_copied + pool.bytes_flattened) /
            static_cast<double>(out.messages_sent)
        : 0.0;

    out.mean_phase_s = phase_times.mean();
    out.mean_overhead = overheads.mean();
    return out;
}

// ---------------------------------------------------------------------
// Overload sweep: goodput + shed rate vs offered load under flow control.

struct overload_measurement
{
    std::uint64_t delivered = 0;
    std::uint64_t shed = 0;
    std::uint64_t link_down = 0;
    std::uint64_t peer_failed = 0;
    std::uint64_t deferrals = 0;
    double elapsed_s = 0.0;
};

/// Burst `offered` best-effort parcels (3000 B payload each) at a link
/// that is blacked out for the first 100 ms, with pool watermarks and
/// per-link caps fixed — what the flow layer refuses is the shed rate,
/// what it delivers per second after the link heals is the goodput.
overload_measurement measure_overload(std::uint64_t offered)
{
    namespace ser = coal::serialization;
    using namespace coal::parcel;

    overload_measurement out;

    ser::buffer_pool::global().set_watermarks(1u << 20, 3u << 20, 2u << 20);

    coal::net::fault_plan plan;
    coal::net::blackout_window w;
    w.src = 0;
    w.dst = 1;
    w.end_us = 100'000;
    plan.blackouts.push_back(w);

    coal::net::loopback_transport inner(2);
    coal::net::faulty_transport faulty(inner, plan);

    coal::threading::scheduler_config scfg;
    scfg.num_workers = 2;
    scfg.idle_sleep_us = 50;
    coal::threading::scheduler sched0(scfg), sched1(scfg);

    reliability_params rel;
    rel.enabled = true;
    rel.ack_delay_us = 100;
    rel.min_rto_us = 500;
    rel.max_rto_us = 20000;

    flow_params flow;
    flow.enabled = true;
    flow.initial_window_bytes = 64 * 1024;
    flow.window_bytes = 128 * 1024;
    flow.min_window_bytes = 16 * 1024;
    flow.link_soft_bytes = 512 * 1024;
    flow.link_inflight_cap_bytes = 1536 * 1024;
    flow.starvation_trip_us = 50000;
    flow.pool_soft_bytes = 1u << 20;
    flow.pool_critical_bytes = 3u << 20;
    flow.pool_fallback_cap_bytes = 2u << 20;

    parcelhandler ph0(0, faulty, sched0, rel, flow);
    parcelhandler ph1(1, faulty, sched1, rel, flow);

    // The unified delivery-failure taxonomy: count each cause separately
    // so the report shows the split, not one lumped "failed" number.
    std::atomic<std::uint64_t> shed{0}, link_down{0}, peer_failed{0};
    ph0.set_delivery_error_handler([&](delivery_error err, parcel&&) {
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

    g_overload_delivered = 0;
    std::string const blob(3000, 'x');

    // Pace the offered load over a fixed 300 ms window so "offered load"
    // is a rate, not one burst: the first third hits the dark link, the
    // rest races the backlog drain.
    std::uint64_t const batch = 50;
    std::int64_t const batch_gap_us = static_cast<std::int64_t>(
        300'000 / (offered / batch > 0 ? offered / batch : 1));
    coal::stopwatch clock;
    for (std::uint64_t i = 0; i != offered; ++i)
    {
        parcel p;
        p.dest = 1;
        p.action = overload_sink_action::id();
        p.arguments = overload_sink_action::make_arguments(blob);
        ph0.put_parcel(std::move(p));
        if ((i + 1) % batch == 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(batch_gap_us));
    }

    auto const quiet = [&] {
        return ph0.pending_sends() == 0 && ph1.pending_sends() == 0 &&
            ph0.pending_receives() == 0 && ph1.pending_receives() == 0 &&
            ph0.pending_reliability() == 0 && ph1.pending_reliability() == 0 &&
            sched0.pending_tasks() == 0 && sched1.pending_tasks() == 0;
    };
    while (clock.elapsed_ms() < 60000.0)
    {
        if (quiet() && faulty.in_flight() == 0)
            break;
        if (quiet() && faulty.in_flight() != 0)
            faulty.drain();
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    out.elapsed_s = clock.elapsed_ms() / 1e3;

    out.delivered = g_overload_delivered.load();
    out.shed = shed.load();
    out.link_down = link_down.load();
    out.peer_failed = peer_failed.load();
    out.deferrals = ph0.counters().sends_deferred.load();

    ph0.stop();
    ph1.stop();
    sched0.stop();
    sched1.stop();
    ser::buffer_pool::global().set_watermarks(0, 0, 0);
    return out;
}

}    // namespace

int main(int argc, char** argv)
{
    auto cfg = coal::bench::parse_cli(argc, argv);
    auto const parcels =
        static_cast<std::size_t>(cfg.get_int("parcels", 4000));
    auto const phases = static_cast<unsigned>(cfg.get_int("phases", 3));
    auto const repeats = static_cast<unsigned>(cfg.get_int("repeats", 2));
    auto const seed =
        static_cast<std::uint64_t>(cfg.get_int("seed", 0x10551));
    // transport=sim|tcp|uds: the same sweep over the simulated wire or the
    // real socket parcelport (faulty_transport composes over either).
    std::string const transport = cfg.get("transport").value_or("sim");

    coal::bench::print_header(
        "Lossy network — toy app phase time vs drop rate",
        "robustness extension; reliable delivery over a faulty transport");
    std::printf("transport: %s\n\n", transport.c_str());

    std::printf("%-8s %-12s %-16s %-12s %-12s %-10s\n", "drop", "coalescing",
        "phase time [ms]", "retransmits", "drops", "msgs");
    coal::bench::csv_sink csv(
        cfg, "drop,coalescing,time_ms,retransmits,drops,messages");

    for (double const drop : {0.0, 0.001, 0.01})
    {
        for (bool const coalescing : {false, true})
        {
            coal::apps::toy_params params;
            params.parcels_per_phase = parcels;
            params.phases = phases;
            params.enable_coalescing = coalescing;
            params.coalescing = {64, 4000};

            auto const m = measure(params, drop, seed, repeats, transport);
            std::printf("%-8.4f %-12s %-16.2f %-12" PRIu64 " %-12" PRIu64
                        " %-10" PRIu64 "\n",
                drop, coalescing ? "on" : "off", m.mean_phase_s * 1e3,
                m.retransmits, m.drops_injected, m.messages_sent);
            std::printf("BENCH {\"bench\":\"lossy\","
                        "\"transport\":\"%s\",\"drop\":%.4f,"
                        "\"coalescing\":%d,\"phase_ms\":%.3f,"
                        "\"overhead\":%.4f,\"retransmits\":%" PRIu64
                        ",\"fast_retransmits\":%" PRIu64
                        ",\"drops_injected\":%" PRIu64 ",\"messages\":%" PRIu64
                        ",\"breaker_trips\":%" PRIu64
                        ",\"pool_hit_rate\":%.4f"
                        ",\"copied_per_message\":%.1f}\n",
                transport.c_str(), drop, coalescing ? 1 : 0,
                m.mean_phase_s * 1e3,
                m.mean_overhead, m.retransmits, m.fast_retransmits,
                m.drops_injected, m.messages_sent, m.breaker_trips, m.pool_hit_rate,
                m.copied_per_message);
            csv.row("%.4f,%d,%.3f,%" PRIu64 ",%" PRIu64 ",%" PRIu64, drop,
                coalescing ? 1 : 0, m.mean_phase_s * 1e3, m.retransmits,
                m.drops_injected, m.messages_sent);
        }
    }

    std::printf("\nexpectation: coalescing stays faster at every drop rate; "
                "retransmits scale with the drop rate and vanish at 0.\n");

    // Overload sweep: fixed watermarks, rising offered load.  Goodput is
    // what survives end to end; everything refused was refused loudly
    // (admission shed or link_down), never by silent buffer growth.
    std::printf("\noverload (flow control: 3 MiB critical watermark, "
                "1.5 MiB link cap, 100 ms stall):\n");
    std::printf("%-10s %-11s %-11s %-11s %-11s %-11s %-11s\n", "offered",
        "delivered", "shed-rate", "link-down", "peer-fail", "deferrals",
        "goodput/s");
    for (std::uint64_t const offered : {1000u, 2000u, 4000u, 8000u})
    {
        auto const m = measure_overload(offered);
        double const shed_rate =
            static_cast<double>(m.shed) / static_cast<double>(offered);
        double const goodput =
            m.elapsed_s > 0.0 ? static_cast<double>(m.delivered) / m.elapsed_s
                              : 0.0;
        std::printf("%-10" PRIu64 " %-11" PRIu64 " %-11.3f %-11" PRIu64
                    " %-11" PRIu64 " %-11" PRIu64 " %-11.0f\n",
            offered, m.delivered, shed_rate, m.link_down, m.peer_failed,
            m.deferrals, goodput);
        std::printf("BENCH {\"bench\":\"lossy-overload\",\"offered\":%" PRIu64
                    ",\"delivered\":%" PRIu64 ",\"shed_rate\":%.4f"
                    ",\"link_down\":%" PRIu64 ",\"peer_failed\":%" PRIu64
                    ",\"deferrals\":%" PRIu64
                    ",\"goodput_pps\":%.0f,\"elapsed_s\":%.3f}\n",
            offered, m.delivered, shed_rate, m.link_down, m.peer_failed,
            m.deferrals, goodput, m.elapsed_s);
    }
    std::printf("\nexpectation: refusals (shed + link_down + peer_failed) "
                "absorb the excess as offered load rises; delivered + shed + "
                "link_down + peer_failed == offered at every row, never "
                "silent loss (no peer dies here, so peer_failed stays 0).\n");
    return 0;
}
