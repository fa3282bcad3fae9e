#pragma once

/// \file layers.hpp
/// Per-layer metrics of the traced run.  Most come from counters the
/// runtime already registers, read over each runtime's measured window;
/// the rest are bench-side spans (put, barrier, request legs) and two
/// isolated timings: the frame codec on a batch shaped like the
/// workload's messages, and a bare transport ping-pong.

#include "steps.hpp"

#include <coal/net/transport.hpp>
#include <coal/parcel/parcel.hpp>

#include <thread>

namespace bench_report {

/// Every per-layer metric, in output order.  BENCHMARK.json lists the
/// same names; run.py's smoke check holds the two together.
inline std::vector<std::pair<char const*, char const*>> const&
layer_metric_units()
{
    static std::vector<std::pair<char const*, char const*>> const table{
        {"runtime.ctor_ms", "ms"},
        {"runtime.warmup_ms", "ms"},
        {"runtime.barrier_us_p50", "us"},
        {"core.parcels_per_message", "ratio"},
        {"core.messages_per_step", "count"},
        {"core.put_ns_p50", "ns"},
        {"core.put_ns_p99", "ns"},
        {"timing.fired_per_s", "1/s"},
        {"timing.lateness_avg_us", "us"},
        {"timing.lateness_max_us", "us"},
        {"threading.eq4_overhead", "ratio"},
        {"threading.background_us_per_parcel", "us"},
        {"threading.task_overhead_ns", "ns"},
        {"threading.func_us_per_step", "us"},
        {"threading.idle_poll_ms_per_s", "ms/s"},
        {"parcel.frames_per_drain", "ratio"},
        {"parcel.chunk_occupancy", "ratio"},
        {"parcel.decode_ns_per_parcel", "ns"},
        {"parcel.retransmits_per_message", "ratio"},
        {"parcel.dups_suppressed_per_message", "ratio"},
        {"parcel.acks_per_message", "ratio"},
        {"parcel.flow_deferrals_per_step", "count"},
        {"parcel.heartbeats_per_s", "1/s"},
        {"serialization.copied_bytes_per_parcel", "B"},
        {"serialization.flattens_per_message", "ratio"},
        {"serialization.pool_hit_rate", "ratio"},
        {"serialization.resident_mb_peak", "MB"},
        {"serialization.encode_ns_per_parcel", "ns"},
        {"serialization.decode_ns_per_parcel", "ns"},
        {"net.messages_per_parcel", "ratio"},
        {"net.bytes_per_parcel", "B"},
        {"net.wire_frames_per_message", "ratio"},
        {"net.partial_writes_per_s", "1/s"},
        {"net.raw_rtt_us", "us"},
        {"span.put_to_exec_us_p50", "us"},
        {"span.put_to_exec_us_p99", "us"},
        {"span.exec_to_ready_us_p50", "us"},
        {"trace.overhead_frac", "ratio"},
    };
    return table;
}

inline std::vector<std::string> layer_counter_names(std::string const& action)
{
    return {
        "/coalescing/count/average-parcels-per-message@" + action,
        "/coalescing/count/messages@" + action,
        "/timers/count/fired",
        "/timers/time/average-lateness",
        "/timers/time/max-lateness",
        "/threads/background-overhead",
        "/threads/background-work",
        "/threads/time/average-overhead",
        "/threads/time/func",
        // The aggregate instance omits idle-poll time; sum the localities.
        "/threads{locality#0}/time/idle-polls",
        "/threads{locality#1}/time/idle-polls",
        "/threads/receive-pipeline/frames-per-drain",
        "/threads/receive-pipeline/chunk-occupancy",
        "/threads/receive-pipeline/time/offloaded-decode",
        "/parcels/count/sent",
        "/parcels/count/received",
        "/messages/count/sent",
        "/data/count/sent",
        "/net/count/retransmits",
        "/net/count/duplicates-suppressed",
        "/net/count/acks",
        "/net/flow/count/deferrals",
        "/net/health/count/heartbeats",
        "/coal/pool/data/copied",
        "/coal/pool/count/flattens",
        "/coal/pool/count/hits",
        "/coal/pool/count/misses",
        "/coal/pool/resident-bytes-peak",
        "/net/wire/count/frames-sent",
        "/net/wire/count/partial-write-resumptions",
    };
}

/// Close one runtime's counter window and record its per-layer values.
inline void record_layers(session& s, std::string const& action,
    std::uint64_t steps)
{
    auto v = s.probe.read(*s.rt);
    double const wall =
        static_cast<double>(now_ns() - s.measure_begin) / 1e9;
    auto per = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    double const parcels = v["/parcels/count/sent"];
    double const messages = v["/messages/count/sent"];
    double const nsteps = static_cast<double>(steps);
    double const hits = v["/coal/pool/count/hits"];

    auto& L = s.rep.layer;
    L["core.parcels_per_message"].push_back(
        v["/coalescing/count/average-parcels-per-message@" + action]);
    L["core.messages_per_step"].push_back(
        per(v["/coalescing/count/messages@" + action], nsteps));
    L["timing.fired_per_s"].push_back(per(v["/timers/count/fired"], wall));
    L["timing.lateness_avg_us"].push_back(v["/timers/time/average-lateness"]);
    L["timing.lateness_max_us"].push_back(v["/timers/time/max-lateness"]);
    L["threading.eq4_overhead"].push_back(v["/threads/background-overhead"]);
    L["threading.background_us_per_parcel"].push_back(
        per(v["/threads/background-work"] / 1e3, parcels));
    L["threading.task_overhead_ns"].push_back(
        v["/threads/time/average-overhead"]);
    L["threading.func_us_per_step"].push_back(
        per(v["/threads/time/func"] / 1e3, nsteps));
    L["threading.idle_poll_ms_per_s"].push_back(
        per((v["/threads{locality#0}/time/idle-polls"] +
                v["/threads{locality#1}/time/idle-polls"]) /
                1e6,
            wall));
    L["parcel.frames_per_drain"].push_back(
        v["/threads/receive-pipeline/frames-per-drain"]);
    L["parcel.chunk_occupancy"].push_back(
        v["/threads/receive-pipeline/chunk-occupancy"]);
    L["parcel.decode_ns_per_parcel"].push_back(
        per(v["/threads/receive-pipeline/time/offloaded-decode"],
            v["/parcels/count/received"]));
    L["parcel.retransmits_per_message"].push_back(
        per(v["/net/count/retransmits"], messages));
    L["parcel.dups_suppressed_per_message"].push_back(
        per(v["/net/count/duplicates-suppressed"], messages));
    L["parcel.acks_per_message"].push_back(per(v["/net/count/acks"], messages));
    L["parcel.flow_deferrals_per_step"].push_back(
        per(v["/net/flow/count/deferrals"], nsteps));
    L["parcel.heartbeats_per_s"].push_back(
        per(v["/net/health/count/heartbeats"], wall));
    L["serialization.copied_bytes_per_parcel"].push_back(
        per(v["/coal/pool/data/copied"], parcels));
    L["serialization.flattens_per_message"].push_back(
        per(v["/coal/pool/count/flattens"], messages));
    L["serialization.pool_hit_rate"].push_back(
        per(hits, hits + v["/coal/pool/count/misses"]));
    L["serialization.resident_mb_peak"].push_back(
        v["/coal/pool/resident-bytes-peak"] / 1048576.0);
    L["net.messages_per_parcel"].push_back(per(messages, parcels));
    L["net.bytes_per_parcel"].push_back(per(v["/data/count/sent"], parcels));
    L["net.wire_frames_per_message"].push_back(
        per(v["/net/wire/count/frames-sent"], messages));
    L["net.partial_writes_per_s"].push_back(
        per(v["/net/wire/count/partial-write-resumptions"], wall));
}

/// Time encode_message and decode_message on `batch` copies of `proto`,
/// about 20 ms each; returns ns per parcel.
inline std::pair<double, double> time_codec(
    coal::parcel::parcel const& proto, std::size_t batch)
{
    std::vector<coal::parcel::parcel> parcels(std::max<std::size_t>(batch, 1),
        proto);
    constexpr std::int64_t budget_ns = 20'000'000;
    std::size_t sink = 0;

    std::uint64_t rounds = 0;
    std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    do
    {
        sink += coal::parcel::encode_message(parcels).size();
        ++rounds;
    } while ((t1 = now_ns()) - t0 < budget_ns);
    double const encode_ns = static_cast<double>(t1 - t0) /
        static_cast<double>(rounds * parcels.size());

    auto const frame = coal::parcel::encode_message(parcels).flatten();
    rounds = 0;
    t0 = now_ns();
    do
    {
        sink += coal::parcel::decode_message(frame).size();
        ++rounds;
    } while ((t1 = now_ns()) - t0 < budget_ns);
    double const decode_ns = static_cast<double>(t1 - t0) /
        static_cast<double>(rounds * parcels.size());

    if (sink == 0)
        std::fprintf(stderr, "codec produced nothing\n");
    return {encode_ns, decode_ns};
}

/// Median round trip of an 8-byte frame between localities 0 and 1 of a
/// bare transport (no parcel layer): the floor under lat_p50_us.
inline double raw_rtt_us(coal::net::transport& net, int rounds)
{
    std::atomic<int> pongs{0};
    auto frame = [] {
        return coal::serialization::wire_message(
            coal::serialization::shared_buffer(std::size_t(8)));
    };
    net.set_delivery_handler(1,
        [&net, &frame](std::uint32_t, coal::serialization::shared_buffer&&) {
            net.send(1, 0, frame());
        });
    net.set_delivery_handler(0,
        [&pongs](std::uint32_t, coal::serialization::shared_buffer&&) {
            pongs.fetch_add(1, std::memory_order_release);
        });

    std::vector<double> rtts;
    rtts.reserve(static_cast<std::size_t>(rounds));
    for (int i = 0; i <= rounds; ++i)    // round 0 connects, not counted
    {
        int const seen = pongs.load(std::memory_order_acquire);
        std::int64_t const t0 = now_ns();
        net.send(0, 1, frame());
        while (pongs.load(std::memory_order_acquire) == seen)
            std::this_thread::yield();
        if (i != 0)
            rtts.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    net.drain();
    net.shutdown();
    return median(std::move(rtts));
}

}    // namespace bench_report
