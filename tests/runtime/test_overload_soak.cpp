// Overload/backpressure chaos soak (tsan target): multiple producer
// threads offer ~10x more bytes than the configured watermarks while the
// receiving link is blacked out and lossy.  The flow-control layer must
// keep pool memory bounded (peak resident <= the critical watermark),
// never deadlock, surface every parcel it refuses (shed or link_down),
// and deliver everything else exactly once after the pressure subsides.

#include <coal/parcel/parcelhandler.hpp>

#include <coal/common/stopwatch.hpp>
#include <coal/net/faulty_transport.hpp>
#include <coal/net/loopback.hpp>
#include <coal/parcel/action.hpp>
#include <coal/serialization/buffer_pool.hpp>
#include <coal/threading/scheduler.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace {

std::atomic<std::uint64_t> g_soak_count{0};
std::atomic<std::uint64_t> g_soak_bytes{0};

std::size_t soak_sink(std::string blob)
{
    g_soak_count.fetch_add(1);
    g_soak_bytes.fetch_add(blob.size());
    return blob.size();
}

}    // namespace

COAL_PLAIN_ACTION(soak_sink, soak_sink_action);

namespace {

using coal::pressure_state;
using coal::net::blackout_window;
using coal::net::fault_plan;
using coal::net::faulty_transport;
using coal::net::loopback_transport;
using coal::parcel::delivery_error;
using coal::parcel::flow_params;
using coal::parcel::parcel;
using coal::parcel::parcelhandler;
using coal::parcel::reliability_params;
using coal::serialization::buffer_pool;
using coal::threading::scheduler;
using coal::threading::scheduler_config;

// 3000-byte payloads pack the pool's 4 KiB size class tightly, so slab
// capacity tracks offered bytes instead of inflating 4x past them.
constexpr std::size_t payload_bytes = 3000;
constexpr int producer_threads = 3;
constexpr int parcels_per_producer = 1000;

// ~9 MiB offered against a 3 MiB critical watermark while the link
// absorbs nothing: a 10x+ overload of everything downstream.
constexpr std::uint64_t pool_soft = 1u << 20;
constexpr std::uint64_t pool_critical = 3u << 20;
constexpr std::uint64_t pool_fallback_cap = 2u << 20;

flow_params soak_flow()
{
    flow_params flow;
    flow.enabled = true;
    flow.initial_window_bytes = 64 * 1024;
    flow.window_bytes = 128 * 1024;
    flow.min_window_bytes = 16 * 1024;
    flow.link_soft_bytes = 512 * 1024;
    flow.link_inflight_cap_bytes = 1536 * 1024;
    flow.starvation_trip_us = 50000;
    flow.pool_soft_bytes = pool_soft;
    flow.pool_critical_bytes = pool_critical;
    flow.pool_fallback_cap_bytes = pool_fallback_cap;
    return flow;
}

reliability_params soak_reliability()
{
    reliability_params rel;
    rel.enabled = true;
    rel.ack_delay_us = 100;
    rel.min_rto_us = 500;
    rel.max_rto_us = 20000;
    return rel;
}

TEST(OverloadSoak, BoundedMemoryNoDeadlockExactlyOnce)
{
    // Watermarks go on before any traffic; reset on every exit path so
    // the process-global pool cannot leak pressure into other binaries.
    struct watermark_guard
    {
        watermark_guard()
        {
            buffer_pool::global().set_watermarks(
                pool_soft, pool_critical, pool_fallback_cap);
        }
        ~watermark_guard()
        {
            buffer_pool::global().set_watermarks(0, 0, 0);
        }
    } marks;

    // Chaos: the forward link is dark for the first 400 ms (the stalled
    // receiver), and stays mildly lossy afterwards.
    fault_plan plan;
    plan.drop_probability = 0.02;
    plan.duplicate_probability = 0.02;
    blackout_window w;
    w.src = 0;
    w.dst = 1;
    w.end_us = 400'000;
    plan.blackouts.push_back(w);

    loopback_transport inner(2);
    faulty_transport faulty(inner, plan);

    scheduler_config cfg;
    cfg.num_workers = 2;
    scheduler sched0(cfg), sched1(cfg);

    parcelhandler ph0(0, faulty, sched0, soak_reliability(), soak_flow());
    parcelhandler ph1(1, faulty, sched1, soak_reliability(), soak_flow());

    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> failed{0};
    ph0.set_delivery_error_handler([&](delivery_error err, parcel&&) {
        if (err == delivery_error::shed_overload)
            shed.fetch_add(1);
        else
            failed.fetch_add(1);
    });

    g_soak_count = 0;
    g_soak_bytes = 0;

    // Producers race put_parcel from plain threads, far faster than the
    // dark link drains (it doesn't).
    std::string const blob(payload_bytes, 'x');
    std::vector<std::thread> producers;
    producers.reserve(producer_threads);
    for (int t = 0; t != producer_threads; ++t)
    {
        producers.emplace_back([&] {
            for (int i = 0; i != parcels_per_producer; ++i)
            {
                parcel p;
                p.dest = 1;
                p.action = soak_sink_action::id();
                p.arguments = soak_sink_action::make_arguments(blob);
                ph0.put_parcel(std::move(p));
            }
        });
    }
    for (auto& t : producers)
        t.join();

    // No deadlock: everything still owed must drain once the blackout
    // ends and the link heals.  Generous deadline for tsan.
    auto const quiet = [&] {
        return ph0.pending_sends() == 0 && ph1.pending_sends() == 0 &&
            ph0.pending_receives() == 0 && ph1.pending_receives() == 0 &&
            ph0.pending_reliability() == 0 && ph1.pending_reliability() == 0 &&
            sched0.pending_tasks() == 0 && sched1.pending_tasks() == 0;
    };
    coal::stopwatch deadline;
    bool settled = false;
    while (deadline.elapsed_ms() < 120'000.0)
    {
        if (quiet() && faulty.in_flight() == 0)
        {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            if (quiet() && faulty.in_flight() == 0)
            {
                settled = true;
                break;
            }
        }
        if (quiet() && faulty.in_flight() != 0)
            faulty.drain();
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    ASSERT_TRUE(settled) << "overload soak did not settle (deadlock?)";

    std::uint64_t const offered =
        std::uint64_t{producer_threads} * parcels_per_producer;
    std::uint64_t const delivered = g_soak_count.load();

    // Overload actually happened and was refused, not buffered.
    EXPECT_GT(shed.load(), 0u);
    EXPECT_EQ(ph0.counters().parcels_shed.load(), shed.load());
    EXPECT_EQ(ph0.counters().link_down_failures.load(), failed.load());
    EXPECT_GT(ph0.counters().sends_deferred.load(), 0u);

    // Every offered parcel is accounted for exactly once: delivered, shed
    // at admission, or failed as link_down.  Duplicates would overshoot,
    // losses undershoot.
    EXPECT_EQ(delivered + shed.load() + failed.load(), offered);
    EXPECT_EQ(ph1.counters().parcels_executed.load(), delivered);
    EXPECT_EQ(g_soak_bytes.load(), delivered * payload_bytes);

    // Bounded memory: the pool's resident high-water mark never crossed
    // the critical watermark (admission shedding kicks in one headroom
    // step below it).
    EXPECT_LE(
        buffer_pool::global().stats().resident_bytes_peak, pool_critical);

    // Pressure subsided with the backlog.
    EXPECT_EQ(ph0.current_pressure(), pressure_state::ok);
    EXPECT_EQ(buffer_pool::global().pressure(), pressure_state::ok);

    ph0.stop();
    ph1.stop();
    sched0.stop();
    sched1.stop();
}

}    // namespace
