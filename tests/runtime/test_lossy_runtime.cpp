// Full-stack acceptance tests for the lossy-network mode: a seeded fault
// plan on the simulated interconnect with the reliability layer forced
// on must deliver every parcel exactly once and in per-link order, and
// a dark link must degrade coalescing gracefully during a blackout and
// recover after it heals.

#include <coal/runtime/runtime.hpp>

#include <coal/common/stopwatch.hpp>
#include <coal/parcel/action.hpp>

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>

namespace {

// One in-order progress counter per directed link (origin * 4 + dest).
std::array<std::atomic<int>, 16> g_next_index;
std::atomic<long long> g_order_violations{0};
std::atomic<long long> g_executions{0};

int lossy_record(int link, int index)
{
    int const expected = g_next_index[static_cast<std::size_t>(link)]
                             .fetch_add(1, std::memory_order_relaxed);
    if (index != expected)
        ++g_order_violations;
    ++g_executions;
    return index;
}

void reset_order_state()
{
    for (auto& c : g_next_index)
        c.store(0, std::memory_order_relaxed);
    g_order_violations = 0;
    g_executions = 0;
}

}    // namespace

COAL_PLAIN_ACTION(lossy_record, lossy_record_action);

namespace {

using coal::locality;
using coal::runtime;
using coal::runtime_config;

TEST(LossyRuntime, SeededFaultsDeliverExactlyOnceInOrder)
{
    reset_order_state();

    runtime_config cfg;
    cfg.num_localities = 4;
    cfg.workers_per_locality = 1;
    cfg.apply_coalescing_defaults = false;
    // Cheap interconnect so the test exercises protocol logic, not the
    // modeled per-message busy-wait.
    cfg.network.send_overhead_us = 0.0;
    cfg.network.send_per_kb_us = 0.0;
    cfg.network.recv_overhead_us = 0.0;
    cfg.network.wire_latency_us = 1.0;
    cfg.network.bandwidth_bytes_per_us = 1e6;
    // The seeded fault plan: drops, duplicates and reordering at once.
    cfg.faults.seed = 0xc0a1e5ce;
    cfg.faults.drop_probability = 0.01;
    cfg.faults.duplicate_probability = 0.005;
    cfg.faults.reorder_probability = 0.005;
    // Bulk transfer tuning: a burst send means acks lag the send window,
    // so give the RTO headroom.
    cfg.reliability.ack_delay_us = 100;
    cfg.reliability.min_rto_us = 20000;

    runtime rt(cfg);
    ASSERT_TRUE(rt.config().reliability.enabled)
        << "an active fault plan must force the reliability layer on";
    rt.enable_coalescing("lossy_record_action", {64, 2000});

    constexpr int n = 25000;    // per directed link; 12 links -> 300k parcels
    rt.run_everywhere([](locality& here) {
        auto const origin = static_cast<int>(here.id().value());
        for (int i = 0; i != n; ++i)
        {
            for (auto const dest : here.find_remote_localities())
            {
                int const link = origin * 4 + static_cast<int>(dest.value());
                here.apply<lossy_record_action>(dest, link, i);
            }
        }
    });
    rt.quiesce();

    // Exactly once, in order, on every link.
    EXPECT_EQ(g_executions.load(), 12ll * n);
    EXPECT_EQ(g_order_violations.load(), 0);

    std::uint64_t executed = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t suppressed = 0;
    for (std::uint32_t i = 0; i != 4; ++i)
    {
        auto const& c = rt.get_locality(i).parcels().counters();
        executed += c.parcels_executed.load();
        retransmits += c.retransmits.load();
        suppressed += c.duplicates_suppressed.load();
    }
    EXPECT_EQ(executed, 12ull * n);
    // ~1% of thousands of frames were dropped: retransmission must have
    // happened, and the injected duplicates must have been suppressed.
    EXPECT_GT(retransmits, 0u);
    EXPECT_GT(suppressed, 0u);

    auto const net = rt.network().stats();
    EXPECT_GT(net.drops_injected, 0u);
    EXPECT_GT(net.duplicates_injected, 0u);

    // The /net counters expose the same story.
    EXPECT_GT(rt.counters().query("/net/count/retransmits").value, 0.0);
    EXPECT_GT(rt.counters().query("/net/count/drops-injected").value, 0.0);
    EXPECT_GT(
        rt.counters().query("/net/count/duplicates-suppressed").value, 0.0);
    EXPECT_GT(
        rt.counters().query("/net/time/average-ack-latency").value, 0.0);
    rt.stop();
}

namespace {

    constexpr int burst_parcels = 4000;

    void burst(runtime& rt)
    {
        rt.run_on(0, [](locality& here) {
            auto const other = here.find_remote_localities().front();
            for (int i = 0; i != burst_parcels; ++i)
                here.apply<lossy_record_action>(other, 1, i);
        });
        rt.quiesce();
    }

    double measured_ppm(runtime& rt, std::uint64_t parcels_before,
        std::uint64_t messages_before)
    {
        auto const counters =
            rt.get_locality(0).coalescing().counters("lossy_record_action");
        double const parcels =
            static_cast<double>(counters->parcels() - parcels_before);
        double const messages =
            static_cast<double>(counters->messages() - messages_before);
        return messages > 0.0 ? parcels / messages : 0.0;
    }

}    // namespace

TEST(LossyRuntime, CircuitBreakerDegradesAndRecovers)
{
    // Control: identical burst on a lossless loopback runtime.
    double ppm_lossless = 0.0;
    {
        reset_order_state();
        runtime_config cfg;
        cfg.num_localities = 2;
        cfg.transport = "loopback";
        cfg.apply_coalescing_defaults = false;
        runtime rt(cfg);
        rt.enable_coalescing("lossy_record_action", {16, 5000});
        burst(rt);
        ppm_lossless = measured_ppm(rt, 0, 0);
        rt.stop();
    }
    ASSERT_GT(ppm_lossless, 2.0);

    // Lossy: the 0->1 link is dark for the first 150 ms.
    reset_order_state();
    runtime_config cfg;
    cfg.num_localities = 2;
    cfg.transport = "loopback";
    cfg.apply_coalescing_defaults = false;
    coal::net::blackout_window w;
    w.src = 0;
    w.dst = 1;
    w.start_us = 0;
    w.end_us = 150'000;
    cfg.faults.blackouts.push_back(w);
    // Trip fast and recover fast so the test stays short: from a 2 ms
    // RTO the oldest frame passes the dark-link attempt count within
    // ~80 ms, well inside the 150 ms blackout.
    cfg.reliability.min_rto_us = 2000;
    cfg.reliability.max_rto_us = 50000;

    runtime rt(cfg);
    rt.enable_coalescing("lossy_record_action", {16, 5000});
    auto const handler =
        rt.get_locality(0).coalescing().handler("lossy_record_action");
    ASSERT_NE(handler, nullptr);
    auto& ph0 = rt.get_locality(0).parcels();

    // Feed traffic into the blackout until the link degrades.
    rt.run_on(0, [](locality& here) {
        auto const other = here.find_remote_localities().front();
        for (int i = 0; i != 2000; ++i)
            here.apply<lossy_record_action>(other, 1, i);
    });
    coal::stopwatch trip_deadline;
    while (!ph0.link_degraded(1) && trip_deadline.elapsed_ms() < 5000.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // Degradation must be visible: dark link, coalescing bypassed.
    EXPECT_TRUE(ph0.link_degraded(1));
    EXPECT_GE(ph0.counters().circuit_breaker_trips.load(), 1u);
    EXPECT_GT(rt.counters().query("/net/count/circuit-breaker-trips").value,
        0.0);
    rt.run_on(0, [](locality& here) {
        auto const other = here.find_remote_localities().front();
        for (int i = 2000; i != 2400; ++i)
            here.apply<lossy_record_action>(other, 1, i);
    });
    EXPECT_GT(handler->breaker_bypasses(), 0u);

    // Heal: once retransmissions get through, acks retire the dark
    // frames and the link is healthy; quiesce then proves nothing was
    // lost.
    coal::stopwatch heal_deadline;
    while (ph0.link_degraded(1) && heal_deadline.elapsed_ms() < 20000.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_FALSE(ph0.link_degraded(1));
    rt.quiesce();
    EXPECT_EQ(g_executions.load(), 2400);
    EXPECT_EQ(g_order_violations.load(), 0);

    // Post-heal, batching efficiency returns to the lossless level.
    auto const counters =
        rt.get_locality(0).coalescing().counters("lossy_record_action");
    std::uint64_t const parcels_before = counters->parcels();
    std::uint64_t const messages_before = counters->messages();
    burst(rt);
    double const ppm_healed =
        measured_ppm(rt, parcels_before, messages_before);
    EXPECT_GT(ppm_healed, 0.0);
    EXPECT_NEAR(ppm_healed, ppm_lossless, 0.1 * ppm_lossless)
        << "post-heal parcels-per-message did not recover";
    rt.stop();
}

}    // namespace
