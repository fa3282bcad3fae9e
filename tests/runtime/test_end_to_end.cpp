// End-to-end behavioural tests on the full stack: coalescing reduces
// message counts without losing parcels, timeouts flush stragglers, and
// the headline mechanism (per-message cost amortization) is visible on
// the cost-model transport.

#include <coal/runtime/runtime.hpp>

#include <coal/common/stopwatch.hpp>
#include <coal/parcel/action.hpp>
#include <coal/threading/future.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

namespace {

std::atomic<long long> g_e2e_acc{0};

int e2e_inc(int x)
{
    g_e2e_acc += x;
    return x + 1;
}

}    // namespace

COAL_PLAIN_ACTION(e2e_inc, e2e_inc_action);

namespace {

using coal::locality;
using coal::runtime;
using coal::runtime_config;

runtime_config loopback()
{
    runtime_config cfg;
    cfg.num_localities = 2;
    cfg.transport = "loopback";
    cfg.apply_coalescing_defaults = false;
    return cfg;
}

long long burst(runtime& rt, int n)
{
    long long checksum = 0;
    rt.run_on(0, [&, n](locality& here) {
        auto const other = here.find_remote_localities().front();
        std::vector<coal::threading::future<int>> futures;
        futures.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i != n; ++i)
            futures.push_back(here.async<e2e_inc_action>(other, i));
        for (auto& f : futures)
            checksum += f.get();
    });
    return checksum;
}

TEST(EndToEnd, CoalescingPreservesResultsExactly)
{
    runtime rt(loopback());
    rt.enable_coalescing("e2e_inc_action", {16, 1000});
    g_e2e_acc = 0;

    constexpr int n = 1000;
    long long const checksum = burst(rt, n);

    // Results: Σ(i+1), side effects: Σi.
    long long const expected_results =
        static_cast<long long>(n) * (n + 1) / 2;
    long long const expected_side = static_cast<long long>(n) * (n - 1) / 2;
    EXPECT_EQ(checksum, expected_results);
    EXPECT_EQ(g_e2e_acc.load(), expected_side);
    rt.stop();
}

TEST(EndToEnd, CoalescingReducesWireMessages)
{
    // Two identical runtimes, identical traffic; the coalesced one must
    // emit ~n/k of the messages.
    constexpr int n = 640;

    std::uint64_t uncoalesced_messages = 0;
    {
        runtime rt(loopback());
        burst(rt, n);
        rt.quiesce();
        uncoalesced_messages = rt.network().stats().messages_sent;
        rt.stop();
    }

    std::uint64_t coalesced_messages = 0;
    {
        runtime rt(loopback());
        rt.enable_coalescing("e2e_inc_action", {64, 5000});
        burst(rt, n);
        rt.quiesce();
        coalesced_messages = rt.network().stats().messages_sent;
        rt.stop();
    }

    EXPECT_EQ(uncoalesced_messages, 2u * n);
    // 640/64 = 10 requests + ~10-20 response messages (+ slack for
    // partial timer flushes).
    EXPECT_LE(coalesced_messages, 60u);
}

TEST(EndToEnd, TimeoutFlushesFinalPartialBatch)
{
    runtime rt(loopback());
    // Batches of 1000 never fill with 10 parcels.  The waiting task
    // leaves each locality idle, so an idle flush sends them; the flush
    // timer (50 ms) is the fallback.
    rt.enable_coalescing("e2e_inc_action", {1000, 50000});
    long long const checksum = burst(rt, 10);
    EXPECT_EQ(checksum, 55);
    rt.stop();
}

TEST(EndToEnd, DisableCoalescingMidRun)
{
    runtime rt(loopback());
    rt.enable_coalescing("e2e_inc_action", {32, 2000});
    burst(rt, 100);

    for (std::uint32_t i = 0; i != 2; ++i)
        rt.get_locality(i).coalescing().disable("e2e_inc_action");
    long long const checksum = burst(rt, 100);
    long long const expected = 100ll * 101 / 2;
    EXPECT_EQ(checksum, expected);
    rt.stop();
}

TEST(EndToEnd, ResponsesCoalesceWhenEnabled)
{
    runtime rt(loopback());
    rt.enable_coalescing("e2e_inc_action", {32, 5000});
    burst(rt, 320);
    rt.quiesce();

    // Locality 1 sends responses through its sibling handler.
    auto counters =
        rt.get_locality(1u).coalescing().counters("e2e_inc_action");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->parcels(), 320u);
    EXPECT_GT(counters->average_parcels_per_message(), 2.0);
    rt.stop();
}

TEST(EndToEnd, ResponsesBypassWhenDisabledInConfig)
{
    runtime_config cfg = loopback();
    cfg.coalesce_responses = false;
    runtime rt(cfg);
    rt.enable_coalescing("e2e_inc_action", {32, 5000});
    burst(rt, 320);
    rt.quiesce();

    // With response coalescing off, locality 1's response stream is not
    // routed through a handler: its per-action counters see nothing.
    auto counters =
        rt.get_locality(1u).coalescing().counters("e2e_inc_action");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->parcels(), 0u);
    // Wire: 320 individual response messages + ~10 request messages.
    EXPECT_GE(rt.network().stats().messages_sent, 320u);
    rt.stop();
}

TEST(EndToEnd, PerMessageCostAmortizationOnSimNetwork)
{
    // The paper's headline mechanism, as a test: with a significant
    // per-message cost, coalescing k parcels per message must be faster.
    runtime_config cfg;
    cfg.num_localities = 2;
    cfg.apply_coalescing_defaults = false;
    cfg.pin_transport = true;    // asserts the *simulated* cost model
    cfg.network.send_overhead_us = 20.0;
    cfg.network.recv_overhead_us = 20.0;

    constexpr int n = 400;

    double uncoalesced_s = 0.0;
    {
        runtime rt(cfg);
        coal::stopwatch sw;
        burst(rt, n);
        uncoalesced_s = sw.elapsed_s();
        rt.stop();
    }

    double coalesced_s = 0.0;
    {
        runtime rt(cfg);
        rt.enable_coalescing("e2e_inc_action", {64, 4000});
        coal::stopwatch sw;
        burst(rt, n);
        coalesced_s = sw.elapsed_s();
        rt.stop();
    }

    // 400 × 40 µs ≈ 16 ms of per-message CPU vs ~0.5 ms coalesced;
    // require a clear win with generous noise margin.
    EXPECT_LT(coalesced_s, uncoalesced_s * 0.8)
        << "uncoalesced " << uncoalesced_s << " s vs coalesced "
        << coalesced_s << " s";
}

TEST(EndToEnd, OverheadMetricFallsWithCoalescing)
{
    runtime_config cfg;
    cfg.num_localities = 2;
    cfg.apply_coalescing_defaults = false;
    cfg.network.send_overhead_us = 20.0;
    cfg.network.recv_overhead_us = 20.0;

    double overhead_uncoalesced = 0.0;
    {
        runtime rt(cfg);
        burst(rt, 400);
        rt.quiesce();
        overhead_uncoalesced =
            rt.counters().query("/threads/background-overhead").value;
        rt.stop();
    }

    double overhead_coalesced = 0.0;
    {
        runtime rt(cfg);
        rt.enable_coalescing("e2e_inc_action", {64, 4000});
        burst(rt, 400);
        rt.quiesce();
        overhead_coalesced =
            rt.counters().query("/threads/background-overhead").value;
        rt.stop();
    }

    EXPECT_LT(overhead_coalesced, overhead_uncoalesced);
}

}    // namespace
