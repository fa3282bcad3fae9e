// Failure injection and stress: pathological parameters, shutdown with
// traffic in flight, timer storms, concurrent parameter mutation under
// load.  The invariant everywhere: no crash, no hang, no lost result for
// completed waits.

#include <coal/runtime/runtime.hpp>

#include <coal/parcel/action.hpp>
#include <coal/threading/future.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace {

int fi_echo(int x)
{
    return x;
}

}    // namespace

COAL_PLAIN_ACTION(fi_echo, fi_echo_action);

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

void burst(runtime& rt, int n)
{
    rt.run_on(0, [n](locality& here) {
        auto const other = here.find_remote_localities().front();
        std::vector<coal::threading::future<int>> futures;
        for (int i = 0; i != n; ++i)
            futures.push_back(here.async<fi_echo_action>(other, i));
        coal::threading::wait_all(futures);
    });
}

TEST(FailureInjection, ZeroNparcelsActsDisabled)
{
    runtime rt(loopback());
    rt.enable_coalescing("fi_echo_action", {0, 1000});
    burst(rt, 50);
    rt.stop();
}

TEST(FailureInjection, NegativeIntervalActsDisabled)
{
    runtime rt(loopback());
    rt.enable_coalescing("fi_echo_action", {16, -100});
    burst(rt, 50);
    rt.stop();
}

TEST(FailureInjection, OneMicrosecondIntervalBehavesLikePaperFig8)
{
    // interval = 1 µs: parcels virtually always arrive more than 1 µs
    // apart, so the sparse bypass effectively disables coalescing (the
    // paper's Fig. 8 boundary ridge).  Must still complete correctly.
    runtime rt(loopback());
    rt.enable_coalescing("fi_echo_action", {64, 1});
    burst(rt, 300);
    rt.quiesce();
    auto counters = rt.get_locality(0u).coalescing().counters("fi_echo_action");
    ASSERT_NE(counters, nullptr);
    // With a 1 µs window, batches stay well below the nominal 64 —
    // either via the sparse bypass or the near-immediate flush timer.
    // (Exact sizes depend on enqueue gaps, so only bound it.)
    EXPECT_LT(counters->average_parcels_per_message(), 64.0);
    rt.stop();
}

TEST(FailureInjection, TinyMaxBufferFlushesConstantly)
{
    runtime rt(loopback());
    rt.enable_coalescing("fi_echo_action", {1000, 1000000, 1});
    burst(rt, 200);
    rt.stop();
}

TEST(FailureInjection, HugeNparcelsReliesOnTimeoutOnly)
{
    // The size trigger can never fire: batches leave on the flush timer,
    // or on an idle flush once the waiting task leaves a locality idle.
    runtime rt(loopback());
    rt.enable_coalescing("fi_echo_action", {1u << 20, 2000});
    burst(rt, 100);
    rt.stop();
}

TEST(FailureInjection, StopWithParcelsStuckInCoalescingQueues)
{
    runtime rt(loopback());
    // Fire-and-forget parcels that sit in the queue (no future waits on
    // them); stop() must flush and drain rather than hang or leak.  The
    // sending task stays busy until the queue empties, so locality 0
    // never goes idle (an idle locality flushes its own queues) and only
    // stop()'s quiesce can flush it.  The spin gives up after 10 s so a
    // stop() that never flushes fails below instead of hanging.
    rt.enable_coalescing("fi_echo_action", {1000, 60000000});
    std::atomic<bool> issued{false};
    locality& zero = rt.get_locality(0u);
    zero.post([&] {
        auto const other = zero.find_remote_localities().front();
        for (int i = 0; i != 37; ++i)
            zero.apply<fi_echo_action>(other, i);
        issued = true;
        auto const deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (zero.coalescing().queued_parcels() != 0 &&
            std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
    });
    while (!issued)
        std::this_thread::yield();
    EXPECT_GT(zero.coalescing().queued_parcels(), 0u);
    rt.stop();
    // All flushed and executed during quiesce.
    EXPECT_EQ(
        rt.get_locality(1u).parcels().counters().parcels_executed.load(),
        37u);
}

TEST(FailureInjection, ConcurrentParamMutationUnderLoad)
{
    runtime rt(loopback());
    rt.enable_coalescing("fi_echo_action", {8, 1000});

    std::atomic<bool> stop_mutating{false};
    std::thread mutator([&] {
        std::size_t n = 1;
        while (!stop_mutating.load())
        {
            rt.set_coalescing_params("fi_echo_action", {n, 1000});
            n = n == 256 ? 1 : n * 2;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });

    for (int round = 0; round != 5; ++round)
        burst(rt, 400);

    stop_mutating = true;
    mutator.join();
    rt.stop();
}

TEST(FailureInjection, TimerStormManyActionsManyQueues)
{
    runtime rt(loopback());
    // Very short interval: batches leave on their flush deadline.
    rt.enable_coalescing("fi_echo_action", {1u << 20, 100});
    for (int round = 0; round != 3; ++round)
        burst(rt, 500);
    rt.quiesce();
    EXPECT_GT(rt.counters().query("/timers/count/fired").value, 0.0);
    rt.stop();
}

TEST(FailureInjection, RepeatedEnableDisableUnderTraffic)
{
    runtime rt(loopback());
    for (int round = 0; round != 10; ++round)
    {
        if (round % 2 == 0)
            rt.enable_coalescing("fi_echo_action", {16, 500});
        else
            for (std::uint32_t i = 0; i != 2; ++i)
                rt.get_locality(i).coalescing().disable("fi_echo_action");
        burst(rt, 100);
    }
    rt.stop();
}

TEST(FailureInjection, ThrowingSpmdFunctionDoesNotHang)
{
    coal::set_log_level(coal::log_level::none);
    runtime rt(loopback());
    rt.run_everywhere([](locality& here) {
        if (here.id().value() == 1)
            throw std::runtime_error("app bug");
    });
    // Both localities completed (one by throwing) — no hang, no crash.
    rt.stop();
    coal::set_log_level(coal::log_level::warn);
    SUCCEED();
}

TEST(FailureInjection, StressMixedWorkloads)
{
    // Toy round trips, component mutations and fire-and-forget traffic
    // interleaved on the same runtime — a race detector for the shared
    // subsystems (handler maps, response table, AGAS, timers).
    runtime rt(loopback());
    rt.enable_coalescing("fi_echo_action", {8, 500});

    struct accum
    {
        std::atomic<long long> value{0};
        void add(long long n)
        {
            value += n;
        }
    };
    // Local component type for this test.
    static auto component = std::make_shared<accum>();
    component->value = 0;
    auto const gid = rt.agas().bind(coal::agas::locality_id{1}, component);
    (void) gid;

    rt.run_everywhere([&](locality& here) {
        auto const other = here.find_remote_localities().front();
        std::vector<coal::threading::future<int>> futures;
        for (int round = 0; round != 20; ++round)
        {
            for (int i = 0; i != 50; ++i)
                futures.push_back(here.async<fi_echo_action>(other, i));
            here.apply<fi_echo_action>(other, round);
            if (round % 4 == 0)
                rt.barrier();
        }
        coal::threading::wait_all(futures);
    });
    rt.quiesce();

    // 2 localities × (20×50 asyncs + 20 applies) parcels executed.
    auto const executed =
        rt.get_locality(0u).parcels().counters().parcels_executed.load() +
        rt.get_locality(1u).parcels().counters().parcels_executed.load();
    // asyncs also produce response executions at the caller side.
    EXPECT_GE(executed, 2u * (20 * 50 + 20));
    rt.stop();
}

TEST(FailureInjection, ManyRuntimesSequentially)
{
    // Churn: create/destroy full runtimes back to back (leak and
    // stale-thread-state detector, especially for the background-hook
    // caches keyed by scheduler uid).
    for (int i = 0; i != 5; ++i)
    {
        runtime rt(loopback());
        rt.enable_coalescing("fi_echo_action", {8, 500});
        burst(rt, 50);
        rt.stop();
    }
    SUCCEED();
}

TEST(FailureInjection, QuiesceIsReentrantAndIdempotent)
{
    runtime rt(loopback());
    burst(rt, 10);
    rt.quiesce();
    rt.quiesce();
    rt.stop();
}

}    // namespace
