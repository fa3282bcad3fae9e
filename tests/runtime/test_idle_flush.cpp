// Idle flush and event-driven wake-ups: a locality with no running task
// flushes its coalescing queues instead of waiting for the flush
// deadline, deliveries wake sleeping workers, a busy sibling worker keeps
// the batches full (the flush is locality-idle, not worker-idle), and an
// idle sibling of a busy worker wakes for a flush deadline.  Each test
// is a wall-clock bound, so a lost wake-up or a deadline-bound leg shows
// up as a failure rather than a slow pass.

#include <coal/runtime/runtime.hpp>

#include <coal/common/stopwatch.hpp>
#include <coal/core/coalescing_params.hpp>
#include <coal/parcel/action.hpp>
#include <coal/threading/future.hpp>
#include <coal/timing/busy_work.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace {

int idle_echo(int x)
{
    return x + 1;
}

std::atomic<unsigned> g_idle_sink{0};

void idle_sink(int)
{
    g_idle_sink.fetch_add(1, std::memory_order_relaxed);
}

}    // namespace

COAL_PLAIN_ACTION(idle_echo, idle_echo_action);
COAL_PLAIN_ACTION(idle_sink, idle_sink_action);

namespace {

using coal::locality;
using coal::runtime;
using coal::runtime_config;
using coal::coalescing::coalescing_params;

constexpr int round_trips = 50;
constexpr double bound_ms = 250.0;

runtime_config two_localities(unsigned workers)
{
    runtime_config cfg;
    cfg.num_localities = 2;
    cfg.workers_per_locality = workers;
    cfg.apply_coalescing_defaults = false;
    return cfg;
}

coalescing_params batching(std::size_t nparcels)
{
    // A 1 s deadline: a leg that waits for it blows every bound below.
    coalescing_params p;
    p.nparcels = nparcels;
    p.interval_us = 1'000'000;
    p.sparse_bypass = false;
    return p;
}

// Sequential round trips until `round_trips` are done or the bound has
// passed (so a timer-bound build fails in seconds, not minutes).
int ping_pong(locality& here, coal::stopwatch const& clock)
{
    auto const other = here.find_remote_localities().front();
    int done = 0;
    while (done != round_trips && clock.elapsed_ms() <= bound_ms)
    {
        EXPECT_EQ(here.async<idle_echo_action>(other, done).get(), done + 1);
        ++done;
    }
    return done;
}

TEST(IdleFlush, IdleLocalityFlushesWithoutTimer)
{
    // The task waiting on each response leaves locality 0 with no running
    // task, so the request leaves on an idle flush; locality 1 goes idle
    // after executing it, so the response does too.  Neither leg can
    // fill 16 parcels or take the (disabled) sparse bypass.
    runtime rt(two_localities(1));
    rt.enable_coalescing(idle_echo_action::name(), batching(16));

    int done = 0;
    double elapsed_ms = 0.0;
    rt.run_on(0, [&](locality& here) {
        coal::stopwatch clock;
        done = ping_pong(here, clock);
        elapsed_ms = clock.elapsed_ms();
    });

    EXPECT_EQ(done, round_trips);
    EXPECT_LE(elapsed_ms, bound_ms);
    auto const handler =
        rt.get_locality(0u).coalescing().handler(idle_echo_action::name());
    ASSERT_NE(handler, nullptr);
    EXPECT_GT(handler->idle_flushes(), 0u);
    EXPECT_EQ(handler->timer_flushes(), 0u);
    rt.stop();
}

TEST(IdleFlush, IdleSiblingFlushesAtDeadline)
{
    // One of locality 0's two workers sleeps inside a 300 ms task, so the
    // locality never goes idle and no idle flush can send the parcel.
    // Its sibling sleeps with reliability off, so nothing but the flush
    // deadline bounds that sleep: it must wake at the 2 ms deadline.
    auto cfg = two_localities(2);
    cfg.reliability.enabled = false;
    runtime rt(cfg);
    coalescing_params params;
    params.nparcels = 128;
    params.interval_us = 2000;
    params.sparse_bypass = false;
    rt.enable_coalescing(idle_sink_action::name(), params);
    g_idle_sink = 0;

    auto& here = rt.get_locality(0u);
    std::atomic<bool> started{false};
    here.post([&started] {
        started.store(true, std::memory_order_release);
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
    });
    while (!started.load(std::memory_order_acquire))
        std::this_thread::yield();
    // Past the scheduler's 1 ms warm-poll window: the sibling's sleep is
    // no longer bounded by it.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

    coal::stopwatch clock;
    here.apply<idle_sink_action>(here.find_remote_localities().front(), 1);
    while (g_idle_sink.load() == 0 && clock.elapsed_ms() <= bound_ms)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    double const elapsed_ms = clock.elapsed_ms();

    EXPECT_EQ(g_idle_sink.load(), 1u);
    EXPECT_LE(elapsed_ms, 100.0);
    auto const handler =
        here.coalescing().handler(idle_sink_action::name());
    ASSERT_NE(handler, nullptr);
    EXPECT_EQ(handler->timer_flushes(), 1u);
    EXPECT_EQ(handler->idle_flushes(), 0u);
    rt.stop();
}

TEST(IdleFlush, DeliveryWakesIdleWorker)
{
    // Issued from the main thread with reliability off, so idle workers
    // sleep until woken: the put, each transport delivery and each
    // response must wake the idle worker that handles it.
    auto cfg = two_localities(1);
    cfg.reliability.enabled = false;
    runtime rt(cfg);
    rt.enable_coalescing(idle_echo_action::name(), batching(16));

    coal::stopwatch clock;
    int const done = ping_pong(rt.get_locality(0u), clock);
    double const elapsed_ms = clock.elapsed_ms();

    EXPECT_EQ(done, round_trips);
    EXPECT_LE(elapsed_ms, bound_ms);
    rt.stop();
}

TEST(IdleFlush, IdleRuntimeDoesNotPoll)
{
    // With reliability off nothing in progress() is time-driven, so the
    // workers of a quiesced runtime sleep until woken instead of polling
    // on a timer (a 100 us poll made ~1200 calls per worker here).
    auto cfg = two_localities(1);
    cfg.reliability.enabled = false;
    runtime rt(cfg);
    rt.quiesce();

    std::uint64_t before[2];
    for (std::uint32_t i = 0; i != 2; ++i)
        before[i] = rt.get_locality(i).scheduler().snapshot().background_calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    for (std::uint32_t i = 0; i != 2; ++i)
    {
        auto const polls =
            rt.get_locality(i).scheduler().snapshot().background_calls -
            before[i];
        EXPECT_LT(polls, 20u) << "locality " << i;
    }
    rt.stop();
}

TEST(IdleFlush, BusySiblingKeepsBatching)
{
    // One task sends to locality 1 while locality 0's other three workers
    // idle.  They must not flush: the producing sibling is still running
    // a task, so every batch fills to 128 by size.  A few microseconds of
    // compute between sends stretch the task over many idle-poll periods
    // of the siblings, so a worker-idle flush would split most batches.
    constexpr unsigned parcels = 4096;
    runtime rt(two_localities(4));
    rt.enable_coalescing(idle_sink_action::name(), batching(128));
    g_idle_sink = 0;

    rt.run_on(0, [](locality& here) {
        auto const other = here.find_remote_localities().front();
        for (unsigned i = 0; i != parcels; ++i)
        {
            coal::timing::spin_for_us(5.0);
            here.apply<idle_sink_action>(other, static_cast<int>(i));
        }
    });
    rt.quiesce();

    EXPECT_EQ(g_idle_sink.load(), parcels);
    auto const counters =
        rt.get_locality(0u).coalescing().counters(idle_sink_action::name());
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->parcels(), parcels);
    EXPECT_GE(counters->average_parcels_per_message(), 120.0);
    rt.stop();
}

}    // namespace
