// The coalescing message handler — Algorithm 1 behaviour:
// queue-full flush, deadline flush, sparse-traffic bypass, max-buffer cap,
// live parameter changes, deadline flushes racing the size trigger.  The
// handler is installed on its parcelhandler, whose worker runs the
// deadline flushes from progress().

#include <coal/core/coalescing_message_handler.hpp>

#include <coal/net/loopback.hpp>
#include <coal/parcel/action.hpp>
#include <coal/parcel/parcelhandler.hpp>
#include <coal/threading/scheduler.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace {

std::atomic<int> g_cmh_hits{0};

void cmh_target(int)
{
    ++g_cmh_hits;
}

}    // namespace

COAL_PLAIN_ACTION(cmh_target, cmh_target_action);

namespace {

using coal::coalescing::coalescing_counters;
using coal::coalescing::coalescing_message_handler;
using coal::coalescing::coalescing_params;
using coal::coalescing::shared_params;
using coal::net::loopback_transport;
using coal::parcel::parcel;
using coal::parcel::parcelhandler;
using coal::threading::scheduler;
using coal::threading::scheduler_config;

struct handler_harness
{
    explicit handler_harness(coalescing_params params)
      : transport(2)
      , sched0(cfg())
      , sched1(cfg())
      , ph0(0, transport, sched0)
      , ph1(1, transport, sched1)
      , shared(std::make_shared<shared_params>(params))
      , counters(std::make_shared<coalescing_counters>())
      , installed(std::make_shared<coalescing_message_handler>(
            "cmh_target_action", ph0, shared, counters))
      , handler(*installed)
    {
        g_cmh_hits = 0;
        ph0.set_message_handler(cmh_target_action::id(), installed);
    }

    ~handler_harness()
    {
        settle();
        ph0.set_message_handler(cmh_target_action::id(), nullptr);
        ph0.stop();
        ph1.stop();
        sched0.stop();
        sched1.stop();
    }

    static scheduler_config cfg()
    {
        scheduler_config c;
        c.num_workers = 1;
        return c;
    }

    void settle()
    {
        // Wall-clock deadline, not an iteration count: under parallel
        // test load each sleep can stretch far past its nominal duration.
        auto const deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(15);
        while (std::chrono::steady_clock::now() < deadline)
        {
            if (ph0.pending_sends() == 0 && ph1.pending_receives() == 0 &&
                sched1.pending_tasks() == 0)
                return;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    parcel make_parcel(std::size_t payload = 8)
    {
        parcel p;
        p.source = 0;
        p.dest = 1;
        p.action = cmh_target_action::id();
        p.continuation = 0;
        p.arguments = cmh_target_action::make_arguments(1);
        if (payload > p.arguments.size())
        {
            auto padded = p.arguments.to_vector();
            padded.resize(payload);
            p.arguments = padded;
        }
        return p;
    }

    std::uint64_t wire_messages()
    {
        return transport.stats().messages_sent;
    }

    loopback_transport transport;
    scheduler sched0, sched1;
    parcelhandler ph0, ph1;
    std::shared_ptr<shared_params> shared;
    std::shared_ptr<coalescing_counters> counters;
    std::shared_ptr<coalescing_message_handler> installed;
    coalescing_message_handler& handler;
};

coalescing_params params(std::size_t n, std::int64_t interval_us,
    std::size_t max_bytes = 1 << 20)
{
    coalescing_params p;
    p.nparcels = n;
    p.interval_us = interval_us;
    p.max_buffer_bytes = max_bytes;
    return p;
}

TEST(CoalescingHandler, QueueFullTriggersFlush)
{
    handler_harness h(params(4, 1000000));    // deadline far away

    for (int i = 0; i != 4; ++i)
        h.handler.enqueue(h.make_parcel());
    h.settle();

    EXPECT_EQ(h.wire_messages(), 1u);
    EXPECT_EQ(h.handler.queued_parcels(), 0u);
    EXPECT_EQ(h.handler.size_flushes(), 1u);
    EXPECT_EQ(h.handler.timer_flushes(), 0u);
    EXPECT_EQ(h.counters->parcels(), 4u);
    EXPECT_EQ(h.counters->messages(), 1u);
    EXPECT_DOUBLE_EQ(h.counters->average_parcels_per_message(), 4.0);
}

TEST(CoalescingHandler, PartialBatchFlushedByTimer)
{
    handler_harness h(params(100, 10000));    // 10 ms deadline

    for (int i = 0; i != 7; ++i)
        h.handler.enqueue(h.make_parcel());
    EXPECT_EQ(h.handler.queued_parcels(), 7u);
    EXPECT_EQ(h.wire_messages(), 0u);

    // Wait for the deadline flush.
    for (int i = 0; i != 200 && h.handler.queued_parcels() != 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    h.settle();

    EXPECT_EQ(h.handler.queued_parcels(), 0u);
    EXPECT_EQ(h.wire_messages(), 1u);
    EXPECT_EQ(h.handler.timer_flushes(), 1u);
    EXPECT_EQ(g_cmh_hits.load(), 7);
}

// The deadline path itself: a queue flushes once, not before its
// deadline, not at all after a size flush took it, every armed queue
// flushes, and each flush feeds the /timers/* lateness counters.

coalescing_params deadline_only(std::int64_t interval_us)
{
    auto p = params(100, interval_us);
    p.sparse_bypass = false;
    return p;
}

// Waits until nothing is queued or two seconds passed.
void wait_until_sent(handler_harness& h)
{
    auto const deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (h.handler.queued_parcels() != 0 &&
        std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
}

TEST(CoalescingHandler, DeadlineFlushFiresOnce)
{
    handler_harness h(deadline_only(2000));
    for (int i = 0; i != 3; ++i)
        h.handler.enqueue(h.make_parcel());
    wait_until_sent(h);
    // Several deadline periods later, still the one flush.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    h.settle();

    EXPECT_EQ(h.handler.timer_flushes(), 1u);
    EXPECT_EQ(h.ph0.counters().deadline_flushes.load(), 1u);
    EXPECT_EQ(h.wire_messages(), 1u);
    EXPECT_EQ(g_cmh_hits.load(), 3);
}

TEST(CoalescingHandler, DeadlineFlushNotBeforeDeadline)
{
    handler_harness h(deadline_only(20000));
    auto const start = std::chrono::steady_clock::now();
    h.handler.enqueue(h.make_parcel());
    wait_until_sent(h);
    auto const waited = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start)
                            .count();

    ASSERT_EQ(h.handler.timer_flushes(), 1u) << "deadline never flushed";
    EXPECT_GE(waited, 20000);
}

TEST(CoalescingHandler, SizeFlushDisarmsDeadline)
{
    auto p = deadline_only(5000);
    p.nparcels = 4;
    handler_harness h(p);
    for (int i = 0; i != 4; ++i)
        h.handler.enqueue(h.make_parcel());
    // Well past the deadline the size flush took with it.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    h.settle();

    EXPECT_EQ(h.handler.size_flushes(), 1u);
    EXPECT_EQ(h.handler.timer_flushes(), 0u);
    EXPECT_EQ(h.ph0.counters().deadline_flushes.load(), 0u);
    EXPECT_EQ(h.wire_messages(), 1u);
}

// A size flush leaves the parcelhandler's earliest deadline armed.  The
// progress() call that claims that stale deadline flushes nothing, so it
// must report no work: a true here is counted as background time and
// keeps a worker's warm-poll window open.
TEST(CoalescingHandler, StaleDeadlinePollReportsNoWork)
{
    auto p = deadline_only(50000);
    p.nparcels = 4;
    handler_harness h(p);

    // Hold sched0's only worker, so no progress() but ours runs on ph0.
    std::atomic<bool> release{false};
    std::atomic<bool> holding{false};
    h.sched0.post([&] {
        holding = true;
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    while (!holding.load())
        std::this_thread::sleep_for(std::chrono::microseconds(100));

    auto const armed_at = std::chrono::steady_clock::now();
    for (int i = 0; i != 4; ++i)
        h.handler.enqueue(h.make_parcel());
    EXPECT_EQ(h.handler.size_flushes(), 1u);
    // Send the size-flushed batch, then poll past the old deadline.
    while (h.ph0.pending_sends() != 0)
        h.ph0.progress();
    std::this_thread::sleep_until(armed_at + std::chrono::milliseconds(60));
    bool const worked = h.ph0.progress();
    release = true;

    EXPECT_FALSE(worked);
    EXPECT_EQ(h.ph0.counters().deadline_flushes.load(), 0u);
    EXPECT_EQ(h.handler.timer_flushes(), 0u);
    EXPECT_EQ(h.wire_messages(), 1u);
}

TEST(CoalescingHandler, ManyDeadlinesAllFlush)
{
    constexpr int n = 20;
    handler_harness h(deadline_only(1000));
    for (int i = 0; i != n; ++i)
    {
        h.handler.enqueue(h.make_parcel());
        wait_until_sent(h);
    }
    h.settle();

    EXPECT_EQ(h.handler.timer_flushes(), static_cast<std::uint64_t>(n));
    EXPECT_EQ(
        h.ph0.counters().deadline_flushes.load(), static_cast<std::uint64_t>(n));
    EXPECT_EQ(g_cmh_hits.load(), n);
}

TEST(CoalescingHandler, DeadlineFlushTracksLateness)
{
    constexpr int n = 5;
    handler_harness h(deadline_only(1000));
    for (int i = 0; i != n; ++i)
    {
        h.handler.enqueue(h.make_parcel());
        wait_until_sent(h);
    }

    auto const& c = h.ph0.counters();
    ASSERT_EQ(c.deadline_flushes.load(), static_cast<std::uint64_t>(n));
    // Lateness is never negative (a flush runs at or after its deadline),
    // and the worst flush is at least as late as the mean.
    EXPECT_GE(c.deadline_lateness_max_ns.load() * n,
        c.deadline_lateness_ns.load());
}

TEST(CoalescingHandler, DisabledByNparcelsOnePassesThrough)
{
    handler_harness h(params(1, 4000));
    for (int i = 0; i != 5; ++i)
        h.handler.enqueue(h.make_parcel());
    h.settle();
    EXPECT_EQ(h.wire_messages(), 5u);
    EXPECT_EQ(h.counters->messages(), 5u);
    EXPECT_DOUBLE_EQ(h.counters->average_parcels_per_message(), 1.0);
}

TEST(CoalescingHandler, DisabledByZeroIntervalPassesThrough)
{
    handler_harness h(params(64, 0));
    for (int i = 0; i != 5; ++i)
        h.handler.enqueue(h.make_parcel());
    h.settle();
    EXPECT_EQ(h.wire_messages(), 5u);
}

TEST(CoalescingHandler, SparseTrafficBypassesQueue)
{
    // Interval 1000 µs; parcels arrive 5 ms apart -> tslp > interval with
    // an empty queue -> direct send, no deadline latency added.
    handler_harness h(params(64, 1000));

    h.handler.enqueue(h.make_parcel());    // first parcel: queued (no gap)
    for (int i = 0; i != 3; ++i)
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        h.handler.enqueue(h.make_parcel());
    }
    h.settle();

    // First parcel: flushed at its deadline after 1 ms.  The three sparse
    // parcels: sent directly.
    EXPECT_EQ(h.wire_messages(), 4u);
    EXPECT_EQ(h.handler.queued_parcels(), 0u);
}

TEST(CoalescingHandler, MaxBufferBytesForcesEarlyFlush)
{
    // Parcels of ~1 KiB payload; cap at 3 KiB -> flush every ~3 parcels
    // even though nparcels allows 100.
    handler_harness h(params(100, 1000000, 3 * 1024));
    for (int i = 0; i != 12; ++i)
        h.handler.enqueue(h.make_parcel(1024));
    h.handler.flush();
    h.settle();

    EXPECT_GE(h.wire_messages(), 4u);
    EXPECT_EQ(g_cmh_hits.load(), 12);
}

TEST(CoalescingHandler, ExplicitFlushSendsEverything)
{
    handler_harness h(params(1000, 1000000));
    for (int i = 0; i != 33; ++i)
        h.handler.enqueue(h.make_parcel());
    EXPECT_EQ(h.handler.queued_parcels(), 33u);

    h.handler.flush();
    h.settle();
    EXPECT_EQ(h.handler.queued_parcels(), 0u);
    EXPECT_EQ(h.wire_messages(), 1u);
    EXPECT_EQ(g_cmh_hits.load(), 33);
}

TEST(CoalescingHandler, FlushOnEmptyQueueIsNoop)
{
    handler_harness h(params(10, 1000));
    h.handler.flush();
    EXPECT_EQ(h.wire_messages(), 0u);
}

TEST(CoalescingHandler, LiveParameterChangeTakesEffect)
{
    handler_harness h(params(100, 1000000));
    for (int i = 0; i != 5; ++i)
        h.handler.enqueue(h.make_parcel());
    EXPECT_EQ(h.handler.queued_parcels(), 5u);

    // Shrink nparcels to 6: the next parcel completes a batch.
    h.handler.set_params(params(6, 1000000));
    h.handler.enqueue(h.make_parcel());
    h.settle();
    EXPECT_EQ(h.wire_messages(), 1u);
    EXPECT_EQ(h.counters->average_parcels_per_message(), 6.0);
}

TEST(CoalescingHandler, NoDoubleFlushWhenTimerRacesQueueFull)
{
    // Tight deadline and tight batches: every batch is a race between the
    // worker's deadline flush and the enqueue path.  Conservation must
    // hold.
    handler_harness h(params(2, 200));    // 200 µs deadline, batches of 2

    constexpr int n = 2000;
    for (int i = 0; i != n; ++i)
        h.handler.enqueue(h.make_parcel());
    h.handler.flush();
    h.settle();

    EXPECT_EQ(g_cmh_hits.load(), n);
    EXPECT_EQ(h.counters->parcels(), static_cast<std::uint64_t>(n));
    // Parcels inside messages must also sum to n (no loss, no dup).
    EXPECT_EQ(h.counters->parcels_in_messages(), static_cast<std::uint64_t>(n));
}

TEST(CoalescingHandler, ConcurrentEnqueuersConserveParcels)
{
    handler_harness h(params(8, 500));
    constexpr int threads = 3;
    constexpr int per_thread = 1500;

    std::vector<std::thread> senders;
    for (int t = 0; t != threads; ++t)
    {
        senders.emplace_back([&h] {
            for (int i = 0; i != per_thread; ++i)
                h.handler.enqueue(h.make_parcel());
        });
    }
    for (auto& s : senders)
        s.join();
    h.handler.flush();
    h.settle();

    EXPECT_EQ(g_cmh_hits.load(), threads * per_thread);
    EXPECT_EQ(h.counters->parcels_in_messages(),
        static_cast<std::uint64_t>(threads) * per_thread);
}

TEST(CoalescingHandler, ArrivalStatisticsPopulated)
{
    handler_harness h(params(4, 100000));
    for (int i = 0; i != 8; ++i)
    {
        h.handler.enqueue(h.make_parcel());
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    h.settle();
    EXPECT_EQ(h.counters->gap_count(), 7u);
    EXPECT_GT(h.counters->average_arrival_us(), 0.0);

    auto const histogram = h.counters->arrival_histogram();
    std::int64_t total = 0;
    for (std::size_t i = 3; i < histogram.size(); ++i)
        total += histogram[i];
    EXPECT_EQ(total, 7);
}

}    // namespace
