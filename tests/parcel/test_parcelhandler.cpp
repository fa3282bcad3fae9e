// Parcelhandler integration at the module level: routing (local vs
// remote), background send/receive progress, the response table, message
// handler diversion, and counters.  Uses the loopback transport so tests
// are timing-independent.

#include <coal/parcel/parcelhandler.hpp>

#include <coal/net/loopback.hpp>
#include <coal/parcel/action.hpp>
#include <coal/threading/scheduler.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace {

std::atomic<int> g_ph_sum{0};

int ph_double(int x)
{
    g_ph_sum += x;
    return 2 * x;
}

}    // namespace

COAL_PLAIN_ACTION(ph_double, ph_double_action);

namespace {

using coal::net::loopback_transport;
using coal::parcel::message_handler;
using coal::parcel::parcel;
using coal::parcel::parcelhandler;
using coal::serialization::byte_buffer;
using coal::serialization::shared_buffer;
using coal::serialization::from_bytes;
using coal::threading::scheduler;
using coal::threading::scheduler_config;

// Two-locality harness over loopback.
struct harness
{
    harness()
      : transport(2)
      , sched0(make_cfg())
      , sched1(make_cfg())
      , ph0(0, transport, sched0)
      , ph1(1, transport, sched1)
    {
    }

    ~harness()
    {
        // Let schedulers drain before teardown.
        settle();
        ph0.stop();
        ph1.stop();
        sched0.stop();
        sched1.stop();
    }

    static scheduler_config make_cfg()
    {
        scheduler_config cfg;
        cfg.num_workers = 1;
        return cfg;
    }

    // Wait until both sides are quiet.
    void settle()
    {
        for (int i = 0; i != 2000; ++i)
        {
            if (ph0.pending_sends() == 0 && ph1.pending_sends() == 0 &&
                ph0.pending_receives() == 0 && ph1.pending_receives() == 0 &&
                sched0.pending_tasks() == 0 && sched1.pending_tasks() == 0)
            {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                if (ph0.pending_sends() == 0 && ph1.pending_sends() == 0 &&
                    ph0.pending_receives() == 0 &&
                    ph1.pending_receives() == 0 &&
                    sched0.pending_tasks() == 0 &&
                    sched1.pending_tasks() == 0)
                    return;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        FAIL() << "harness did not settle";
    }

    loopback_transport transport;
    scheduler sched0, sched1;
    parcelhandler ph0, ph1;
};

parcel make_request(std::uint32_t dst, int arg, std::uint64_t continuation)
{
    parcel p;
    p.dest = dst;
    p.action = ph_double_action::id();
    p.continuation = continuation;
    p.arguments = ph_double_action::make_arguments(arg);
    return p;
}

TEST(Parcelhandler, RemoteFireAndForgetExecutes)
{
    harness h;
    g_ph_sum = 0;
    h.ph0.put_parcel(make_request(1, 21, 0));
    h.settle();
    EXPECT_EQ(g_ph_sum.load(), 21);
    EXPECT_EQ(h.ph1.counters().parcels_executed.load(), 1u);
}

TEST(Parcelhandler, LocalParcelShortCircuits)
{
    harness h;
    g_ph_sum = 0;
    h.ph0.put_parcel(make_request(0, 5, 0));
    h.settle();
    EXPECT_EQ(g_ph_sum.load(), 5);
    // No wire traffic.
    EXPECT_EQ(h.transport.stats().messages_sent, 0u);
    EXPECT_EQ(h.ph0.counters().parcels_local.load(), 1u);
    EXPECT_EQ(h.ph0.counters().parcels_sent.load(), 0u);
}

TEST(Parcelhandler, ResponseCompletesRegisteredCallback)
{
    harness h;
    std::atomic<int> result{0};
    auto const id = h.ph0.register_response_callback(
        [&result](shared_buffer&& payload) {
            result = from_bytes<int>(payload);
        });
    EXPECT_EQ(h.ph0.pending_responses(), 1u);

    h.ph0.put_parcel(make_request(1, 50, id));
    h.settle();
    EXPECT_EQ(result.load(), 100);
    EXPECT_EQ(h.ph0.pending_responses(), 0u);
}

TEST(Parcelhandler, UnknownContinuationIsDroppedSafely)
{
    harness h;
    // Response arrives for a continuation id never registered.
    h.ph0.put_parcel(make_request(1, 1, 424242));
    h.settle();
    SUCCEED();
}

TEST(Parcelhandler, ManyRoundTripsConserveCounts)
{
    harness h;
    constexpr int n = 500;
    std::atomic<int> completed{0};
    g_ph_sum = 0;

    for (int i = 0; i != n; ++i)
    {
        auto const id = h.ph0.register_response_callback(
            [&completed](shared_buffer&&) { ++completed; });
        h.ph0.put_parcel(make_request(1, 1, id));
    }
    h.settle();

    EXPECT_EQ(completed.load(), n);
    EXPECT_EQ(g_ph_sum.load(), n);
    // n requests out of ph0, n responses out of ph1.
    EXPECT_EQ(h.ph0.counters().parcels_sent.load(), static_cast<unsigned>(n));
    EXPECT_EQ(h.ph1.counters().parcels_sent.load(), static_cast<unsigned>(n));
    EXPECT_EQ(
        h.ph1.counters().parcels_received.load(), static_cast<unsigned>(n));
    EXPECT_EQ(
        h.ph0.counters().parcels_received.load(), static_cast<unsigned>(n));
    EXPECT_EQ(h.transport.stats().messages_sent,
        static_cast<std::uint64_t>(2 * n));
}

// A message handler that batches everything until flush() — a miniature
// coalescer used to validate the diversion seam in isolation.
class batching_handler final : public message_handler
{
public:
    explicit batching_handler(parcelhandler& ph)
      : ph_(ph)
    {
    }

    void enqueue(parcel&& p) override
    {
        std::lock_guard lock(m_);
        queued_[p.dest].push_back(std::move(p));
    }

    void flush() override
    {
        std::unordered_map<std::uint32_t, std::vector<parcel>> batches;
        {
            std::lock_guard lock(m_);
            batches.swap(queued_);
        }
        for (auto& [dst, batch] : batches)
        {
            ++messages_;
            ph_.send_message(dst, std::move(batch));
        }
    }

    [[nodiscard]] std::size_t queued_parcels() const override
    {
        std::lock_guard lock(m_);
        std::size_t total = 0;
        for (auto const& [dst, q] : queued_)
            total += q.size();
        return total;
    }

    int messages_ = 0;

private:
    parcelhandler& ph_;
    mutable std::mutex m_;
    std::unordered_map<std::uint32_t, std::vector<parcel>> queued_;
};

TEST(Parcelhandler, MessageHandlerDivertsAndBatches)
{
    harness h;
    auto handler = std::make_shared<batching_handler>(h.ph0);
    h.ph0.set_message_handler(ph_double_action::id(), handler);

    // Keep ph0's only worker busy while parcels are held: an idle
    // locality flushes its handlers (parcelhandler::idle_flush), which
    // would send them before the assertions below can see them queued.
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    h.sched0.post([&] {
        started = true;
        while (!release)
            std::this_thread::yield();
    });
    while (!started)
        std::this_thread::yield();

    g_ph_sum = 0;
    for (int i = 0; i != 10; ++i)
        h.ph0.put_parcel(make_request(1, 1, 0));

    // Held back: no wire messages yet.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(handler->queued_parcels(), 10u);
    EXPECT_EQ(h.transport.stats().messages_sent, 0u);

    h.ph0.flush_message_handlers();
    release = true;
    h.settle();

    EXPECT_EQ(g_ph_sum.load(), 10);
    EXPECT_EQ(handler->messages_, 1);
    // 10 parcels arrived in ONE wire message.
    EXPECT_EQ(h.transport.stats().messages_sent, 1u);
    EXPECT_EQ(h.ph1.counters().parcels_received.load(), 10u);

    // Removing the handler restores pass-through.
    h.ph0.set_message_handler(ph_double_action::id(), nullptr);
    h.ph0.put_parcel(make_request(1, 1, 0));
    h.settle();
    EXPECT_EQ(h.transport.stats().messages_sent, 2u);
}

TEST(Parcelhandler, CountersTrackBytes)
{
    harness h;
    h.ph0.put_parcel(make_request(1, 7, 0));
    h.settle();
    auto const& c0 = h.ph0.counters();
    auto const& c1 = h.ph1.counters();
    EXPECT_GT(c0.bytes_sent.load(), 0u);
    EXPECT_EQ(c0.bytes_sent.load(), c1.bytes_received.load());
    EXPECT_EQ(c0.messages_sent.load(), 1u);
    EXPECT_EQ(c1.messages_received.load(), 1u);
}

TEST(Parcelhandler, StopClosesQueues)
{
    harness h;
    h.ph0.stop();
    h.ph0.put_parcel(make_request(1, 3, 0));    // accepted but inert
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(h.transport.stats().messages_sent, 0u);
    h.ph0.stop();    // idempotent
}

}    // namespace
