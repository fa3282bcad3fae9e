// Credit-based flow control and overload protection: window deferral and
// release, credit advertisement under pool pressure, admission shedding,
// the credit-starvation cause of link health, and the link_down failure
// mode of a dark or starved link at its in-flight cap.

#include <coal/parcel/parcelhandler.hpp>

#include <coal/common/logging.hpp>
#include <coal/common/stopwatch.hpp>
#include <coal/net/faulty_transport.hpp>
#include <coal/net/loopback.hpp>
#include <coal/parcel/action.hpp>
#include <coal/serialization/buffer_pool.hpp>
#include <coal/threading/scheduler.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace {

std::atomic<int> g_flow_sum{0};

int flow_record(int x)
{
    g_flow_sum += x;
    return x;
}

std::mutex g_order_lock;
std::vector<std::uint64_t> g_order;

void flow_order_record(std::uint64_t ticket)
{
    std::lock_guard lock(g_order_lock);
    g_order.push_back(ticket);
}

}    // namespace

COAL_PLAIN_ACTION(flow_record, flow_record_action);
COAL_PLAIN_ACTION(flow_order_record, flow_order_record_action);

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
using coal::serialization::shared_buffer;
using coal::threading::scheduler;
using coal::threading::scheduler_config;

reliability_params fast_reliability()
{
    reliability_params rel;
    rel.enabled = true;
    rel.ack_delay_us = 100;
    rel.min_rto_us = 500;
    rel.max_rto_us = 20000;
    return rel;
}

/// Flow params small enough that a handful of frames exercises every
/// window/cap path.  Pool watermarks stay off (0) unless a test sets
/// them explicitly on the global pool.
flow_params tight_flow()
{
    flow_params flow;
    flow.enabled = true;
    flow.initial_window_bytes = 512;
    flow.window_bytes = 512;
    flow.min_window_bytes = 256;
    flow.link_soft_bytes = 1024;
    flow.link_inflight_cap_bytes = 64 * 1024;    // high: no accidental link_down
    flow.starvation_trip_us = 20000;    // 20 ms: fast but not flaky
    flow.pool_soft_bytes = 0;
    flow.pool_critical_bytes = 0;
    flow.pool_fallback_cap_bytes = 0;
    return flow;
}

/// Two-locality harness mirroring the reliability tests, with flow
/// control on and a delivery-error recorder installed on ph0.
struct flow_harness
{
    explicit flow_harness(fault_plan plan, flow_params flow = tight_flow(),
        reliability_params rel = fast_reliability())
      : inner(2)
      , faulty(inner, plan)
      , sched0(make_cfg())
      , sched1(make_cfg())
      , ph0(0, faulty, sched0, rel, flow)
      , ph1(1, faulty, sched1, rel, flow)
    {
        g_flow_sum = 0;
        ph0.set_delivery_error_handler(
            [this](delivery_error err, parcel&&) {
                if (err == delivery_error::shed_overload)
                    shed_seen.fetch_add(1);
                else
                    link_down_seen.fetch_add(1);
            });
    }

    ~flow_harness()
    {
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

    [[nodiscard]] bool handlers_quiet()
    {
        return ph0.pending_sends() == 0 && ph1.pending_sends() == 0 &&
            ph0.pending_receives() == 0 && ph1.pending_receives() == 0 &&
            ph0.pending_reliability() == 0 && ph1.pending_reliability() == 0 &&
            sched0.pending_tasks() == 0 && sched1.pending_tasks() == 0;
    }

    [[nodiscard]] bool quiet()
    {
        return handlers_quiet() && faulty.in_flight() == 0;
    }

    void settle()
    {
        coal::stopwatch deadline;
        while (deadline.elapsed_ms() < 15000.0)
        {
            if (quiet())
            {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                if (quiet())
                    return;
            }
            if (handlers_quiet() && faulty.in_flight() != 0)
                faulty.drain();
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        FAIL() << "flow harness did not settle";
    }

    loopback_transport inner;
    faulty_transport faulty;
    scheduler sched0, sched1;
    parcelhandler ph0, ph1;
    std::atomic<std::uint64_t> shed_seen{0};
    std::atomic<std::uint64_t> link_down_seen{0};
};

parcel make_request(std::uint32_t dst, int arg, std::uint64_t continuation = 0)
{
    parcel p;
    p.dest = dst;
    p.action = flow_record_action::id();
    p.continuation = continuation;
    p.arguments = flow_record_action::make_arguments(arg);
    return p;
}

/// RAII watermark override on the process-global pool — the pool outlives
/// every test, so leaking a watermark would shed other tests' traffic.
struct watermark_guard
{
    watermark_guard(
        std::uint64_t soft, std::uint64_t critical, std::uint64_t cap)
    {
        buffer_pool::global().set_watermarks(soft, critical, cap);
    }

    ~watermark_guard()
    {
        buffer_pool::global().set_watermarks(0, 0, 0);
    }
};

TEST(FlowControl, WindowExhaustionDefersAndReleasesWithoutLoss)
{
    // Healthy link, but a window (512 B) far below the burst volume:
    // sends must defer, credits must release them, and nothing is lost.
    flow_harness h(fault_plan{});

    constexpr int n = 120;
    for (int i = 0; i != n; ++i)
        h.ph0.put_parcel(make_request(1, 1));
    h.settle();

    EXPECT_EQ(g_flow_sum.load(), n);
    EXPECT_EQ(
        h.ph1.counters().parcels_executed.load(), static_cast<unsigned>(n));
    EXPECT_GT(h.ph0.counters().sends_deferred.load(), 0u);
    EXPECT_EQ(h.ph0.counters().sends_released.load(),
        h.ph0.counters().sends_deferred.load());
    // The receiver advertised its window on data/ack frames.
    EXPECT_GT(h.ph0.counters().credit_updates.load(), 0u);
    EXPECT_EQ(h.ph0.counters().parcels_shed.load(), 0u);
    EXPECT_EQ(h.shed_seen.load(), 0u);
}

TEST(FlowControl, DeferredSendsKeepTicketOrder)
{
    // 3000 batches sent in order from one thread through a 512 B window:
    // most batches defer, and released jobs re-enter the outbound queue
    // behind newer ones.  Each peer's deferred and released jobs must
    // still go out before any newer job to that peer, so the receiver
    // executes in send order.
    flow_params flow = tight_flow();
    flow.link_inflight_cap_bytes = 64 << 20;    // never link_down
    flow_harness h(fault_plan{}, flow);
    {
        std::lock_guard lock(g_order_lock);
        g_order.clear();
    }

    constexpr std::uint64_t n = 3000;
    for (std::uint64_t seq = 0; seq != n; ++seq)
    {
        parcel p;
        p.source = 0;
        p.dest = 1;
        p.action = flow_order_record_action::id();
        p.arguments = flow_order_record_action::make_arguments(seq);
        std::vector<parcel> batch;
        batch.push_back(std::move(p));
        h.ph0.send_message(1, std::move(batch));
    }
    h.settle();

    EXPECT_GT(h.ph0.counters().sends_deferred.load(), 0u);
    std::lock_guard lock(g_order_lock);
    ASSERT_EQ(g_order.size(), n);
    std::size_t inversions = 0;
    for (std::size_t i = 1; i != g_order.size(); ++i)
        if (g_order[i] < g_order[i - 1])
            ++inversions;
    EXPECT_EQ(inversions, 0u) << "parcels executed out of ticket order";
}

TEST(FlowControl, DeferredSendsAreVisibleInPendingSends)
{
    // A blacked-out link accumulates deferred jobs; quiescence must see
    // them (pending_sends) until the link heals and they drain.
    fault_plan plan;
    blackout_window w;
    w.src = 0;
    w.dst = 1;
    w.end_us = 200'000;    // forward link dark for the first 200 ms
    plan.blackouts.push_back(w);
    flow_harness h(plan);

    for (int i = 0; i != 40; ++i)
        h.ph0.put_parcel(make_request(1, 1));

    coal::stopwatch deadline;
    bool saw_deferred = false;
    while (deadline.elapsed_ms() < 150.0)
    {
        if (h.ph0.counters().sends_deferred.load() >
            h.ph0.counters().sends_released.load())
        {
            saw_deferred = true;
            EXPECT_GT(h.ph0.pending_sends(), 0u);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(saw_deferred);

    h.settle();
    EXPECT_EQ(g_flow_sum.load(), 40);
}

TEST(FlowControl, CriticalPoolPressureShedsBestEffortOnly)
{
    // Force the pool into critical by holding live slabs past a tiny
    // watermark, then offer best-effort and continuation-bearing parcels.
    flow_harness h(fault_plan{});

    watermark_guard marks(16 * 1024, 64 * 1024, 0);
    std::vector<shared_buffer> hog;
    while (buffer_pool::global().pressure() != pressure_state::critical)
        hog.emplace_back(16 * 1024);
    ASSERT_EQ(h.ph0.flow_pressure(1), pressure_state::critical);

    constexpr int n = 20;
    for (int i = 0; i != n; ++i)
        h.ph0.put_parcel(make_request(1, 1));
    // Continuation-bearing parcels are never shed (a promise waits).
    std::atomic<int> completed{0};
    for (int i = 0; i != 5; ++i)
    {
        auto const id = h.ph0.register_response_callback(
            [&completed](shared_buffer&&) { ++completed; });
        h.ph0.put_parcel(make_request(1, 1, id));
    }

    EXPECT_EQ(h.ph0.counters().parcels_shed.load(), static_cast<unsigned>(n));
    EXPECT_EQ(h.shed_seen.load(), static_cast<unsigned>(n));

    // Pressure subsides: admission reopens, traffic flows again.
    hog.clear();
    ASSERT_EQ(buffer_pool::global().pressure(), pressure_state::ok);
    for (int i = 0; i != n; ++i)
        h.ph0.put_parcel(make_request(1, 2));
    h.settle();
    // 5 admitted continuation parcels + 20 post-pressure parcels, and the
    // shed ones never arrived.
    EXPECT_EQ(g_flow_sum.load(), 5 * 1 + n * 2);
    EXPECT_EQ(completed.load(), 5);
    EXPECT_EQ(h.ph0.counters().parcels_shed.load(), static_cast<unsigned>(n));
}

TEST(FlowControl, StarvationTripsTheBreaker)
{
    // Blackout long enough that deferred jobs starve past the trip
    // threshold (20 ms) but short enough that the link heals and the
    // harness settles with full delivery of everything not failed.
    fault_plan plan;
    blackout_window w;
    w.src = 0;
    w.dst = 1;
    w.end_us = 150'000;
    plan.blackouts.push_back(w);
    flow_harness h(plan);

    for (int i = 0; i != 40; ++i)
        h.ph0.put_parcel(make_request(1, 1));

    coal::stopwatch deadline;
    while (h.ph0.counters().starvation_trips.load() == 0 &&
        deadline.elapsed_ms() < 1000.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    EXPECT_GT(h.ph0.counters().starvation_trips.load(), 0u);
    EXPECT_GT(h.ph0.counters().circuit_breaker_trips.load(), 0u);

    // Heal: deferred jobs release and everything still arrives.
    h.settle();
    EXPECT_EQ(g_flow_sum.load(), 40);
    EXPECT_EQ(h.ph0.counters().link_down_failures.load(), 0u);
}

// Offers `n` parcels into a blackout until sends fail as link_down, then
// checks exactly-once accounting: every offered parcel was delivered,
// failed as link_down, or shed at admission once the saturated link
// pushed flow_pressure to critical — and each error was surfaced.
void offer_into_capped_blackout(flow_harness& h, int n)
{
    for (int i = 0; i != n; ++i)
    {
        h.ph0.put_parcel(make_request(1, 1));
        if (i % 20 == 19)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    coal::stopwatch deadline;
    while (h.ph0.counters().link_down_failures.load() == 0 &&
        deadline.elapsed_ms() < 2000.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GT(h.ph0.counters().link_down_failures.load(), 0u);
    h.settle();

    std::uint64_t const failed = h.link_down_seen.load();
    std::uint64_t const shed = h.shed_seen.load();
    EXPECT_EQ(h.ph0.counters().link_down_failures.load(), failed);
    EXPECT_EQ(h.ph0.counters().parcels_shed.load(), shed);
    EXPECT_EQ(g_flow_sum.load(), n - static_cast<int>(failed + shed));
    EXPECT_EQ(h.ph1.counters().parcels_executed.load(),
        static_cast<std::uint64_t>(n) - failed - shed);
    EXPECT_FALSE(h.ph0.link_degraded(1));
}

fault_plan forward_blackout_300ms()
{
    fault_plan plan;
    blackout_window w;
    w.src = 0;
    w.dst = 1;
    w.end_us = 300'000;
    plan.blackouts.push_back(w);
    return plan;
}

TEST(FlowControl, CappedDarkLinkFailsSendsWithLinkDown)
{
    // Tiny in-flight cap + long blackout: once the link is dark or
    // starved and in-flight + deferred bytes hit the cap, further sends
    // fail as link_down instead of queueing forever.
    flow_params flow = tight_flow();
    flow.link_inflight_cap_bytes = 1024;
    flow_harness h(forward_blackout_300ms(), flow);
    offer_into_capped_blackout(h, 200);
}

// Down needs a dark or starved link at its in-flight cap.  The next two
// tests put one cause out of reach and check that the other alone takes
// the capped link down, with exactly that cause counted.
TEST(FlowControl, CappedDarkLinkGoesDownWithoutStarvation)
{
    // Sub-millisecond RTOs pass the dark-link attempt count within ~20 ms;
    // the starvation trip is a minute away.
    flow_params flow = tight_flow();
    flow.link_inflight_cap_bytes = 1024;
    flow.starvation_trip_us = 60'000'000;
    flow_harness h(forward_blackout_300ms(), flow);

    offer_into_capped_blackout(h, 200);
    EXPECT_GE(h.ph0.counters().circuit_breaker_trips.load(), 1u);
    EXPECT_EQ(h.ph0.counters().starvation_trips.load(), 0u);
}

TEST(FlowControl, StarvedCappedLinkGoesDownWithoutDarkLink)
{
    // 100 ms RTOs need ~900 ms to pass the dark-link attempt count, so
    // only the 20 ms starvation trip can degrade the link.
    flow_params flow = tight_flow();
    flow.link_inflight_cap_bytes = 1024;
    reliability_params rel = fast_reliability();
    rel.min_rto_us = 100'000;
    rel.max_rto_us = 200'000;
    flow_harness h(forward_blackout_300ms(), flow, rel);

    offer_into_capped_blackout(h, 200);
    EXPECT_GE(h.ph0.counters().starvation_trips.load(), 1u);
    // Every degradation was a starvation one.
    EXPECT_EQ(h.ph0.counters().circuit_breaker_trips.load(),
        h.ph0.counters().starvation_trips.load());
}

TEST(FlowControl, DownLinkLogsItsTransitionsNotEachFailedSend)
{
    // A down link fails every send offered to it.  It logs entering
    // down, not each failure: the link-down counter counts those.
    coal::set_log_level(coal::log_level::warn);
    flow_params flow = tight_flow();
    flow.link_inflight_cap_bytes = 1024;
    std::string log;
    std::uint64_t failed = 0;
    {
        flow_harness h(forward_blackout_300ms(), flow);
        testing::internal::CaptureStderr();
        offer_into_capped_blackout(h, 200);
        failed = h.link_down_seen.load();
        log = testing::internal::GetCapturedStderr();
    }

    std::size_t down_lines = 0;
    for (auto at = log.find("link 0->1 down"); at != std::string::npos;
         at = log.find("link 0->1 down", at + 1))
        ++down_lines;
    // The link flaps between degraded and down as failed deferred jobs
    // drop it below the cap: 4-6 entries per run against 70-114 failed
    // parcels (90 runs, four at a time).  One line per failed send job
    // reads about one per parcel here.
    EXPECT_GE(down_lines, 1u);
    EXPECT_LE(down_lines, 12u);
    EXPECT_LT(down_lines * 4, failed)
        << down_lines << " down lines for " << failed << " failed parcels";
}

TEST(FlowControl, DisabledFlowAddsNothing)
{
    // Reliability on, flow off: no credits, no deferrals, no pressure.
    flow_params off;
    off.enabled = false;
    flow_harness h(fault_plan{}, off);

    for (int i = 0; i != 50; ++i)
        h.ph0.put_parcel(make_request(1, 1));
    h.settle();

    EXPECT_EQ(g_flow_sum.load(), 50);
    EXPECT_EQ(h.ph0.counters().sends_deferred.load(), 0u);
    EXPECT_EQ(h.ph0.counters().credit_updates.load(), 0u);
    EXPECT_EQ(h.ph0.counters().parcels_shed.load(), 0u);
    EXPECT_EQ(h.ph0.flow_pressure(1), pressure_state::ok);
    EXPECT_EQ(h.ph0.current_pressure(), pressure_state::ok);
}

}    // namespace
