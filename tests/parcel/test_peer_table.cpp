// Dense peer table and due ring: due-ring scheduling semantics, table
// indexing and first-contact creation under concurrency, and the
// end-to-end invariants — exactly-once delivery across idle gaps and
// concurrent senders, crash/rejoin, and the assert on a peer id beyond
// the locality count.

#include <coal/parcel/peer_table.hpp>

#include <coal/common/stopwatch.hpp>
#include <coal/net/faulty_transport.hpp>
#include <coal/net/loopback.hpp>
#include <coal/parcel/action.hpp>
#include <coal/parcel/parcelhandler.hpp>
#include <coal/threading/scheduler.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

namespace {

std::atomic<long long> g_table_sum{0};
std::atomic<std::uint64_t> g_table_count{0};

int table_record(int x)
{
    g_table_sum += x;
    g_table_count.fetch_add(1);
    return x;
}

}    // namespace

COAL_PLAIN_ACTION(table_record, table_record_action);

namespace {

using coal::net::fault_plan;
using coal::net::faulty_transport;
using coal::net::loopback_transport;
using coal::parcel::delivery_error;
using coal::parcel::due_ring;
using coal::parcel::membership_params;
using coal::parcel::parcel;
using coal::parcel::parcelhandler;
using coal::parcel::peer_entry;
using coal::parcel::peer_state;
using coal::parcel::peer_table;
using coal::parcel::reliability_params;
using coal::threading::scheduler;
using coal::threading::scheduler_config;

constexpr std::int64_t never = std::numeric_limits<std::int64_t>::max();

// ---------------------------------------------------------------------
// due_ring unit tests
// ---------------------------------------------------------------------

TEST(DueRing, SchedulesAndServicesAtDeadline)
{
    due_ring ring;
    peer_entry e(7);

    std::int64_t const t0 = 10 * due_ring::tick_ns;
    ring.schedule(e, t0 + 5 * due_ring::tick_ns);
    EXPECT_EQ(ring.queued(), 1u);

    int serviced = 0;
    auto service = [&](peer_entry& pe) {
        EXPECT_EQ(pe.id, 7u);
        ++serviced;
        return never;
    };

    // Not yet due: the item survives the drain.
    EXPECT_FALSE(ring.drain(t0 + 1, service));
    EXPECT_EQ(serviced, 0);
    EXPECT_EQ(ring.queued(), 1u);

    // Due: serviced exactly once, registration cleared.
    EXPECT_TRUE(ring.drain(t0 + 6 * due_ring::tick_ns, service));
    EXPECT_EQ(serviced, 1);
    EXPECT_EQ(ring.queued(), 0u);
    EXPECT_EQ(e.ring_due.load(), never);
}

TEST(DueRing, CasMinKeepsEarliestAndPopsAreIdempotent)
{
    due_ring ring;
    peer_entry e(1);

    std::int64_t const t0 = 100 * due_ring::tick_ns;
    ring.schedule(e, t0 + 8 * due_ring::tick_ns);
    // Strictly earlier: inserts a second item and lowers ring_due.
    ring.schedule(e, t0 + 2 * due_ring::tick_ns);
    // Later than the current registration: CAS-min rejects it, no item.
    ring.schedule(e, t0 + 20 * due_ring::tick_ns);
    EXPECT_EQ(ring.queued(), 2u);
    EXPECT_EQ(e.ring_due.load(), t0 + 2 * due_ring::tick_ns);

    int serviced = 0;
    auto service = [&](peer_entry&) {
        ++serviced;
        return never;
    };

    // First drain pops the early item; servicing the leftover later item
    // is a harmless duplicate (idempotence), never a missed deadline.
    EXPECT_TRUE(ring.drain(t0 + 3 * due_ring::tick_ns, service));
    EXPECT_EQ(serviced, 1);
    EXPECT_TRUE(ring.drain(t0 + 9 * due_ring::tick_ns, service));
    EXPECT_EQ(serviced, 2);
    EXPECT_EQ(ring.queued(), 0u);
}

TEST(DueRing, ServiceReturnValueReArms)
{
    due_ring ring;
    peer_entry e(3);

    std::int64_t const t0 = 50 * due_ring::tick_ns;
    ring.schedule(e, t0 + due_ring::tick_ns);

    int serviced = 0;
    auto periodic = [&](peer_entry&) -> std::int64_t {
        ++serviced;
        // Re-arm twice, then stop.
        if (serviced < 3)
            return t0 + (serviced + 1) * 2 * due_ring::tick_ns;
        return never;
    };

    EXPECT_TRUE(ring.drain(t0 + 2 * due_ring::tick_ns, periodic));
    EXPECT_EQ(serviced, 1);
    EXPECT_EQ(ring.queued(), 1u);
    EXPECT_TRUE(ring.drain(t0 + 5 * due_ring::tick_ns, periodic));
    EXPECT_EQ(serviced, 2);
    EXPECT_TRUE(ring.drain(t0 + 7 * due_ring::tick_ns, periodic));
    EXPECT_EQ(serviced, 3);
    EXPECT_EQ(ring.queued(), 0u);
    EXPECT_FALSE(ring.drain(t0 + 100 * due_ring::tick_ns, periodic));
    EXPECT_EQ(serviced, 3);
}

TEST(DueRing, FarFutureItemsSurviveManyRevolutions)
{
    due_ring ring;
    peer_entry e(9);

    // Beyond the ring horizon (bucket_count * tick): the item must keep
    // surviving bucket revisits until its absolute time arrives.
    std::int64_t const t0 = due_ring::tick_ns;
    std::int64_t const far =
        t0 + 3 * due_ring::bucket_count * due_ring::tick_ns;
    ring.schedule(e, far);

    int serviced = 0;
    auto service = [&](peer_entry&) {
        ++serviced;
        return never;
    };
    for (int rev = 1; rev <= 2; ++rev)
    {
        ring.drain(t0 +
                rev * static_cast<std::int64_t>(due_ring::bucket_count) *
                    due_ring::tick_ns,
            service);
        EXPECT_EQ(serviced, 0);
    }
    ring.drain(far + due_ring::tick_ns, service);
    EXPECT_EQ(serviced, 1);
}

// ---------------------------------------------------------------------
// peer_table unit tests
// ---------------------------------------------------------------------

TEST(PeerTable, IndexesEntriesByLocalityId)
{
    peer_table table(4);
    EXPECT_EQ(table.size(), 4u);
    for (std::uint32_t id = 0; id != 4; ++id)
    {
        EXPECT_EQ(table[id].id, id);
        EXPECT_EQ(table[id].live, nullptr);    // absent until first contact
    }
    EXPECT_EQ(table.active(), 0u);

    peer_entry& e = table[2];
    {
        std::lock_guard lock(e.lock);
        peer_state& st = table.create(e, /*self_epoch=*/3);
        EXPECT_EQ(st.next_seq, 1u);
        EXPECT_EQ(st.link_epoch, 3u);
        st.next_seq = 100;
    }
    EXPECT_EQ(table.active(), 1u);
    EXPECT_EQ(table[2].live->next_seq, 100u);

    {
        // A crash reset forgets the peer; the next contact starts a
        // fresh stream bound to the then-current self epoch.
        std::lock_guard lock(e.lock);
        table.reset(e);
        EXPECT_EQ(e.live, nullptr);
        EXPECT_EQ(table.active(), 0u);
        peer_state& st = table.create(e, 4);
        EXPECT_EQ(st.next_seq, 1u);
        EXPECT_EQ(st.link_epoch, 4u);
    }
    EXPECT_EQ(table.active(), 1u);
}

TEST(PeerTable, ConcurrentFirstContactCreatesOneStatePerPeer)
{
    constexpr std::uint32_t ids = 4096;
    constexpr int threads = 8;
    peer_table table(ids);

    // Every thread contacts every peer, each in its own order: exactly
    // one creates each state, and every thread's update lands on it.
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t != threads; ++t)
    {
        workers.emplace_back([&table, t] {
            auto const offset = static_cast<std::uint32_t>(t) * 512;
            for (std::uint32_t i = 0; i != ids; ++i)
            {
                peer_entry& e = table[(i * 7 + offset) % ids];
                std::lock_guard lock(e.lock);
                if (!e.live)
                    table.create(e, 1);
                ++e.live->cum_received;
            }
        });
    }
    for (auto& w : workers)
        w.join();

    EXPECT_EQ(table.active(), ids);
    for (std::uint32_t i = 0; i != ids; ++i)
    {
        ASSERT_NE(table[i].live, nullptr) << "id " << i;
        EXPECT_EQ(table[i].live->cum_received,
            static_cast<std::uint64_t>(threads))
            << "id " << i;
    }
}

// ---------------------------------------------------------------------
// Integration: the table under live parcelhandlers
// ---------------------------------------------------------------------

reliability_params fast_reliability()
{
    reliability_params rel;
    rel.enabled = true;
    rel.ack_delay_us = 100;
    rel.min_rto_us = 500;
    rel.max_rto_us = 20000;
    return rel;
}

membership_params fast_membership()
{
    membership_params m;
    m.enabled = true;
    m.heartbeat_interval_us = 2000;
    m.probe_interval_us = 10000;
    m.suspect_phi = 3.0;
    m.dead_phi = 8.0;
    m.min_dead_us = 50000;
    return m;
}

struct table_harness
{
    table_harness()
      : inner(2)
      , faulty(inner, fault_plan{})
      , sched0(make_cfg())
      , sched1(make_cfg())
      , ph0(0, faulty, sched0, fast_reliability(), {}, fast_membership())
      , ph1(1, faulty, sched1, fast_reliability(), {}, fast_membership())
    {
        g_table_sum = 0;
        g_table_count = 0;
        ph0.set_delivery_error_handler([this](delivery_error, parcel&&) {
            failed0.fetch_add(1);
        });
    }

    ~table_harness()
    {
        ph0.stop();
        ph1.stop();
        sched0.stop();
        sched1.stop();
    }

    static scheduler_config make_cfg()
    {
        scheduler_config cfg;
        cfg.num_workers = 2;
        return cfg;
    }

    void put(parcelhandler& ph, std::uint32_t dst, int arg)
    {
        parcel p;
        p.dest = dst;
        p.action = table_record_action::id();
        p.arguments = table_record_action::make_arguments(arg);
        ph.put_parcel(std::move(p));
    }

    template <typename Cond>
    void wait_for(Cond&& cond, char const* what, double deadline_ms = 20000.0)
    {
        coal::stopwatch deadline;
        while (deadline.elapsed_ms() < deadline_ms)
        {
            if (cond())
                return;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        FAIL() << "timed out waiting for: " << what;
    }

    loopback_transport inner;
    faulty_transport faulty;
    scheduler sched0, sched1;
    parcelhandler ph0, ph1;
    std::atomic<std::uint64_t> failed0{0};
};

TEST(PeerTable, ExactlyOnceAcrossIdleGaps)
{
    table_harness h;

    long long expected = 0;
    int value = 1;
    // Burst / idle cycles: heartbeats keep the idle link alive between
    // bursts, and every parcel is delivered exactly once (the sum is
    // exact — a replayed or suppressed parcel shifts it).
    for (int cycle = 0; cycle != 3; ++cycle)
    {
        for (int i = 0; i != 10; ++i)
        {
            h.put(h.ph0, 1, value);
            expected += value;
            ++value;
        }
        h.wait_for([&] { return g_table_sum.load() == expected; },
            "cycle delivery");
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    EXPECT_EQ(g_table_sum.load(), expected);
    EXPECT_EQ(g_table_count.load(), 30u);
    EXPECT_EQ(h.failed0.load(), 0u);
    // Sender-side conservation: everything offered was confirmed.
    h.wait_for(
        [&] { return h.ph0.counters().parcels_confirmed.load() == 30u; },
        "all parcels confirmed");
    // One stream carried all 30 frames, and state exists only for the
    // one peer contacted.
    EXPECT_EQ(h.ph0.debug_peer(1).next_seq, 31u);
    EXPECT_EQ(h.ph0.health().known_peers, 1u);
}

TEST(PeerTable, ConcurrentSendersDeliverExactlyOnce)
{
    table_harness h;

    // Four producer threads push bursts with idle gaps, so first sends,
    // heartbeats and acks interleave with live sends.  Every parcel
    // carries a distinct value; exactly-once delivery means the sum is
    // exact.
    constexpr int threads = 4;
    constexpr int bursts = 5;
    constexpr int per_burst = 40;
    std::atomic<long long> offered_sum{0};
    std::vector<std::thread> senders;
    senders.reserve(threads);
    for (int t = 0; t != threads; ++t)
    {
        senders.emplace_back([&h, &offered_sum, t] {
            int v = t * 100000;
            for (int b = 0; b != bursts; ++b)
            {
                for (int i = 0; i != per_burst; ++i)
                {
                    ++v;
                    h.put(h.ph0, 1, v);
                    offered_sum.fetch_add(v);
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(30 + 7 * t));
            }
        });
    }
    for (auto& s : senders)
        s.join();

    std::uint64_t const offered = threads * bursts * per_burst;
    h.wait_for([&] { return g_table_count.load() == offered; },
        "all parcels delivered");
    EXPECT_EQ(g_table_sum.load(), offered_sum.load());
    EXPECT_EQ(h.failed0.load(), 0u);
    h.wait_for(
        [&] { return h.ph0.counters().parcels_confirmed.load() == offered; },
        "all parcels confirmed");
}

TEST(PeerTable, CrashRejoinDeliversExactlyOnce)
{
    table_harness h;

    h.put(h.ph0, 1, 1);
    h.wait_for([&] { return g_table_sum.load() == 1; }, "initial delivery");

    h.faulty.kill_locality(1);
    h.ph1.simulate_crash();
    h.ph1.restart_incarnation();
    h.faulty.restart_locality(1);
    EXPECT_EQ(h.ph1.epoch(), 2u);

    // The sender's entry still remembers epoch 1 until a frame from the
    // restarted peer says otherwise, so the handshake parcel may be
    // addressed to the fenced incarnation and legitimately fail as
    // peer_failed when the rejoin fences (at-most-once, never silently
    // replayed).  Wait for the sender to adopt the new epoch and for the
    // handshake parcel to settle (confirmed or failed) either way.
    h.put(h.ph0, 1, 7);
    h.wait_for([&] { return h.ph0.debug_peer(1).epoch == 2; },
        "rejoin under the new epoch");
    h.wait_for(
        [&] {
            return h.ph0.counters().parcels_confirmed.load() +
                h.failed0.load() == 2;
        },
        "handshake parcel settles");
    auto const handshake_failures = h.failed0.load();
    EXPECT_LE(handshake_failures, 1u);
    auto const base_count = g_table_count.load();
    auto const base_sum = g_table_sum.load();

    // Concurrent senders into the freshly rejoined link.
    std::atomic<long long> offered_sum{0};
    std::vector<std::thread> senders;
    for (int t = 0; t != 2; ++t)
    {
        senders.emplace_back([&h, &offered_sum, t] {
            int v = (t + 1) * 1000;
            for (int i = 0; i != 50; ++i)
            {
                ++v;
                h.put(h.ph0, 1, v);
                offered_sum.fetch_add(v);
            }
        });
    }
    for (auto& s : senders)
        s.join();

    // The restarted incarnation executes everything offered after the
    // handshake exactly once.
    h.wait_for(
        [&] { return g_table_count.load() == base_count + 100; },
        "post-rejoin delivery");
    EXPECT_EQ(g_table_sum.load(), base_sum + offered_sum.load());
    EXPECT_EQ(h.failed0.load(), handshake_failures);
    EXPECT_EQ(h.ph0.debug_peer(1).epoch, 2u);
}

TEST(PeerTableDeathTest, PutParcelBeyondLocalityCountAsserts)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            loopback_transport net(2);
            scheduler_config cfg;
            cfg.num_workers = 1;
            scheduler sched(cfg);
            parcelhandler ph(0, net, sched, fast_reliability());
            parcel p;
            p.dest = 2;    // valid ids are 0 and 1
            p.action = table_record_action::id();
            p.arguments = table_record_action::make_arguments(1);
            ph.put_parcel(std::move(p));
            // The worker's send path looks the destination up in the
            // peer table.
            std::this_thread::sleep_for(std::chrono::seconds(10));
        },
        "peer id beyond locality count");
}

}    // namespace
