// Sharded peer store and idle eviction: due-ring scheduling semantics,
// tombstone demote/rehydrate round-trips, lock-free-on-read lookup under
// concurrent insertion, and the end-to-end invariants — exactly-once
// delivery across evict/rehydrate cycles (with retransmits in flight),
// evicted peers dropping out of the heartbeat/phi footprint, and
// crash/rejoin staying correct while the eviction sweeper runs.

#include <coal/parcel/peer_store.hpp>

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
#include <memory>
#include <thread>
#include <vector>

namespace {

std::atomic<long long> g_shard_sum{0};
std::atomic<std::uint64_t> g_shard_count{0};

int shard_record(int x)
{
    g_shard_sum += x;
    g_shard_count.fetch_add(1);
    return x;
}

}    // namespace

COAL_PLAIN_ACTION(shard_record, shard_record_action);

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
using coal::parcel::peer_status;
using coal::parcel::peer_store;
using coal::parcel::peer_store_params;
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
    auto e = std::make_shared<peer_entry>(7);

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
    EXPECT_EQ(e->ring_due.load(), never);
}

TEST(DueRing, CasMinKeepsEarliestAndPopsAreIdempotent)
{
    due_ring ring;
    auto e = std::make_shared<peer_entry>(1);

    std::int64_t const t0 = 100 * due_ring::tick_ns;
    ring.schedule(e, t0 + 8 * due_ring::tick_ns);
    // Strictly earlier: inserts a second item and lowers ring_due.
    ring.schedule(e, t0 + 2 * due_ring::tick_ns);
    // Later than the current registration: CAS-min rejects it, no item.
    ring.schedule(e, t0 + 20 * due_ring::tick_ns);
    EXPECT_EQ(ring.queued(), 2u);
    EXPECT_EQ(e->ring_due.load(), t0 + 2 * due_ring::tick_ns);

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
    auto e = std::make_shared<peer_entry>(3);

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
    auto e = std::make_shared<peer_entry>(9);

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
// peer_store unit tests
// ---------------------------------------------------------------------

TEST(PeerStore, FindMissesLockFreeAndHitsAfterInsert)
{
    peer_store store;
    EXPECT_EQ(store.find(42), nullptr);

    peer_entry& e = store.get_or_create(42);
    EXPECT_EQ(e.id, 42u);
    EXPECT_EQ(store.find(42), &e);
    EXPECT_EQ(&store.get_or_create(42), &e);
    EXPECT_EQ(store.find(43), nullptr);
    EXPECT_EQ(store.size(), 1u);
}

TEST(PeerStore, TombstoneRoundTripPreservesStreamState)
{
    peer_store store;
    peer_entry& e = store.get_or_create(5);

    {
        std::lock_guard lock(e.lock);
        peer_state& st = store.hydrate(e, /*self_epoch=*/1);
        EXPECT_EQ(st.next_seq, 1u);
        EXPECT_EQ(st.link_epoch, 1u);    // virgin entry binds self epoch
        st.next_seq = 42;
        st.cum_received = 17;
        st.stream_gen = 3;
        st.epoch = 9;
        st.link_epoch = 2;
        st.status = peer_status::alive;
    }
    EXPECT_EQ(store.active(), 1u);
    EXPECT_EQ(store.tombstoned(), 0u);

    {
        std::lock_guard lock(e.lock);
        ASSERT_TRUE(peer_store::evictable(*e.live));
        store.demote(e);
        EXPECT_EQ(e.live, nullptr);
        EXPECT_TRUE(e.tombstoned);
        EXPECT_EQ(e.tomb.next_seq, 42u);
        EXPECT_EQ(e.tomb.cum_received, 17u);
        EXPECT_EQ(e.tomb.stream_gen, 3u);
        EXPECT_EQ(e.tomb.epoch, 9u);
        EXPECT_EQ(e.tomb.link_epoch, 2u);
    }
    EXPECT_EQ(store.active(), 0u);
    EXPECT_EQ(store.tombstoned(), 1u);
    EXPECT_EQ(store.evictions(), 1u);

    {
        std::lock_guard lock(e.lock);
        // self_epoch moved on (5) but the stream stays bound to the
        // tombstoned link epoch — rehydration is NOT a fence.
        peer_state& st = store.hydrate(e, /*self_epoch=*/5);
        EXPECT_EQ(st.next_seq, 42u);
        EXPECT_EQ(st.cum_received, 17u);
        EXPECT_EQ(st.stream_gen, 3u);
        EXPECT_EQ(st.epoch, 9u);
        EXPECT_EQ(st.link_epoch, 2u);
        EXPECT_FALSE(e.tombstoned);
    }
    EXPECT_EQ(store.active(), 1u);
    EXPECT_EQ(store.tombstoned(), 0u);
    EXPECT_EQ(store.rehydrations(), 1u);
}

TEST(PeerStore, ResetDropsTombstoneMemory)
{
    peer_store store;
    peer_entry& e = store.get_or_create(8);
    {
        std::lock_guard lock(e.lock);
        peer_state& st = store.hydrate(e, 1);
        st.next_seq = 100;
        store.demote(e);
        store.reset(e);
        EXPECT_FALSE(e.tombstoned);
        EXPECT_EQ(e.live, nullptr);
        // A fresh hydration starts a virgin stream.
        peer_state& st2 = store.hydrate(e, 2);
        EXPECT_EQ(st2.next_seq, 1u);
        EXPECT_EQ(st2.link_epoch, 2u);
    }
}

TEST(PeerStore, EvictableRejectsAnyRetainedProtocolState)
{
    peer_state st;
    EXPECT_TRUE(peer_store::evictable(st));
    st.ack_pending = true;
    EXPECT_FALSE(peer_store::evictable(st));
    st.ack_pending = false;
    st.breaker_open = true;
    EXPECT_FALSE(peer_store::evictable(st));
    st.breaker_open = false;
    st.unacked_bytes = 1;
    EXPECT_FALSE(peer_store::evictable(st));
    st.unacked_bytes = 0;
    st.deferred.push_back({});
    EXPECT_FALSE(peer_store::evictable(st));
}

TEST(PeerStore, ConcurrentInsertAndLookupStress)
{
    peer_store store;
    constexpr std::uint32_t ids = 4096;
    constexpr int threads = 8;

    std::atomic<bool> fail{false};
    std::vector<std::thread> workers;
    workers.reserve(threads + 1);
    for (int t = 0; t != threads; ++t)
    {
        workers.emplace_back([&store, &fail, t] {
            // Each thread inserts an interleaved stripe and reads back
            // everything inserted so far — misses must only happen for
            // ids no thread has created yet, never false negatives for
            // its own stripe.
            for (std::uint32_t i = static_cast<std::uint32_t>(t); i < ids;
                i += threads)
            {
                peer_entry& e = store.get_or_create(i);
                if (e.id != i)
                    fail = true;
                peer_entry* back = store.find(i);
                if (back == nullptr || back->id != i)
                    fail = true;
            }
        });
    }
    // One thread concurrently republishes snapshots and walks shards,
    // exactly like the eviction clock hand.
    workers.emplace_back([&store] {
        std::vector<std::shared_ptr<peer_entry>> scratch;
        for (int round = 0; round != 50; ++round)
        {
            for (std::size_t s = 0; s != peer_store::shard_count; ++s)
            {
                store.refresh_snapshot(s);
                scratch.clear();
                store.collect_shard(s, scratch);
            }
        }
    });
    for (auto& w : workers)
        w.join();

    EXPECT_FALSE(fail.load());
    EXPECT_EQ(store.size(), ids);
    for (std::uint32_t i = 0; i != ids; ++i)
        ASSERT_NE(store.find(i), nullptr) << "id " << i;
    EXPECT_GE(store.shard_max_occupancy(),
        ids / peer_store::shard_count);
}

// ---------------------------------------------------------------------
// Integration: eviction under live parcelhandlers
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

// Aggressive idle eviction so demote/rehydrate cycles happen within a
// test's sleep windows.
peer_store_params fast_store()
{
    peer_store_params s;
    s.evict_idle_us = 25000;
    s.evict_scan_budget = 64;
    s.evict_scan_interval_us = 200;
    return s;
}

struct sharding_harness
{
    explicit sharding_harness(peer_store_params store = fast_store(),
        membership_params mem = fast_membership())
      : inner(2)
      , faulty(inner, fault_plan{})
      , sched0(make_cfg())
      , sched1(make_cfg())
      , ph0(0, faulty, sched0, fast_reliability(), {}, mem, store)
      , ph1(1, faulty, sched1, fast_reliability(), {}, mem, store)
    {
        g_shard_sum = 0;
        g_shard_count = 0;
        ph0.set_delivery_error_handler([this](delivery_error, parcel&&) {
            failed0.fetch_add(1);
        });
    }

    ~sharding_harness()
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
        p.action = shard_record_action::id();
        p.arguments = shard_record_action::make_arguments(arg);
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

TEST(PeerSharding, ExactlyOnceAcrossEvictRehydrateCycles)
{
    sharding_harness h;

    long long expected = 0;
    int value = 1;
    // Several burst / idle cycles: each idle window is long enough for
    // both sides to demote the link; the next burst must rehydrate from
    // the tombstone and deliver every parcel exactly once (the sum is
    // exact — a replayed or suppressed parcel shifts it).
    for (int cycle = 0; cycle != 3; ++cycle)
    {
        for (int i = 0; i != 10; ++i)
        {
            h.put(h.ph0, 1, value);
            expected += value;
            ++value;
        }
        h.wait_for([&] { return g_shard_sum.load() == expected; },
            "cycle delivery");

        h.wait_for(
            [&] {
                return h.ph0.debug_peer(1).evicted &&
                    h.ph0.peer_stats().active == 0;
            },
            "idle eviction at the sender");
    }

    EXPECT_EQ(g_shard_sum.load(), expected);
    EXPECT_EQ(g_shard_count.load(), 30u);
    EXPECT_EQ(h.failed0.load(), 0u);
    EXPECT_GE(h.ph0.peer_stats().evictions, 3u);
    EXPECT_GE(h.ph0.peer_stats().rehydrations, 2u);
    // Sender-side conservation: everything offered was confirmed.
    EXPECT_EQ(h.ph0.counters().parcels_confirmed.load(), 30u);
}

TEST(PeerSharding, EvictedPeersLeaveTheLivenessFootprint)
{
    sharding_harness h;

    h.put(h.ph0, 1, 1);
    h.wait_for([&] { return g_shard_sum.load() == 1; }, "delivery");
    EXPECT_EQ(h.ph0.health().known_peers, 1u);

    // Heartbeats are flowing, but they are not data: both sides demote
    // the link once it is data-idle.
    h.wait_for(
        [&] {
            return h.ph0.peer_stats().active == 0 &&
                h.ph1.peer_stats().active == 0;
        },
        "mutual idle eviction");
    EXPECT_EQ(h.ph0.peer_stats().evicted, 1u);
    EXPECT_EQ(h.ph1.peer_stats().evicted, 1u);

    // An evicted peer is out of the live footprint: no membership gauge,
    // no heartbeat emission, no phi scoring (liveness defaults to alive).
    EXPECT_EQ(h.ph0.health().known_peers, 0u);
    EXPECT_EQ(h.ph1.health().known_peers, 0u);
    auto const beats0 = h.ph0.counters().heartbeats_sent.load();
    auto const beats1 = h.ph1.counters().heartbeats_sent.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_EQ(h.ph0.counters().heartbeats_sent.load(), beats0);
    EXPECT_EQ(h.ph1.counters().heartbeats_sent.load(), beats1);
    EXPECT_EQ(h.ph0.peer_liveness(1), peer_status::alive);
    EXPECT_EQ(h.ph0.counters().peers_suspected.load(), 0u);

    // Renewed traffic wakes the link back up transparently.
    h.put(h.ph0, 1, 2);
    h.wait_for([&] { return g_shard_sum.load() == 3; }, "post-evict delivery");
    EXPECT_GE(h.ph0.peer_stats().rehydrations, 1u);
    EXPECT_EQ(h.ph0.health().known_peers, 1u);
}

TEST(PeerSharding, ConcurrentSendersRaceTheEvictionSweeper)
{
    sharding_harness h;

    // Four producer threads push bursts with idle gaps sized to the
    // eviction threshold, so demotes and rehydrations interleave with
    // live sends and in-flight retransmits.  Every parcel carries a
    // distinct value; exactly-once delivery means the sum is exact.
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
    h.wait_for([&] { return g_shard_count.load() == offered; },
        "all parcels delivered");
    EXPECT_EQ(g_shard_sum.load(), offered_sum.load());
    EXPECT_EQ(h.failed0.load(), 0u);
    h.wait_for(
        [&] { return h.ph0.counters().parcels_confirmed.load() == offered; },
        "all parcels confirmed");
}

TEST(PeerSharding, CrashRejoinStaysCorrectWhileSweeperRuns)
{
    sharding_harness h;

    h.put(h.ph0, 1, 1);
    h.wait_for([&] { return g_shard_sum.load() == 1; }, "initial delivery");

    // Let the sweeper demote the idle link on both sides first: the
    // crash/rejoin cycle below then exercises the tombstone gate (stale
    // epochs must be fenced by tombstones, not just by live state).
    h.wait_for(
        [&] {
            return h.ph0.peer_stats().active == 0 &&
                h.ph1.peer_stats().active == 0;
        },
        "pre-crash eviction");

    h.faulty.kill_locality(1);
    h.ph1.simulate_crash();
    h.ph1.restart_incarnation();
    h.faulty.restart_locality(1);
    EXPECT_EQ(h.ph1.epoch(), 2u);

    // The evicted sender discovers the restart on first contact: its
    // tombstone still remembers epoch 1, so the handshake parcel is
    // addressed to the fenced incarnation and may legitimately fail as
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
    auto const base_count = g_shard_count.load();
    auto const base_sum = g_shard_sum.load();

    // Concurrent senders into the freshly rejoined link while the
    // eviction sweeper stays active.
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
        [&] { return g_shard_count.load() == base_count + 100; },
        "post-rejoin delivery");
    EXPECT_EQ(g_shard_sum.load(), base_sum + offered_sum.load());
    EXPECT_EQ(h.failed0.load(), handshake_failures);
    EXPECT_EQ(h.ph0.debug_peer(1).epoch, 2u);

    // And the refreshed link still evicts cleanly afterwards.
    h.wait_for([&] { return h.ph0.peer_stats().active == 0; },
        "post-rejoin eviction");
}

TEST(PeerSharding, EvictionDisabledKeepsPeersResident)
{
    peer_store_params off;
    off.evict_idle_us = 0;
    sharding_harness h(off);

    h.put(h.ph0, 1, 5);
    h.wait_for([&] { return g_shard_sum.load() == 5; }, "delivery");
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    EXPECT_EQ(h.ph0.peer_stats().active, 1u);
    EXPECT_EQ(h.ph0.peer_stats().evictions, 0u);
    EXPECT_FALSE(h.ph0.debug_peer(1).evicted);
}

}    // namespace
