// The performance-counter framework wired to live subsystems: every
// registered counter type must resolve, count real traffic, aggregate
// across localities and honour reset-on-read.

#include <coal/runtime/runtime.hpp>

#include <coal/parcel/action.hpp>
#include <coal/perf/counter_path.hpp>
#include <coal/threading/future.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

int ci_echo(int x)
{
    return x;
}

}    // namespace

COAL_PLAIN_ACTION(ci_echo, ci_echo_action);

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

void round_trips(runtime& rt, int n)
{
    rt.run_on(0, [n](locality& here) {
        auto const other = here.find_remote_localities().front();
        std::vector<coal::threading::future<int>> futures;
        for (int i = 0; i != n; ++i)
            futures.push_back(here.async<ci_echo_action>(other, i));
        coal::threading::wait_all(futures);
    });
}

// The full catalogue, sorted by path: renaming a counter or editing its
// help string is a visible change and must show up here.
std::vector<std::pair<std::string, std::string>> const golden_catalogue{
    {"/coal/pool/count/fallback-cap-hits",
        "capped acquires refused because live fallback bytes were at the "
        "configured cap"},
    {"/coal/pool/count/flattens",
        "wire-boundary gather copies (scatter-gather frames flattened for a "
        "contiguous transport)"},
    {"/coal/pool/count/heap-fallbacks",
        "slab acquires above the top size class (plain heap, still "
        "refcounted)"},
    {"/coal/pool/count/hits", "slab acquires served from a pool free list"},
    {"/coal/pool/count/misses", "slab acquires that had to allocate"},
    {"/coal/pool/count/outstanding",
        "pooled slabs currently alive (gauge; free-listed slabs excluded)"},
    {"/coal/pool/data/copied",
        "payload bytes moved by memcpy anywhere in the pipeline (inlined small "
        "payloads, archive growth, gathers)"},
    {"/coal/pool/data/referenced",
        "payload bytes moved by bumping a slab refcount instead of copying"},
    {"/coal/pool/fallback-bytes",
        "live heap-fallback payload bytes (gauge; capped allocation path)"},
    {"/coal/pool/fallback-bytes-peak",
        "high-water mark of live heap-fallback payload bytes"},
    {"/coal/pool/resident-bytes",
        "payload bytes held by live slabs (gauge; watermark input)"},
    {"/coal/pool/resident-bytes-peak",
        "high-water mark of live slab payload bytes"},
    {"/coalescing/count/average-parcels-per-message",
        "average number of parcels per coalesced message of an action"},
    {"/coalescing/count/messages",
        "messages generated by the coalescing handler of an action"},
    {"/coalescing/count/parcels",
        "parcels routed through the coalescing handler of an action"},
    {"/coalescing/time/average-parcel-arrival",
        "average time between parcel arrivals for an action, µs"},
    {"/coalescing/time/parcel-arrival-histogram",
        "histogram of gaps between parcel arrivals for an action (min, max, "
        "bucket-width, counts...), µs"},
    {"/data/count/received", "bytes received (message frames)"},
    {"/data/count/sent", "bytes transmitted (message frames)"},
    {"/messages/count/received", "wire messages received"},
    {"/messages/count/sent", "wire messages transmitted"},
    {"/net/count/acks", "standalone ack frames emitted"},
    {"/net/count/circuit-breaker-trips",
        "links degraded by a dark link or credit starvation (coalescing "
        "bypassed)"},
    {"/net/count/delivery-errors/link-down",
        "parcels failed because the link was down (dark or credit-starved at "
        "its in-flight byte cap)"},
    {"/net/count/delivery-errors/peer-failed",
        "parcels failed because the destination locality died (delivery not "
        "confirmed)"},
    {"/net/count/delivery-errors/shed-overload",
        "parcels refused by admission control under critical pressure"},
    {"/net/count/drops",
        "messages lost by the transport (shutdown races, missing handlers, "
        "injected faults)"},
    {"/net/count/drops-injected", "messages dropped by the fault plan"},
    {"/net/count/duplicate-overhead-avoided",
        "duplicate frames recognized from the frame prefix before the "
        "per-message receive overhead was paid"},
    {"/net/count/duplicates-injected",
        "duplicate messages forged by the fault plan"},
    {"/net/count/duplicates-suppressed",
        "received frames discarded as duplicates by the reliability layer"},
    {"/net/count/fast-retransmits",
        "frames retransmitted early because later frames were selectively "
        "acked"},
    {"/net/count/retransmits", "frames retransmitted by the reliability layer"},
    {"/net/flow/count/credit-updates",
        "credit window grants applied from peer advertisements"},
    {"/net/flow/count/deferrals",
        "send jobs deferred on an exhausted credit window"},
    {"/net/flow/count/link-down",
        "parcels failed with link_down (link down: dark or credit-starved at "
        "its in-flight cap)"},
    {"/net/flow/count/pressure-transitions",
        "process-level pressure state changes (ok/soft/critical)"},
    {"/net/flow/count/releases",
        "deferred send jobs re-queued after the window opened"},
    {"/net/flow/count/shed",
        "best-effort parcels shed by admission control under critical "
        "pressure"},
    {"/net/flow/count/starvation-trips",
        "links degraded by credit starvation (the slow-peer detector)"},
    {"/net/flow/pressure",
        "current pressure state toward the worst peer (gauge: 0=ok, 1=soft, "
        "2=critical)"},
    {"/net/health/count/confirmed-parcels",
        "parcels whose frame the peer acknowledged (sender-side confirmed "
        "delivery)"},
    {"/net/health/count/deaths",
        "peers declared dead by the phi-accrual failure detector"},
    {"/net/health/count/heartbeats",
        "standalone liveness frames emitted on idle links (and dead-peer "
        "rejoin probes)"},
    {"/net/health/count/refutes",
        "false-positive deaths healed by epoch refutation (this locality "
        "adopted the higher epoch an accuser's dead-peer probe demanded)"},
    {"/net/health/count/rejoins",
        "peers readmitted under a fresh incarnation epoch"},
    {"/net/health/count/stale-epoch-frames",
        "frames discarded because they belonged to a fenced incarnation (wrong "
        "src or dst epoch)"},
    {"/net/health/count/suspected",
        "suspicion escalations (phi crossed suspect_phi)"},
    {"/net/health/dead-peers",
        "peers currently declared dead (gauge; rejoin clears)"},
    {"/net/health/known-peers",
        "peers with membership state at this locality (gauge)"},
    {"/net/health/suspected-peers", "peers currently under suspicion (gauge)"},
    {"/net/time/average-ack-latency",
        "mean time from first transmission to acknowledgement, µs"},
    {"/net/wire/count/accept-failures",
        "accept() failures on listening sockets"},
    {"/net/wire/count/accepts", "inbound connections accepted"},
    {"/net/wire/count/backlog-drops",
        "frames shed at the per-connection outbound backlog cap"},
    {"/net/wire/count/bytes-received",
        "bytes read from sockets, frame headers included"},
    {"/net/wire/count/bytes-sent",
        "bytes written to sockets, frame headers included"},
    {"/net/wire/count/connect-failures",
        "outbound connect attempts that failed (retried with backoff)"},
    {"/net/wire/count/connects",
        "successful outbound connects (incl. reconnects)"},
    {"/net/wire/count/crc-drops",
        "frames discarded for a payload CRC mismatch (never executed; "
        "recovered by retransmission)"},
    {"/net/wire/count/desync-drops",
        "fatal stream decode errors (bad magic/version/header CRC) that cut "
        "the connection"},
    {"/net/wire/count/frames-received",
        "complete frames received and CRC-verified"},
    {"/net/wire/count/frames-sent",
        "complete frames (data + control) written to sockets"},
    {"/net/wire/count/handshake-failures",
        "HELLO exchanges rejected (geometry or action-registry digest "
        "mismatch)"},
    {"/net/wire/count/oversized-drops",
        "frames rejected for a length prefix above the frame cap"},
    {"/net/wire/count/partial-read-resumptions",
        "frame reads resumed after a partial frame arrived"},
    {"/net/wire/count/partial-write-resumptions",
        "frame writes resumed after a short write (socket buffer full)"},
    {"/net/wire/count/reconnects",
        "established connections lost and scheduled for reconnect"},
    {"/net/wire/count/truncated-drops",
        "partial frames discarded at connection end"},
    {"/parcels/count/received", "parcels decoded from incoming messages"},
    {"/parcels/count/routed-local",
        "parcels short-circuited to the local scheduler"},
    {"/parcels/count/sent",
        "parcels handed to the parcel layer for remote delivery"},
    {"/threads/background-overhead",
        "network overhead n_oh = Σt_bg / Σt_func (Eq. 4), ratio"},
    {"/threads/background-work",
        "cumulative background-work duration (Eq. 3), ns"},
    {"/threads/count/cumulative", "number of executed tasks (HPX threads)"},
    {"/threads/receive-pipeline/chunk-occupancy",
        "average parcels carried per chunk task"},
    {"/threads/receive-pipeline/count/chunks",
        "chunk tasks bulk-spawned by the receive pipeline"},
    {"/threads/receive-pipeline/count/drains",
        "progress_receive calls that drained at least one frame"},
    {"/threads/receive-pipeline/count/frames",
        "inbox frames consumed by budgeted receive drains"},
    {"/threads/receive-pipeline/frames-per-drain",
        "average inbox frames consumed per draining progress_receive call"},
    {"/threads/receive-pipeline/time/offloaded-decode",
        "argument-decode time moved off the background critical path onto "
        "executing workers, ns"},
    {"/threads/time/average-overhead",
        "average per-task management overhead (Eq. 2), ns/task"},
    {"/threads/time/exec", "cumulative useful execution time Σt_exec, ns"},
    {"/threads/time/func", "cumulative task duration Σt_func (Eq. 1), ns"},
    {"/threads/time/idle-polls",
        "time spent in background polls that found no work, ns (excluded from "
        "Eq. 3/4)"},
    {"/timers/count/fired", "coalescing queues flushed by their deadline"},
    {"/timers/time/average-lateness",
        "mean delay of a deadline flush past its deadline, µs"},
    {"/timers/time/max-lateness",
        "worst delay of a deadline flush past its deadline since start, µs"},
};

TEST(CountersIntegration, DiscoverMatchesGoldenCatalogue)
{
    runtime rt(loopback());
    auto const types = rt.counters().discover();
    ASSERT_EQ(types.size(), golden_catalogue.size());
    for (std::size_t i = 0; i != types.size(); ++i)
    {
        EXPECT_EQ(types[i].first, golden_catalogue[i].first);
        EXPECT_EQ(types[i].second, golden_catalogue[i].second)
            << types[i].first;
    }
    rt.stop();
}

// Each subsystem's counters are discoverable from a live runtime.
void expect_discovered(std::vector<std::string> const& paths)
{
    runtime rt(loopback());
    auto const types = rt.counters().discover();
    for (auto const& path : paths)
    {
        bool const found = std::any_of(types.begin(), types.end(),
            [&](auto const& t) { return t.first == path; });
        EXPECT_TRUE(found) << path;
    }
    rt.stop();
}

TEST(CountersIntegration, DiscoverListsAllBuiltinTypes)
{
    expect_discovered({
        // The paper's counters:
        "/coalescing/count/parcels",
        "/coalescing/count/messages",
        "/coalescing/count/average-parcels-per-message",
        "/coalescing/time/average-parcel-arrival",
        "/coalescing/time/parcel-arrival-histogram",
        "/threads/time/average-overhead",
        "/threads/background-work",
        "/threads/background-overhead",
        // Supporting counters:
        "/threads/count/cumulative",
        "/parcels/count/sent",
        "/messages/count/sent",
        "/data/count/sent",
        "/timers/count/fired",
        // Batched receive pipeline:
        "/threads/receive-pipeline/count/drains",
        "/threads/receive-pipeline/count/frames",
        "/threads/receive-pipeline/count/chunks",
        "/threads/receive-pipeline/frames-per-drain",
        "/threads/receive-pipeline/chunk-occupancy",
        "/threads/receive-pipeline/time/offloaded-decode",
        "/net/count/duplicate-overhead-avoided",
    });
}

TEST(CountersIntegration, PoolCountersListedInDiscovery)
{
    expect_discovered({
        "/coal/pool/count/hits",
        "/coal/pool/count/misses",
        "/coal/pool/count/heap-fallbacks",
        "/coal/pool/count/flattens",
        "/coal/pool/count/outstanding",
        "/coal/pool/data/copied",
        "/coal/pool/data/referenced",
    });
}

TEST(CountersIntegration, FlowCountersListedInDiscovery)
{
    expect_discovered({
        "/net/flow/count/shed",
        "/net/flow/count/deferrals",
        "/net/flow/count/releases",
        "/net/flow/count/credit-updates",
        "/net/flow/count/link-down",
        "/net/flow/count/pressure-transitions",
        "/net/flow/count/starvation-trips",
        "/net/flow/pressure",
        "/coal/pool/resident-bytes",
        "/coal/pool/resident-bytes-peak",
        "/coal/pool/fallback-bytes",
        "/coal/pool/fallback-bytes-peak",
        "/coal/pool/count/fallback-cap-hits",
    });
}

TEST(CountersIntegration, HealthCountersListedInDiscovery)
{
    expect_discovered({
        "/net/health/count/heartbeats",
        "/net/health/count/suspected",
        "/net/health/count/deaths",
        "/net/health/count/rejoins",
        "/net/health/count/stale-epoch-frames",
        "/net/health/count/refutes",
        "/net/health/count/confirmed-parcels",
        "/net/health/known-peers",
        "/net/health/suspected-peers",
        "/net/health/dead-peers",
        "/net/count/delivery-errors/shed-overload",
        "/net/count/delivery-errors/link-down",
        "/net/count/delivery-errors/peer-failed",
    });
}

// Full counter name of `type_path` with the given instance / parameters.
std::string instance_name(std::string const& type_path,
    std::string const& instance, std::string const& parameters = {})
{
    auto path = coal::perf::counter_path::parse(type_path);
    path->instance = instance;
    path->parameters = parameters;
    return path->str();
}

// Instance selection is uniform across the catalogue: every type resolves
// the aggregate and a hosted locality, and rejects a locality this
// process does not host — process-global sources (pool, timers,
// transport, wire) included.  The @action types additionally need an
// action with coalescing enabled.
TEST(CountersIntegration, EveryTypeSelectsInstancesUniformly)
{
    runtime rt(loopback());
    rt.enable_coalescing("ci_echo_action", {8, 2000});
    auto& c = rt.counters();
    for (auto const& [type, help] : c.discover())
    {
        bool const per_action = type.starts_with("/coalescing/");
        std::string const action = per_action ? "ci_echo_action" : "";
        EXPECT_TRUE(c.query(instance_name(type, "", action)).valid) << type;
        EXPECT_TRUE(c.query(instance_name(type, "locality#0", action)).valid)
            << type;
        EXPECT_TRUE(c.query(instance_name(type, "locality#1/total", action))
                        .valid)
            << type;
        EXPECT_FALSE(c.query(instance_name(type, "locality#9", action)).valid)
            << type;
        if (per_action)
        {
            EXPECT_FALSE(c.query(type).valid) << type;
            EXPECT_FALSE(c.query(type + "@never_enabled").valid) << type;
        }
    }
    rt.stop();
}

TEST(CountersIntegration, ReceivePipelineCountersTrackTraffic)
{
    runtime rt(loopback());
    round_trips(rt, 200);
    rt.quiesce();

    auto& c = rt.counters();
    // Every remote message goes through a drain; uncoalesced traffic is
    // one parcel per frame, so chunks == frames here.
    double const drains =
        c.query("/threads/receive-pipeline/count/drains").value;
    double const frames =
        c.query("/threads/receive-pipeline/count/frames").value;
    double const chunks =
        c.query("/threads/receive-pipeline/count/chunks").value;
    EXPECT_GT(drains, 0.0);
    EXPECT_DOUBLE_EQ(frames, 400.0);    // 200 requests + 200 responses
    EXPECT_DOUBLE_EQ(chunks, 400.0);    // 1 parcel per frame -> 1 chunk
    EXPECT_GE(frames, drains);
    EXPECT_DOUBLE_EQ(
        c.query("/threads/receive-pipeline/chunk-occupancy").value, 1.0);
    EXPECT_GE(c.query("/threads/receive-pipeline/frames-per-drain").value, 1.0);
    rt.stop();
}

TEST(CountersIntegration, ParcelsSentCountsTraffic)
{
    runtime rt(loopback());
    round_trips(rt, 100);
    rt.quiesce();

    // 100 requests from locality 0 + 100 responses from locality 1.
    EXPECT_DOUBLE_EQ(rt.counters().query("/parcels/count/sent").value, 200.0);
    EXPECT_DOUBLE_EQ(
        rt.counters().query("/parcels{locality#0}/count/sent").value, 100.0);
    EXPECT_DOUBLE_EQ(
        rt.counters().query("/parcels{locality#1}/count/sent").value, 100.0);
    EXPECT_DOUBLE_EQ(
        rt.counters().query("/parcels/count/received").value, 200.0);
    rt.stop();
}

TEST(CountersIntegration, MessageAndDataCountersConsistent)
{
    runtime rt(loopback());
    round_trips(rt, 50);
    rt.quiesce();

    auto& c = rt.counters();
    double const sent = c.query("/messages/count/sent").value;
    double const received = c.query("/messages/count/received").value;
    EXPECT_DOUBLE_EQ(sent, received);
    EXPECT_DOUBLE_EQ(sent, 100.0);    // uncoalesced: 1 parcel per message

    EXPECT_DOUBLE_EQ(c.query("/data/count/sent").value,
        c.query("/data/count/received").value);
    EXPECT_GT(c.query("/data/count/sent").value, 0.0);
    rt.stop();
}

TEST(CountersIntegration, ThreadCountersReflectTasks)
{
    runtime rt(loopback());
    round_trips(rt, 100);
    rt.quiesce();

    auto& c = rt.counters();
    EXPECT_GT(c.query("/threads/count/cumulative").value, 200.0);
    EXPECT_GT(c.query("/threads/time/func").value, 0.0);
    EXPECT_GE(c.query("/threads/time/func").value,
        c.query("/threads/time/exec").value);
    EXPECT_GE(c.query("/threads/time/average-overhead").value, 0.0);
    rt.stop();
}

TEST(CountersIntegration, UnknownLocalityInstanceInvalid)
{
    runtime rt(loopback());
    EXPECT_FALSE(
        rt.counters().query("/parcels{locality#9}/count/sent").valid);
    rt.stop();
}

TEST(CountersIntegration, CoalescingCountersNeedKnownAction)
{
    runtime rt(loopback());
    EXPECT_FALSE(rt.counters().query("/coalescing/count/parcels").valid);
    EXPECT_FALSE(
        rt.counters().query("/coalescing/count/parcels@never_enabled").valid);
    rt.stop();
}

TEST(CountersIntegration, CoalescingCountersCountPerAction)
{
    runtime rt(loopback());
    rt.enable_coalescing("ci_echo_action", {16, 2000});
    round_trips(rt, 160);
    rt.quiesce();

    auto& c = rt.counters();
    std::string const a = "@ci_echo_action";
    // Requests and responses both pass coalescing handlers: 320 parcels.
    EXPECT_DOUBLE_EQ(
        c.query("/coalescing/count/parcels" + a).value, 320.0);
    double const messages =
        c.query("/coalescing/count/messages" + a).value;
    EXPECT_GE(messages, 20.0);
    EXPECT_LE(messages, 60.0);    // ~320/16 plus partial flushes
    double const ppm =
        c.query("/coalescing/count/average-parcels-per-message" + a).value;
    EXPECT_GT(ppm, 4.0);
    EXPECT_LE(ppm, 16.0);
    EXPECT_GT(
        c.query("/coalescing/time/average-parcel-arrival" + a).value, 0.0);

    auto const histogram =
        c.query("/coalescing/time/parcel-arrival-histogram" + a);
    ASSERT_TRUE(histogram.valid);
    ASSERT_GT(histogram.values.size(), 3u);
    std::int64_t gaps = 0;
    for (std::size_t i = 3; i < histogram.values.size(); ++i)
        gaps += histogram.values[i];
    // 320 parcels counted per locality; gaps ≈ parcels - localities.
    EXPECT_GE(gaps, 300);
    rt.stop();
}

TEST(CountersIntegration, PerLocalityCoalescingInstanceSelectsOne)
{
    runtime rt(loopback());
    rt.enable_coalescing("ci_echo_action", {8, 2000});
    round_trips(rt, 80);
    rt.quiesce();

    auto& c = rt.counters();
    double const l0 = c.query(
                           "/coalescing{locality#0}/count/parcels@"
                           "ci_echo_action")
                          .value;
    double const l1 = c.query(
                           "/coalescing{locality#1}/count/parcels@"
                           "ci_echo_action")
                          .value;
    double const total =
        c.query("/coalescing/count/parcels@ci_echo_action").value;
    EXPECT_DOUBLE_EQ(l0 + l1, total);
    EXPECT_DOUBLE_EQ(l0, 80.0);    // requests at 0
    EXPECT_DOUBLE_EQ(l1, 80.0);    // responses at 1
    rt.stop();
}

TEST(CountersIntegration, ResetOnReadGivesPerPhaseValues)
{
    runtime rt(loopback());
    round_trips(rt, 30);
    rt.quiesce();

    auto& c = rt.counters();
    double const phase1 = c.query("/parcels/count/sent", true).value;
    EXPECT_DOUBLE_EQ(phase1, 60.0);
    EXPECT_DOUBLE_EQ(c.query("/parcels/count/sent").value, 0.0);

    round_trips(rt, 10);
    rt.quiesce();
    EXPECT_DOUBLE_EQ(c.query("/parcels/count/sent").value, 20.0);
    rt.stop();
}

TEST(CountersIntegration, BackgroundOverheadBetweenZeroAndOne)
{
    runtime_config cfg;    // sim network: real background costs
    cfg.num_localities = 2;
    cfg.apply_coalescing_defaults = false;
    runtime rt(cfg);
    round_trips(rt, 200);
    rt.quiesce();

    double const overhead =
        rt.counters().query("/threads/background-overhead").value;
    EXPECT_GT(overhead, 0.0);
    EXPECT_LT(overhead, 1.0);
    EXPECT_GT(rt.counters().query("/threads/background-work").value, 0.0);
    rt.stop();
}

TEST(CountersIntegration, PoolCountersObserveRealTraffic)
{
    runtime rt(loopback());
    auto& c = rt.counters();
    // Baseline first: the pool is process-global and other activity in
    // this process (runtime construction, earlier phases) already used it.
    double const hits0 = c.query("/coal/pool/count/hits").value;
    double const misses0 = c.query("/coal/pool/count/misses").value;
    double const referenced0 = c.query("/coal/pool/data/referenced").value;

    round_trips(rt, 200);
    rt.quiesce();

    // Every encode acquires a head slab and every decode borrows views,
    // so traffic must move the acquire counters...
    double const acquires = (c.query("/coal/pool/count/hits").value - hits0) +
        (c.query("/coal/pool/count/misses").value - misses0);
    EXPECT_GT(acquires, 0.0);
    // ...and receive-side argument views are refcount shares, not copies.
    EXPECT_GT(c.query("/coal/pool/data/referenced").value, referenced0);
    EXPECT_GE(c.query("/coal/pool/count/outstanding").value, 0.0);
    EXPECT_GE(c.query("/coal/pool/count/heap-fallbacks").value, 0.0);
    rt.stop();
}

// Flow control live: a small credit window makes real traffic defer and
// release, credits flow back on acks, and a low soft watermark makes the
// pressure gauge move (transitions are counted and traced).
TEST(CountersIntegration, FlowCountersObserveBackpressure)
{
    runtime_config cfg = loopback();
    cfg.flow.enabled = true;
    cfg.flow.initial_window_bytes = 256;
    cfg.flow.window_bytes = 512;
    cfg.flow.min_window_bytes = 256;
    cfg.flow.pool_soft_bytes = 1;    // any live slab counts as soft pressure
    cfg.flow.pool_critical_bytes = 64u << 20;    // never critical: no shedding
    runtime rt(cfg);

    round_trips(rt, 300);
    rt.quiesce();

    auto& c = rt.counters();
    double const deferrals = c.query("/net/flow/count/deferrals").value;
    EXPECT_GT(deferrals, 0.0);
    // Nothing failed, so every deferral was eventually released.
    EXPECT_DOUBLE_EQ(c.query("/net/flow/count/releases").value, deferrals);
    EXPECT_GT(c.query("/net/flow/count/credit-updates").value, 0.0);
    EXPECT_GT(c.query("/net/flow/count/pressure-transitions").value, 0.0);
    EXPECT_DOUBLE_EQ(c.query("/net/flow/count/shed").value, 0.0);
    EXPECT_DOUBLE_EQ(c.query("/net/flow/count/link-down").value, 0.0);

    auto const pressure = c.query("/net/flow/pressure");
    ASSERT_TRUE(pressure.valid);
    EXPECT_LT(pressure.value, 2.0);    // never critical in this test

    EXPECT_GE(c.query("/coal/pool/resident-bytes-peak").value,
        c.query("/coal/pool/resident-bytes").value);
    rt.stop();
}

// Membership live: a kill/rejoin cycle must move every /net/health
// counter and the delivery-error taxonomy the way the failure model
// promises.
TEST(CountersIntegration, HealthCountersObserveKillAndRejoin)
{
    runtime_config cfg = loopback();
    cfg.membership.enabled = true;
    cfg.membership.heartbeat_interval_us = 2000;
    cfg.membership.probe_interval_us = 10000;
    cfg.membership.min_dead_us = 50000;
    runtime rt(cfg);
    auto& c = rt.counters();

    // Deadline-bounded spin on a counter predicate (membership verdicts
    // need real time to accrue).
    auto wait_counter = [&](char const* path, auto pred, char const* what) {
        auto const deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (std::chrono::steady_clock::now() < deadline)
        {
            if (pred(c.query(path).value))
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        FAIL() << "timed out waiting for " << what << " on " << path;
    };

    round_trips(rt, 10);    // contact + acked (confirmed) parcels

    rt.kill_locality(1);
    constexpr double offered_at_dead = 10.0;
    for (int i = 0; i != static_cast<int>(offered_at_dead); ++i)
        rt.get_locality(0).apply<ci_echo_action>(coal::agas::locality_id{1}, i);

    wait_counter("/net/health/dead-peers",
        [](double v) { return v >= 1.0; }, "death verdict");
    wait_counter("/net/count/delivery-errors/peer-failed",
        [](double v) { return v >= offered_at_dead; }, "fenced parcels");
    EXPECT_GE(c.query("/net/health/count/suspected").value, 1.0);
    EXPECT_GE(c.query("/net/health/count/deaths").value, 1.0);

    rt.restart_locality(1);
    wait_counter("/net/health/count/rejoins",
        [](double v) { return v >= 1.0; }, "rejoin");
    wait_counter("/net/health/dead-peers",
        [](double v) { return v == 0.0; }, "dead gauge cleared");

    round_trips(rt, 5);    // the rejoined incarnation carries traffic
    rt.quiesce();

    EXPECT_GT(c.query("/net/health/count/heartbeats").value, 0.0);
    EXPECT_GT(c.query("/net/health/count/confirmed-parcels").value, 0.0);
    // The rejoin probes address the next incarnation, which is the epoch
    // the genuine restart came back under — no refutation is involved.
    EXPECT_DOUBLE_EQ(c.query("/net/health/count/refutes").value, 0.0);
    EXPECT_GE(c.query("/net/health/known-peers").value, 1.0);
    EXPECT_DOUBLE_EQ(c.query("/net/health/suspected-peers").value, 0.0);
    // Taxonomy: everything refused in this test was refused as
    // peer_failed — never shed, never link_down.
    EXPECT_DOUBLE_EQ(
        c.query("/net/count/delivery-errors/shed-overload").value, 0.0);
    EXPECT_DOUBLE_EQ(
        c.query("/net/count/delivery-errors/link-down").value, 0.0);
    rt.stop();
}

// The aggregate /threads counters sum the per-locality reads, so the
// aggregate idle-poll time covers every locality's (it once read 0).
TEST(CountersIntegration, AggregateIdlePollsSumLocalities)
{
    runtime rt(loopback());
    round_trips(rt, 10);
    rt.quiesce();

    auto& c = rt.counters();
    auto const deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    double l0 = 0.0;
    double l1 = 0.0;
    while ((l0 <= 0.0 || l1 <= 0.0) &&
        std::chrono::steady_clock::now() < deadline)
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        l0 = c.query("/threads{locality#0}/time/idle-polls").value;
        l1 = c.query("/threads{locality#1}/time/idle-polls").value;
    }
    ASSERT_GT(l0, 0.0);
    ASSERT_GT(l1, 0.0);
    // Read after the localities, and monotonic: at least their sum.
    EXPECT_GE(c.query("/threads/time/idle-polls").value, l0 + l1);
    rt.stop();
}

TEST(CountersIntegration, TimerCountersTrackFlushTimers)
{
    runtime rt(loopback());
    rt.enable_coalescing("ci_echo_action", {1000, 500});    // never fills
    // The requesting task outlives the 500 us deadline before it waits,
    // so locality 0's only worker meets the due queue in its first
    // progress() and flushes it as a deadline flush, at least 1500 us
    // late, before the wait could idle-flush it.
    rt.run_on(0, [](locality& here) {
        auto const other = here.find_remote_localities().front();
        std::vector<coal::threading::future<int>> futures;
        for (int i = 0; i != 20; ++i)
            futures.push_back(here.async<ci_echo_action>(other, i));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        coal::threading::wait_all(futures);
    });
    rt.quiesce();

    auto& c = rt.counters();
    EXPECT_GT(c.query("/timers{locality#0}/count/fired").value, 0.0);
    EXPECT_GE(c.query("/timers{locality#0}/time/average-lateness").value,
        1500.0);
    EXPECT_GE(c.query("/timers/time/max-lateness").value,
        c.query("/timers/time/average-lateness").value);
    // Every deadline resolved by quiesce: nothing left queued.
    EXPECT_EQ(rt.get_locality(0u).coalescing().queued_parcels(), 0u);
    rt.stop();
}

// The arrival statistics are striped across per-thread shards
// internally; the counter facade must still aggregate to exact totals:
// per locality, the histogram holds one entry per measured gap, i.e.
// parcels - 1 (the first parcel after reset has no gap).
TEST(CountersIntegration, ArrivalStatsAggregateExactlyAcrossStripes)
{
    runtime rt(loopback());
    rt.enable_coalescing("ci_echo_action", {16, 2000});
    round_trips(rt, 120);
    rt.quiesce();

    auto& c = rt.counters();
    for (int loc = 0; loc != 2; ++loc)
    {
        std::string const inst =
            "{locality#" + std::to_string(loc) + "}";
        double const parcels =
            c.query("/coalescing" + inst + "/count/parcels@ci_echo_action")
                .value;
        ASSERT_GT(parcels, 0.0);

        auto const histogram = c.query(
            "/coalescing" + inst +
            "/time/parcel-arrival-histogram@ci_echo_action");
        ASSERT_TRUE(histogram.valid);
        ASSERT_GT(histogram.values.size(), 3u);
        std::int64_t gaps = 0;
        for (std::size_t i = 3; i < histogram.values.size(); ++i)
            gaps += histogram.values[i];
        EXPECT_EQ(gaps, static_cast<std::int64_t>(parcels) - 1);

        EXPECT_GT(c.query("/coalescing" + inst +
                       "/time/average-parcel-arrival@ci_echo_action")
                      .value,
            0.0);
    }
    rt.stop();
}

}    // namespace
