// Race-stress tests for the contention-free send path: the sharded
// coalescing handler (per-destination FIFO under concurrent producers
// with mixed size/deadline/bypass/forced flushes; the deadline flushes
// run on the parcelhandler's worker) and the striped arrival counters.
// Built into a race-labeled binary so the tsan preset runs exactly these
// under ThreadSanitizer.

#include <coal/core/coalescing_message_handler.hpp>

#include <coal/net/loopback.hpp>
#include <coal/parcel/action.hpp>
#include <coal/parcel/parcel.hpp>
#include <coal/parcel/parcelhandler.hpp>
#include <coal/threading/scheduler.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

namespace {

void sendrace_noop(std::uint64_t)
{
}

}    // namespace

COAL_PLAIN_ACTION(sendrace_noop, sendrace_noop_action);

namespace {

using coal::coalescing::coalescing_counters;
using coal::coalescing::coalescing_message_handler;
using coal::coalescing::coalescing_params;
using coal::coalescing::shared_params;
using coal::net::transport;
using coal::parcel::decode_message;
using coal::parcel::parcelhandler;
using coal::threading::scheduler;
using coal::threading::scheduler_config;

/// Wire-order observation point: decodes every frame the parcelhandler
/// emits and records the (producer, seq) payloads per destination in
/// transmission order.
struct recorded
{
    std::mutex m;
    std::map<std::uint32_t, std::vector<std::uint64_t>> order;
};

class recording_transport final : public transport
{
public:
    recording_transport(recorded& sink, std::uint32_t num_localities)
      : sink_(sink)
      , num_localities_(num_localities)
    {
    }

    [[nodiscard]] std::uint32_t num_localities() const noexcept override
    {
        return num_localities_;
    }

    void set_delivery_handler(std::uint32_t, delivery_handler) override
    {
    }

    void send(std::uint32_t, std::uint32_t dst,
        coal::serialization::wire_message&& buf) override
    {
        auto const parcels = decode_message(buf);
        std::lock_guard lock(sink_.m);
        for (auto const& p : parcels)
        {
            std::tuple<std::uint64_t> args;
            coal::serialization::input_archive ia(p.arguments);
            ia & args;
            sink_.order[dst].push_back(std::get<0>(args));
        }
    }

    [[nodiscard]] std::uint64_t in_flight() const noexcept override
    {
        return 0;
    }

    void drain() override
    {
    }

    [[nodiscard]] coal::net::transport_stats stats() const override
    {
        return {};
    }

    void shutdown() override
    {
    }

private:
    recorded& sink_;
    std::uint32_t num_localities_;
};

constexpr std::uint64_t pack(std::uint64_t producer, std::uint64_t seq)
{
    return (producer << 32) | seq;
}

/// Install a handler on `ph`, so the worker's progress() runs its
/// deadline flushes concurrently with the test's producers.
std::shared_ptr<coalescing_message_handler> install(parcelhandler& ph,
    std::shared_ptr<shared_params> params,
    std::shared_ptr<coalescing_counters> counters)
{
    auto handler = std::make_shared<coalescing_message_handler>(
        "sendrace_noop_action", ph, std::move(params), std::move(counters));
    ph.set_message_handler(sendrace_noop_action::id(), handler);
    return handler;
}

/// Uninstall and destroy the handler on this thread (its destructor
/// flushes the remainder): wait out a worker still inside flush_due(),
/// which holds a copy.
void uninstall(
    parcelhandler& ph, std::shared_ptr<coalescing_message_handler>& handler)
{
    ph.set_message_handler(sendrace_noop_action::id(), nullptr);
    while (handler.use_count() != 1)
        std::this_thread::yield();
    handler.reset();
}

// The property the hand-off under the shard lock must deliver: whatever
// mixture of size flushes, deadline flushes, sparse bypasses, and
// concurrent forced flushes sends the batches, each producer's parcels
// toward one destination appear on the wire in enqueue order.
TEST(SendPathRaces, PerDestinationFifoUnderConcurrentProducers)
{
    constexpr unsigned producers = 4;
    constexpr std::uint64_t per_producer = 3000;
    constexpr std::uint32_t destinations = 5;

    recorded sink;
    recording_transport transport(sink, 1 + destinations);
    scheduler_config cfg;
    cfg.num_workers = 1;
    scheduler sched(cfg);
    parcelhandler ph(0, transport, sched);

    // Small batches + short interval + sparse bypass on: all flush modes
    // fire during the run.
    auto params = std::make_shared<shared_params>(
        coalescing_params{8, 500, 1 << 20, true});
    auto counters = std::make_shared<coalescing_counters>();
    {
        auto handler = install(ph, params, counters);

        std::atomic<bool> stop_flusher{false};
        std::thread flusher([&] {
            while (!stop_flusher.load(std::memory_order_acquire))
            {
                handler->flush();
                std::this_thread::sleep_for(std::chrono::microseconds(300));
            }
        });

        std::vector<std::thread> threads;
        for (unsigned t = 0; t != producers; ++t)
        {
            threads.emplace_back([&, t] {
                for (std::uint64_t i = 0; i != per_producer; ++i)
                {
                    coal::parcel::parcel p;
                    p.dest = 1 + static_cast<std::uint32_t>(
                                     (i + t) % destinations);
                    p.action = sendrace_noop_action::id();
                    p.arguments =
                        sendrace_noop_action::make_arguments(pack(t, i));
                    handler->enqueue(std::move(p));
                    // Periodic pauses open sparse-bypass and deadline-flush
                    // windows between bursts.
                    if ((i & 511) == 0)
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                }
            });
        }
        for (auto& th : threads)
            th.join();
        stop_flusher.store(true, std::memory_order_release);
        flusher.join();
        // Handler destructor flushes the remainder.
        uninstall(ph, handler);
    }

    for (int spin = 0; spin != 20000 && ph.pending_sends() != 0; ++spin)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    ASSERT_EQ(ph.pending_sends(), 0u);
    sched.stop();
    ph.stop();

    std::lock_guard lock(sink.m);
    std::size_t total = 0;
    for (auto const& [dst, values] : sink.order)
    {
        total += values.size();
        // Per-producer order within this destination's wire stream.
        std::map<std::uint64_t, std::uint64_t> last_seq;
        for (auto const v : values)
        {
            std::uint64_t const producer = v >> 32;
            std::uint64_t const seq = v & 0xffffffffull;
            auto const it = last_seq.find(producer);
            if (it != last_seq.end())
            {
                EXPECT_LT(it->second, seq)
                    << "wire reorder: producer " << producer << " at dst "
                    << dst;
            }
            last_seq[producer] = seq;
        }
    }
    // Conservation: nothing lost, nothing duplicated (duplicates would
    // break the strict ordering above; the count pins losses).
    EXPECT_EQ(total, producers * per_producer);
    EXPECT_EQ(counters->parcels(), producers * per_producer);
    EXPECT_EQ(counters->parcels_in_messages(), producers * per_producer);
}

// A parcel sent past its queue (here: coalescing switched off while a
// parcel waits out a long deadline) goes after what is already queued for
// its destination, not ahead of it.
TEST(SendPathRaces, DisablingCoalescingKeepsQueuedParcelsFirst)
{
    recorded sink;
    recording_transport transport(sink, 2);
    scheduler_config cfg;
    cfg.num_workers = 1;
    scheduler sched(cfg);
    parcelhandler ph(0, transport, sched);

    auto params = std::make_shared<shared_params>(
        coalescing_params{64, 1000000, 1 << 20, false});
    auto counters = std::make_shared<coalescing_counters>();
    auto handler = install(ph, params, counters);
    auto send = [&](std::uint64_t seq) {
        coal::parcel::parcel p;
        p.dest = 1;
        p.action = sendrace_noop_action::id();
        p.arguments = sendrace_noop_action::make_arguments(pack(0, seq));
        handler->enqueue(std::move(p));
    };

    send(0);    // queued behind a 1 s deadline
    EXPECT_EQ(handler->queued_parcels(), 1u);
    auto off = handler->params();
    off.nparcels = 1;
    handler->set_params(off);
    send(1);    // coalescing off: sent at once
    handler->flush();

    for (int spin = 0; spin != 20000 && ph.pending_sends() != 0; ++spin)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    ASSERT_EQ(ph.pending_sends(), 0u);
    EXPECT_EQ(handler->queued_parcels(), 0u);
    uninstall(ph, handler);
    sched.stop();
    ph.stop();

    std::lock_guard lock(sink.m);
    EXPECT_EQ(sink.order[1], (std::vector<std::uint64_t>{0, 1}));
}

// Hammer all shards plus queued_parcels() observers; conservation must
// hold and the gauge must settle to zero.
TEST(SendPathRaces, ShardedHandlerGaugeSettlesUnderStress)
{
    constexpr unsigned producers = 4;
    constexpr std::uint64_t per_producer = 4000;

    recorded sink;
    recording_transport transport(sink, 1 + 32);
    scheduler_config cfg;
    cfg.num_workers = 1;
    scheduler sched(cfg);
    parcelhandler ph(0, transport, sched);

    auto params = std::make_shared<shared_params>(
        coalescing_params{16, 1000, 1 << 20, true});
    auto counters = std::make_shared<coalescing_counters>();
    auto handler = install(ph, params, counters);

    std::atomic<bool> stop_observer{false};
    std::thread observer([&] {
        // The gauge is an unlocked relaxed atomic; reading it while every
        // shard churns must be race-free and never underflow.
        while (!stop_observer.load(std::memory_order_acquire))
        {
            auto const depth = handler->queued_parcels();
            EXPECT_LT(depth, std::size_t(1) << 60) << "gauge underflow";
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    });

    std::vector<std::thread> threads;
    for (unsigned t = 0; t != producers; ++t)
    {
        threads.emplace_back([&, t] {
            for (std::uint64_t i = 0; i != per_producer; ++i)
            {
                coal::parcel::parcel p;
                // 32 destinations: every shard sees traffic, most shards
                // host two queues.
                p.dest = 1 + static_cast<std::uint32_t>((i * 7 + t) % 32);
                p.action = sendrace_noop_action::id();
                p.arguments =
                    sendrace_noop_action::make_arguments(pack(t, i));
                handler->enqueue(std::move(p));
            }
        });
    }
    for (auto& th : threads)
        th.join();
    stop_observer.store(true, std::memory_order_release);
    observer.join();

    handler->flush();
    for (int spin = 0; spin != 20000 && ph.pending_sends() != 0; ++spin)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    ASSERT_EQ(ph.pending_sends(), 0u);
    EXPECT_EQ(handler->queued_parcels(), 0u);
    uninstall(ph, handler);
    EXPECT_EQ(counters->parcels(), producers * per_producer);
    EXPECT_EQ(counters->parcels_in_messages(), producers * per_producer);
    sched.stop();
    ph.stop();
}

// Striped counters: every gap lands in exactly one stripe, so the
// aggregated views must conserve across any thread interleaving.
TEST(SendPathRaces, StripedCountersConserveAcrossThreads)
{
    constexpr unsigned threads = 8;
    constexpr std::uint64_t per_thread = 20000;

    coalescing_counters counters;
    std::vector<std::thread> workers;
    std::vector<std::int64_t> sums(threads, 0);
    for (unsigned t = 0; t != threads; ++t)
    {
        workers.emplace_back([&, t] {
            std::int64_t local = 0;
            for (std::uint64_t i = 0; i != per_thread; ++i)
            {
                std::int64_t const gap = counters.record_parcel();
                if (gap >= 0)
                    local += gap;
                counters.record_message(1);
            }
            sums[t] = local;
        });
    }
    for (auto& w : workers)
        w.join();

    constexpr std::uint64_t total = threads * per_thread;
    EXPECT_EQ(counters.parcels(), total);
    EXPECT_EQ(counters.messages(), total);
    EXPECT_EQ(counters.gap_count(), total - 1);

    // The aggregated mean must equal the mean of the gaps the recording
    // threads were handed — stripes lose nothing.
    std::int64_t observed_sum = 0;
    for (auto const s : sums)
        observed_sum += s;
    double const expected_us =
        static_cast<double>(observed_sum) / 1000.0 / (total - 1);
    EXPECT_NEAR(counters.average_arrival_us(), expected_us,
        expected_us * 1e-9 + 1e-9);

    // Histogram: one entry per measured gap, aggregated across stripes.
    auto const hist = counters.arrival_histogram();
    std::int64_t hist_total = 0;
    for (std::size_t i = 3; i < hist.size(); ++i)
        hist_total += hist[i];
    EXPECT_EQ(hist_total, static_cast<std::int64_t>(total - 1));
}

}    // namespace
