// Parameterized property sweeps over Algorithm 1: for ANY (nparcels,
// interval, burst size, destinations) combination, the handler must
// satisfy the conservation invariants —
//   * no parcel lost, none duplicated (after a final flush),
//   * per-destination FIFO order preserved,
//   * no message carries more than nparcels parcels (nor exceeds the
//     buffer cap by more than one parcel),
//   * counter algebra: parcels == Σ batch sizes over messages.

#include <coal/core/coalescing_message_handler.hpp>

#include <coal/net/loopback.hpp>
#include <coal/parcel/action.hpp>
#include <coal/parcel/parcel.hpp>
#include <coal/parcel/parcelhandler.hpp>
#include <coal/threading/scheduler.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

namespace {

// The observed stream: sequence numbers per destination, recorded by a
// recording transport below the parcelhandler.
struct recorded
{
    std::mutex m;
    std::map<std::uint32_t, std::vector<std::uint64_t>> order;
    std::vector<std::size_t> batch_sizes;
};

void alg1_noop(std::uint64_t)
{
}

}    // namespace

COAL_PLAIN_ACTION(alg1_noop, alg1_noop_action);

namespace {

using coal::coalescing::coalescing_counters;
using coal::coalescing::coalescing_message_handler;
using coal::coalescing::coalescing_params;
using coal::coalescing::shared_params;
using coal::net::loopback_transport;
using coal::net::transport;
using coal::parcel::decode_message;
using coal::parcel::parcelhandler;
using coal::serialization::byte_buffer;
using coal::serialization::from_bytes;
using coal::threading::scheduler;
using coal::threading::scheduler_config;

// Transport that records every frame instead of delivering it.
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
        sink_.batch_sizes.push_back(parcels.size());
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

struct sweep_params
{
    std::size_t nparcels;
    std::int64_t interval_us;
    std::size_t burst;
    std::uint32_t destinations;
};

class Algorithm1Property : public ::testing::TestWithParam<sweep_params>
{
};

TEST_P(Algorithm1Property, ConservationOrderingAndBatchBounds)
{
    auto const sp = GetParam();

    recorded sink;
    recording_transport transport(sink, 1 + sp.destinations);

    scheduler_config cfg;
    cfg.num_workers = 1;
    scheduler sched(cfg);
    parcelhandler ph(0, transport, sched);

    auto params = std::make_shared<shared_params>(coalescing_params{
        sp.nparcels, sp.interval_us, 1 << 20});
    auto counters = std::make_shared<coalescing_counters>();
    // Installed, so the worker's progress() runs its deadline flushes
    // while this thread is still enqueueing.
    auto handler = std::make_shared<coalescing_message_handler>(
        "alg1_noop_action", ph, params, counters);
    ph.set_message_handler(alg1_noop_action::id(), handler);

    for (std::uint64_t i = 0; i != sp.burst; ++i)
    {
        coal::parcel::parcel p;
        p.dest = 1 + static_cast<std::uint32_t>(i) % sp.destinations;
        p.action = alg1_noop_action::id();
        p.arguments = alg1_noop_action::make_arguments(i);
        handler->enqueue(std::move(p));
    }
    handler->flush();

    // Drain outbound send jobs through the scheduler's background work.
    for (int spin = 0; spin != 5000 && ph.pending_sends() != 0; ++spin)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    ASSERT_EQ(ph.pending_sends(), 0u);
    ph.set_message_handler(alg1_noop_action::id(), nullptr);
    sched.stop();
    ph.stop();

    std::lock_guard lock(sink.m);

    // Conservation: exactly burst parcels observed, exactly once.
    std::size_t total = 0;
    for (auto const& [dst, seq] : sink.order)
        total += seq.size();
    EXPECT_EQ(total, sp.burst);

    // FIFO per destination: sequence numbers strictly increasing.
    for (auto const& [dst, seq] : sink.order)
    {
        for (std::size_t i = 1; i < seq.size(); ++i)
            EXPECT_LT(seq[i - 1], seq[i])
                << "reorder at dst " << dst << " index " << i;
    }

    // Batch bound: no message exceeds nparcels (pass-through mode sends
    // singletons).
    std::size_t const bound =
        coalescing_params{sp.nparcels, sp.interval_us}.coalescing_enabled() ?
        sp.nparcels :
        1;
    for (auto const s : sink.batch_sizes)
    {
        EXPECT_LE(s, bound);
        EXPECT_GE(s, 1u);
    }

    // Counter algebra.
    EXPECT_EQ(counters->parcels(), sp.burst);
    EXPECT_EQ(counters->parcels_in_messages(), sp.burst);
    EXPECT_EQ(counters->messages(), sink.batch_sizes.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, Algorithm1Property,
    ::testing::Values(
        // nparcels, interval_us, burst, destinations
        sweep_params{1, 4000, 100, 1},        // disabled by nparcels
        sweep_params{4, 0, 100, 1},           // disabled by interval
        sweep_params{2, 100000, 101, 1},      // odd tail parcel
        sweep_params{4, 100000, 64, 1},       // exact batches
        sweep_params{4, 100000, 67, 1},       // partial tail
        sweep_params{16, 100000, 1000, 1},
        sweep_params{128, 100000, 1000, 1},   // large batches, big tail
        sweep_params{1000, 100000, 10, 1},    // nothing fills; flush only
        sweep_params{4, 100000, 500, 3},      // multiple destinations
        sweep_params{8, 100000, 777, 5},
        sweep_params{32, 50, 2000, 2},        // deadline races queue-full
        sweep_params{2, 50, 500, 4}),
    [](auto const& param_info) {
        auto const& p = param_info.param;
        return "n" + std::to_string(p.nparcels) + "_i" +
            std::to_string(p.interval_us) + "_b" + std::to_string(p.burst) +
            "_d" + std::to_string(p.destinations);
    });

}    // namespace
