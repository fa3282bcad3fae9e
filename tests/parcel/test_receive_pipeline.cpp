// Batched receive pipeline: lazy decode primitives (peek / boundary scan /
// range decode), budgeted multi-frame drain, chunked bulk-spawned
// execution, and duplicate suppression ahead of the modeled per-message
// receive overhead.  The concurrency tests (senders racing the drain, the
// drain racing chunk execution) carry the "race" ctest label so the tsan
// preset runs this binary under ThreadSanitizer.

#include <coal/parcel/parcelhandler.hpp>

#include <coal/common/stopwatch.hpp>
#include <coal/net/faulty_transport.hpp>
#include <coal/net/loopback.hpp>
#include <coal/parcel/action.hpp>
#include <coal/parcel/parcel.hpp>
#include <coal/serialization/archive.hpp>
#include <coal/threading/scheduler.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

namespace {

std::atomic<std::uint64_t> g_rp_count{0};
std::atomic<long long> g_rp_sum{0};
std::mutex g_rp_order_lock;
std::vector<int> g_rp_order;

int rp_record(int x)
{
    g_rp_count.fetch_add(1, std::memory_order_relaxed);
    g_rp_sum.fetch_add(x, std::memory_order_relaxed);
    {
        std::lock_guard lock(g_rp_order_lock);
        g_rp_order.push_back(x);
    }
    return x;
}

}    // namespace

COAL_PLAIN_ACTION(rp_record, rp_record_action);

namespace {

using coal::net::fault_plan;
using coal::net::faulty_transport;
using coal::net::loopback_transport;
using coal::parcel::decode_message;
using coal::parcel::decode_parcel_range;
using coal::parcel::encode_message;
using coal::parcel::frame_header;
using coal::parcel::parcel;
using coal::parcel::parcelhandler;
using coal::parcel::peek_frame;
using coal::parcel::reliability_params;
using coal::parcel::scan_parcel_offsets;
using coal::serialization::serialization_error;
using coal::serialization::shared_buffer;
using coal::threading::scheduler;
using coal::threading::scheduler_config;

void reset_globals()
{
    g_rp_count = 0;
    g_rp_sum = 0;
    std::lock_guard lock(g_rp_order_lock);
    g_rp_order.clear();
}

parcel make_parcel(std::uint32_t dst, int arg)
{
    parcel p;
    p.dest = dst;
    p.action = rp_record_action::id();
    p.arguments = rp_record_action::make_arguments(arg);
    return p;
}

std::vector<parcel> make_batch(std::uint32_t dst, int first, int count)
{
    std::vector<parcel> batch;
    batch.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i != count; ++i)
        batch.push_back(make_parcel(dst, first + i));
    return batch;
}

// ---- lazy decode primitives ----------------------------------------------

TEST(ReceivePipeline, PeekFrameReadsPrefixOnly)
{
    frame_header hdr;
    hdr.seq = 7;
    hdr.ack = 5;
    hdr.sack = 0b101;
    auto const flat = encode_message(make_batch(1, 0, 3), hdr).flatten_copy();

    auto const info = peek_frame(flat);
    EXPECT_EQ(info.count, 3u);
    EXPECT_EQ(info.header.seq, 7u);
    EXPECT_EQ(info.header.ack, 5u);
    EXPECT_EQ(info.header.sack, 0b101u);
}

TEST(ReceivePipeline, PeekFrameRejectsBadMagic)
{
    auto const flat = encode_message(make_batch(1, 0, 1)).flatten_copy();
    std::vector<std::uint8_t> bytes(flat.data(), flat.data() + flat.size());
    bytes[0] ^= 0xff;
    EXPECT_THROW(
        (void) peek_frame(shared_buffer(bytes.data(), bytes.size())),
        serialization_error);
}

TEST(ReceivePipeline, PeekFrameRejectsShortBuffer)
{
    auto const flat = encode_message(make_batch(1, 0, 1)).flatten_copy();
    EXPECT_THROW((void) peek_frame(shared_buffer(flat.data(), 8)),
        serialization_error);
}

TEST(ReceivePipeline, ScanOffsetsMatchFullDecode)
{
    constexpr int count = 20;
    constexpr std::size_t step = 6;
    auto const flat = encode_message(make_batch(1, 100, count)).flatten_copy();

    auto const offsets = scan_parcel_offsets(flat, count, step);
    // ceil(20 / 6) = 4 chunk boundaries + the end sentinel.
    ASSERT_EQ(offsets.size(), 5u);
    EXPECT_EQ(offsets.back(), flat.size());

    auto const reference = decode_message(flat);
    ASSERT_EQ(reference.size(), static_cast<std::size_t>(count));

    std::size_t decoded = 0;
    for (std::size_t c = 0; c + 1 < offsets.size(); ++c)
    {
        std::size_t const in_chunk =
            std::min<std::size_t>(step, count - decoded);
        auto const chunk = decode_parcel_range(flat, offsets[c], in_chunk);
        ASSERT_EQ(chunk.size(), in_chunk);
        for (std::size_t i = 0; i != in_chunk; ++i)
        {
            auto const& expect = reference[decoded + i];
            EXPECT_EQ(chunk[i].action, expect.action);
            EXPECT_EQ(chunk[i].dest, expect.dest);
            ASSERT_EQ(chunk[i].arguments.size(), expect.arguments.size());
            EXPECT_EQ(std::memcmp(chunk[i].arguments.data(),
                          expect.arguments.data(), expect.arguments.size()),
                0);
        }
        decoded += in_chunk;
    }
    EXPECT_EQ(decoded, static_cast<std::size_t>(count));
}

TEST(ReceivePipeline, ScanRejectsTruncatedFrame)
{
    auto const flat = encode_message(make_batch(1, 0, 4)).flatten_copy();
    shared_buffer const truncated(flat.data(), flat.size() - 3);
    EXPECT_THROW(scan_parcel_offsets(truncated, 4, 2), serialization_error);
}

// ---- integration over loopback -------------------------------------------

// Two-locality harness over loopback with a configurable receiver worker
// count (the sender side keeps one worker).
struct pipeline_harness
{
    explicit pipeline_harness(unsigned receiver_workers)
      : transport(2)
      , sched0(make_cfg(1))
      , sched1(make_cfg(receiver_workers))
      , ph0(0, transport, sched0)
      , ph1(1, transport, sched1)
    {
        reset_globals();
    }

    ~pipeline_harness()
    {
        settle();
        ph0.stop();
        ph1.stop();
        sched0.stop();
        sched1.stop();
    }

    static scheduler_config make_cfg(unsigned workers)
    {
        scheduler_config cfg;
        cfg.num_workers = workers;
        return cfg;
    }

    [[nodiscard]] bool quiet()
    {
        return ph0.pending_sends() == 0 && ph1.pending_sends() == 0 &&
            ph0.pending_receives() == 0 && ph1.pending_receives() == 0 &&
            sched0.pending_tasks() == 0 && sched1.pending_tasks() == 0;
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
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        FAIL() << "pipeline harness did not settle";
    }

    loopback_transport transport;
    scheduler sched0, sched1;
    parcelhandler ph0, ph1;
};

TEST(ReceivePipeline, CoalescedFrameExecutesInChunks)
{
    pipeline_harness h(1);
    h.ph0.send_message(1, make_batch(1, 0, 100));
    h.settle();

    EXPECT_EQ(g_rp_count.load(), 100u);
    EXPECT_EQ(g_rp_sum.load(), 99ll * 100 / 2);

    auto const& c = h.ph1.counters();
    EXPECT_EQ(c.parcels_received.load(), 100u);
    EXPECT_EQ(c.chunk_parcels.load(), 100u);
    // One worker: chunk = max(ceil(100/2), 8) = 50 -> two chunk tasks.
    EXPECT_EQ(c.chunk_tasks.load(), 2u);
    EXPECT_GE(c.receive_drains.load(), 1u);
    EXPECT_GE(c.frames_drained.load(), 1u);
    EXPECT_GT(c.decode_offload_ns.load(), 0u);
}

TEST(ReceivePipeline, SingletonFramesDrainWithBudget)
{
    pipeline_harness h(1);
    constexpr int n = 200;
    for (int i = 0; i != n; ++i)
        h.ph0.put_parcel(make_parcel(1, i));
    h.settle();

    EXPECT_EQ(g_rp_count.load(), static_cast<std::uint64_t>(n));
    auto const& c = h.ph1.counters();
    EXPECT_EQ(c.frames_drained.load(), static_cast<std::uint64_t>(n));
    EXPECT_EQ(c.messages_received.load(), static_cast<std::uint64_t>(n));
    // Every drain consumed at least one frame by definition.
    EXPECT_LE(c.receive_drains.load(), c.frames_drained.load());
    EXPECT_GT(c.receive_drains.load(), 0u);
    // 1 parcel per frame -> 1 chunk per frame.
    EXPECT_EQ(c.chunk_tasks.load(), static_cast<std::uint64_t>(n));
}

// ---- concurrency (race label; run under tsan) ----------------------------

TEST(ReceivePipeline, ConcurrentCoalescedSendersExactlyOnce)
{
    pipeline_harness h(4);

    constexpr int senders = 4;
    constexpr int batches_per_sender = 10;
    constexpr int batch_size = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t != senders; ++t)
    {
        threads.emplace_back([&h, t] {
            for (int b = 0; b != batches_per_sender; ++b)
            {
                h.ph0.send_message(1,
                    make_batch(1, t * 100000 + b * 1000, batch_size));
            }
        });
    }
    for (auto& th : threads)
        th.join();
    h.settle();

    constexpr std::uint64_t expected =
        std::uint64_t(senders) * batches_per_sender * batch_size;
    EXPECT_EQ(g_rp_count.load(), expected);
    EXPECT_EQ(h.ph1.counters().parcels_executed.load(), expected);
    EXPECT_EQ(h.ph1.counters().chunk_parcels.load(), expected);
}

TEST(ReceivePipeline, ConcurrentSingletonSendersExactlyOnce)
{
    pipeline_harness h(2);

    constexpr int senders = 4;
    constexpr int per_sender = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t != senders; ++t)
    {
        threads.emplace_back([&h, t] {
            for (int i = 0; i != per_sender; ++i)
                h.ph0.put_parcel(make_parcel(1, t * 1000 + i));
        });
    }
    for (auto& th : threads)
        th.join();
    h.settle();

    constexpr std::uint64_t expected = std::uint64_t(senders) * per_sender;
    EXPECT_EQ(g_rp_count.load(), expected);
    long long sum = 0;
    for (int t = 0; t != senders; ++t)
        for (int i = 0; i != per_sender; ++i)
            sum += t * 1000 + i;
    EXPECT_EQ(g_rp_sum.load(), sum);
}

// ---- reliability interaction ---------------------------------------------

reliability_params fast_reliability()
{
    reliability_params rel;
    rel.enabled = true;
    rel.ack_delay_us = 100;
    rel.min_rto_us = 500;
    rel.max_rto_us = 20000;
    return rel;
}

// Harness with the fault injector and the reliability layer on; the
// receiver keeps ONE worker so per-source ordering is observable.
struct lossy_pipeline_harness
{
    explicit lossy_pipeline_harness(fault_plan plan)
      : inner(2)
      , faulty(inner, plan)
      , sched0(pipeline_harness::make_cfg(1))
      , sched1(pipeline_harness::make_cfg(1))
      , ph0(0, faulty, sched0, fast_reliability())
      , ph1(1, faulty, sched1, fast_reliability())
    {
        reset_globals();
    }

    ~lossy_pipeline_harness()
    {
        settle();
        ph0.stop();
        ph1.stop();
        sched0.stop();
        sched1.stop();
    }

    [[nodiscard]] bool handlers_quiet()
    {
        return ph0.pending_sends() == 0 && ph1.pending_sends() == 0 &&
            ph0.pending_receives() == 0 && ph1.pending_receives() == 0 &&
            ph0.pending_reliability() == 0 && ph1.pending_reliability() == 0 &&
            sched0.pending_tasks() == 0 && sched1.pending_tasks() == 0;
    }

    void settle()
    {
        coal::stopwatch deadline;
        while (deadline.elapsed_ms() < 15000.0)
        {
            if (handlers_quiet() && faulty.in_flight() == 0)
            {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                if (handlers_quiet() && faulty.in_flight() == 0)
                    return;
            }
            if (handlers_quiet() && faulty.in_flight() != 0)
                faulty.drain();
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        FAIL() << "lossy pipeline harness did not settle";
    }

    loopback_transport inner;
    faulty_transport faulty;
    scheduler sched0, sched1;
    parcelhandler ph0, ph1;
};

TEST(ReceivePipeline, DuplicateFramesSkipReceiveOverhead)
{
    fault_plan plan;
    plan.duplicate_probability = 1.0;
    lossy_pipeline_harness h(plan);

    constexpr int n = 50;
    for (int i = 0; i != n; ++i)
        h.ph0.put_parcel(make_parcel(1, 1));
    h.settle();

    EXPECT_EQ(g_rp_sum.load(), n);    // exactly once despite duplication
    auto const& c = h.ph1.counters();
    EXPECT_GT(c.duplicates_suppressed.load(), 0u);
    // The duplicate of a frame arrives right behind the original on this
    // single-worker receiver, so the prefix peek recognizes it before the
    // modeled receive overhead is paid.
    EXPECT_GT(c.duplicate_overhead_avoided.load(), 0u);
    EXPECT_LE(
        c.duplicate_overhead_avoided.load(), c.duplicates_suppressed.load());
}

TEST(ReceivePipeline, PerSourceOrderUnderDropsAndDuplicates)
{
    fault_plan plan;
    plan.drop_probability = 0.15;
    plan.duplicate_probability = 0.2;
    lossy_pipeline_harness h(plan);

    constexpr int n = 300;
    for (int i = 0; i != n; ++i)
        h.ph0.put_parcel(make_parcel(1, i));
    h.settle();

    std::lock_guard lock(g_rp_order_lock);
    ASSERT_EQ(g_rp_order.size(), static_cast<std::size_t>(n));
    for (int i = 0; i != n; ++i)
        EXPECT_EQ(g_rp_order[static_cast<std::size_t>(i)], i)
            << "out-of-order delivery at position " << i;
}

TEST(ReceivePipeline, HeldFramesReleaseInOrderAndChunked)
{
    // Pure reordering pressure: drops force retransmission, so later
    // frames routinely arrive while an earlier one is missing and must be
    // parked undecoded until the gap fills.
    fault_plan plan;
    plan.drop_probability = 0.3;
    lossy_pipeline_harness h(plan);

    constexpr int batches = 20;
    constexpr int batch_size = 30;
    for (int b = 0; b != batches; ++b)
        h.ph0.send_message(1, make_batch(1, b * batch_size, batch_size));
    h.settle();

    EXPECT_EQ(g_rp_count.load(), std::uint64_t(batches) * batch_size);
    {
        std::lock_guard lock(g_rp_order_lock);
        ASSERT_EQ(g_rp_order.size(), std::size_t(batches) * batch_size);
        for (std::size_t i = 0; i != g_rp_order.size(); ++i)
            EXPECT_EQ(g_rp_order[i], static_cast<int>(i));
    }
    EXPECT_EQ(h.ph1.counters().chunk_parcels.load(),
        std::uint64_t(batches) * batch_size);
    EXPECT_GT(h.ph0.counters().retransmits.load(), 0u);
}

}    // namespace
