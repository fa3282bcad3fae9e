#pragma once

/// \file coalescing_message_handler.hpp
/// The paper's Algorithm 1 — the parcel coalescing message handler.
///
/// One handler serves one action id at one locality and keeps a parcel
/// queue per destination locality.  For each arriving parcel:
///
///   tslp := time since the last parcel of this action
///   if coalescing is disabled (nparcels <= 1 or interval <= 0):
///       send immediately (one parcel per message)
///   if tslp > interval and the queue is empty:
///       send immediately              // sparse-traffic bypass (§II-B):
///                                     // waiting out the deadline would
///                                     // only add latency when traffic is
///                                     // sparse
///   queue the parcel
///   if it is the first in the queue:  arm the flush deadline (interval)
///   if the queue reached nparcels, or the queued payload reached
///   max_buffer_bytes:                 flush (the deadline goes with it)
///
/// Besides the paper's size and deadline triggers, a third one fires when
/// the locality goes idle (flush_idle, called by the parcelhandler's idle
/// hook): no worker of the locality is running a task, so nothing local
/// can add to a batch and waiting out the deadline would only add latency —
/// the idle flush of Charm++'s TRAM.  The rule is locality-idle, not
/// worker-idle: the queues are shared by all of the locality's workers,
/// so one idle worker must not flush while a sibling still produces.  A
/// worker blocked in help-while-wait with nothing to run counts as idle,
/// which is what sends a ping-pong's request at once instead of after
/// the deadline (the tslp bypass misses it: a fast round trip makes the
/// next request look dense).
///
/// Flush deadlines ride the progress path instead of a timer thread (the
/// paper's §II-B uses a dedicated one): each queue keeps a plain
/// `deadline_ns`, its first parcel lowers the parcelhandler's earliest
/// deadline (arm_flush_deadline), and the worker whose progress() finds
/// that deadline due calls flush_due().  A deadline is only read and
/// cleared under its shard lock, so a size flush racing it needs no
/// guard.  The cost: while every worker of the locality is inside a task,
/// a due queue waits for the first of them to return to progress().
///
/// Concurrency: destination queues live in cacheline-aligned shards
/// (destination id & mask), each under its own spinlock, so producers
/// aiming at different destinations never serialize against each other.
/// Every batch enters the parcelhandler's outbound queue while its shard
/// lock is held, whichever path sends it (size, deadline, idle or forced
/// flush, or one of the bypasses that send a parcel past its queue), so
/// the queue lock is the one ordering point: per-destination FIFO into
/// the outbound queue, across mode switches too.  See DESIGN.md §8.
///
/// Flushing hands the batch to parcelhandler::push_message, which queues
/// it for transmission by background work — so the modeled per-message
/// cost lands in the Eq. 3/4 accounting regardless of which thread
/// triggered the flush.

#include <coal/common/cacheline.hpp>
#include <coal/common/spinlock.hpp>
#include <coal/core/coalescing_counters.hpp>
#include <coal/core/coalescing_params.hpp>
#include <coal/parcel/message_handler.hpp>
#include <coal/parcel/parcelhandler.hpp>
#include <coal/trace/tracer.hpp>

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace coal::coalescing {

class coalescing_message_handler final : public parcel::message_handler
{
public:
    /// Shard fan-out for the per-destination queue map.  Power of two;
    /// destinations are folded with a mask, so up to 16 producer threads
    /// hitting distinct destinations proceed without sharing a lock.
    static constexpr std::size_t shard_count = 16;

    /// The handler's deadline flushes run from `parcels`' progress(), so
    /// they happen only while it is installed there (set_message_handler).
    coalescing_message_handler(std::string name,
        parcel::parcelhandler& parcels, shared_params_ptr params,
        std::shared_ptr<coalescing_counters> counters);

    ~coalescing_message_handler() override;

    void enqueue(parcel::parcel&& p) override;
    void flush() override;
    void flush_idle() override;
    std::size_t flush_due(std::int64_t now_ns, std::int64_t& next_ns) override;
    [[nodiscard]] std::size_t queued_parcels() const override;

    /// Chaos hook: drop every queued parcel without sending it (a crashed
    /// locality's coalescing queues die with the incarnation).  Returns
    /// the parcels so the caller can surface them through the
    /// delivery-error path.
    [[nodiscard]] std::vector<parcel::parcel> purge();

    [[nodiscard]] coalescing_params params() const
    {
        return params_->get();
    }

    void set_params(coalescing_params p)
    {
        params_->set(p);
    }

    [[nodiscard]] coalescing_counters const& counters() const noexcept
    {
        return *counters_;
    }

    [[nodiscard]] std::string const& name() const noexcept
    {
        return name_;
    }

    /// Number of deadline-triggered flushes (vs size-triggered); useful
    /// for tests and the ablation benches.
    [[nodiscard]] std::uint64_t timer_flushes() const noexcept
    {
        return timer_flushes_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t size_flushes() const noexcept
    {
        return size_flushes_.load(std::memory_order_relaxed);
    }

    /// Queues flushed because their locality went idle (flush_idle).
    [[nodiscard]] std::uint64_t idle_flushes() const noexcept
    {
        return idle_flushes_.load(std::memory_order_relaxed);
    }

    /// Parcels that skipped batching because the destination link was
    /// degraded (parcelhandler::link_degraded).
    [[nodiscard]] std::uint64_t breaker_bypasses() const noexcept
    {
        return breaker_bypasses_.load(std::memory_order_relaxed);
    }

private:
    static constexpr std::int64_t no_deadline =
        std::numeric_limits<std::int64_t>::max();

    struct destination_queue
    {
        std::vector<parcel::parcel> parcels;
        std::size_t queued_bytes = 0;
        /// now_ns() time the queue must flush by; no_deadline while empty.
        std::int64_t deadline_ns = no_deadline;
    };

    struct alignas(cache_line_size) queue_shard
    {
        mutable spinlock lock;
        std::unordered_map<std::uint32_t, destination_queue> queues;

        /// Parcels currently queued in this shard, maintained as a gauge
        /// so queued_parcels() (polled by quiescence) never takes a lock
        /// — and so the enqueue fast path touches no cacheline shared
        /// with other shards.  Incremented and decremented under the
        /// shard lock; a batch leaves it only after its push to the
        /// parcelhandler, so a parcel is always visible in at least one
        /// of queued_parcels() / pending_sends() while in flight.
        std::atomic<std::size_t> gauge{0};
    };

    [[nodiscard]] queue_shard& shard_for(std::uint32_t dst) noexcept
    {
        return shards_[dst & (shard_count - 1)];
    }

    /// Hand the queue's parcels to the parcelhandler as one message and
    /// reset the queue (caller holds the shard lock).
    void send_locked(
        queue_shard& shard, std::uint32_t dst, destination_queue& queue);

    /// Send `p` past the queue: whatever is queued for `dst` goes first,
    /// in the same message (caller holds the shard lock).
    void send_past_locked(queue_shard& shard, std::uint32_t dst,
        destination_queue& queue, parcel::parcel&& p);

    /// Send every non-empty queue whose deadline is at or
    /// before `cutoff`, tracing each as `kind`; returns how many queues it
    /// flushed and lowers `*next` (if given) to the earliest deadline left
    /// armed.  A flush_timeout pass accounts each flush's lateness.
    std::size_t flush_until(std::int64_t cutoff, trace::event_kind kind,
        std::int64_t* next = nullptr);

    std::string name_;
    parcel::parcelhandler& parcels_;
    shared_params_ptr params_;
    std::shared_ptr<coalescing_counters> counters_;

    std::array<queue_shard, shard_count> shards_;
    std::atomic<bool> stopped_{false};

    std::atomic<std::uint64_t> timer_flushes_{0};
    std::atomic<std::uint64_t> size_flushes_{0};
    std::atomic<std::uint64_t> idle_flushes_{0};
    std::atomic<std::uint64_t> breaker_bypasses_{0};
};

}    // namespace coal::coalescing
