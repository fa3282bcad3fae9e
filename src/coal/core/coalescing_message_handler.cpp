#include <coal/core/coalescing_message_handler.hpp>

#include <coal/common/assert.hpp>
#include <coal/common/logging.hpp>
#include <coal/common/stopwatch.hpp>
#include <coal/trace/tracer.hpp>

#include <algorithm>
#include <optional>
#include <utility>

namespace coal::coalescing {

coalescing_message_handler::coalescing_message_handler(std::string name,
    parcel::parcelhandler& parcels, shared_params_ptr params,
    std::shared_ptr<coalescing_counters> counters)
  : name_(std::move(name))
  , parcels_(parcels)
  , params_(std::move(params))
  , counters_(std::move(counters))
{
    COAL_ASSERT(params_ != nullptr);
    COAL_ASSERT(counters_ != nullptr);
}

coalescing_message_handler::~coalescing_message_handler()
{
    // Disarm: enqueues that acquire a shard lock after flush() released
    // it observe stopped_ (the store below happens-before flush()'s
    // critical sections) and send directly without queueing.  No
    // flush_due() can still be running: the parcelhandler calls it
    // through a shared_ptr copy, which keeps this handler alive.
    stopped_.store(true, std::memory_order_release);
    flush();
}

coalescing_message_handler::destination_queue&
coalescing_message_handler::queue_for_locked(
    queue_shard& shard, std::uint32_t dst)
{
    auto& queue = shard.queues[dst];
    if (queue.stream == 0)
        queue.stream = parcels_.allocate_send_stream();
    return queue;
}

coalescing_message_handler::detached_batch
coalescing_message_handler::detach_batch_locked(destination_queue& queue)
{
    queue.deadline_ns = no_deadline;
    queue.queued_bytes = 0;
    detached_batch batch;
    batch.parcels = std::exchange(queue.parcels, {});
    batch.ticket = {queue.stream, queue.next_ticket++};
    return batch;
}

void coalescing_message_handler::send_batch(
    std::uint32_t dst, detached_batch&& batch)
{
    // Runs WITHOUT the shard lock.  Per-destination FIFO is preserved by
    // the ticket: sequence numbers were allocated in shard-lock order and
    // the parcelhandler's sequencer releases batches in ticket order, so
    // dropping the lock before this hand-off cannot reorder the wire.
    std::size_t const queued = batch.parcels.size();
    counters_->record_message(queued);
    parcels_.send_message(dst, std::move(batch.parcels), batch.ticket);
    // Only now drop the parcels from the shard's queued gauge:
    // send_message has made them visible in pending_sends(), so a
    // quiescence poll always sees them in at least one count.
    if (batch.gauge != 0)
        shard_for(dst).gauge.fetch_sub(batch.gauge, std::memory_order_release);
}

void coalescing_message_handler::enqueue(parcel::parcel&& p)
{
    coalescing_params params = params_->get();
    std::int64_t const gap_ns = counters_->record_parcel();
    std::uint32_t const dst = p.dest;

    // Disabled: pass through, one parcel per message.  The parcel still
    // takes a ticket from the destination's stream so it cannot overtake
    // (or be overtaken by) batches detached moments earlier.
    if (!params.coalescing_enabled())
    {
        detached_batch single;
        {
            std::lock_guard lock(shard_for(dst).lock);
            auto& queue = queue_for_locked(shard_for(dst), dst);
            single.ticket = {queue.stream, queue.next_ticket++};
        }
        single.parcels.push_back(std::move(p));
        send_batch(dst, std::move(single));
        return;
    }

    // Degraded link (dark, credit-starved or suspected peer): batching
    // only stacks coalescing delay on top of retransmission timeouts.
    // Flush whatever is queued for the
    // destination and send this parcel along immediately (effectively
    // nparcels = 1 until the link heals).
    if (parcels_.link_degraded(dst))
    {
        breaker_bypasses_.fetch_add(1, std::memory_order_relaxed);
        trace::tracer::global().record(parcels_.here(),
            trace::event_kind::coalescing_bypass, p.action);
        detached_batch batch;
        {
            auto& shard = shard_for(dst);
            std::lock_guard lock(shard.lock);
            batch = detach_batch_locked(queue_for_locked(shard, dst));
            batch.gauge = batch.parcels.size();
        }
        batch.parcels.push_back(std::move(p));
        send_batch(dst, std::move(batch));
        return;
    }

    // Overload protection: under soft (or worse) pressure toward this
    // destination the flow-control layer wants *earlier* flushes, not
    // bigger batches — shrink the batch targets for this enqueue so the
    // queue drains at a quarter of its configured depth.  The configured
    // params are untouched; pressure subsiding restores full batching on
    // the next enqueue.
    if (parcels_.flow_pressure(dst) != pressure_state::ok)
    {
        params.nparcels = std::max<std::size_t>(2, params.nparcels / 4);
        params.max_buffer_bytes =
            std::max<std::size_t>(1024, params.max_buffer_bytes / 4);
    }

    auto& shard = shard_for(dst);
    std::optional<detached_batch> flush_now;
    std::int64_t armed = no_deadline;
    {
        std::unique_lock lock(shard.lock);
        auto& queue = queue_for_locked(shard, dst);

        if (stopped_.load(std::memory_order_acquire))
        {
            // Tear-down path: do not queue, send directly.
            detached_batch single;
            single.ticket = {queue.stream, queue.next_ticket++};
            lock.unlock();
            single.parcels.push_back(std::move(p));
            send_batch(dst, std::move(single));
            return;
        }

        // Sparse-traffic bypass: if parcels arrive further apart than the
        // wait time and nothing is queued, coalescing would only add
        // latency — send directly (this is what "effectively disables"
        // coalescing for sparse phases, §II-B).
        bool const sparse = params.sparse_bypass && gap_ns >= 0 &&
            gap_ns > params.interval_us * 1000;
        if (sparse && queue.parcels.empty())
        {
            detached_batch single;
            single.ticket = {queue.stream, queue.next_ticket++};
            lock.unlock();
            trace::tracer::global().record(parcels_.here(),
                trace::event_kind::coalescing_bypass, p.action);
            single.parcels.push_back(std::move(p));
            send_batch(dst, std::move(single));
            return;
        }

        std::uint64_t const action = p.action;
        queue.queued_bytes += p.wire_size();
        queue.parcels.push_back(std::move(p));
        shard.gauge.fetch_add(1, std::memory_order_relaxed);
        trace::tracer::global().record(parcels_.here(),
            trace::event_kind::coalescing_queued, action,
            queue.parcels.size());

        if (queue.parcels.size() >= params.nparcels ||
            queue.queued_bytes >= params.max_buffer_bytes)
        {
            // Queue full: detach (dropping its deadline); the hand-off to
            // the parcelhandler happens after the lock is dropped.
            size_flushes_.fetch_add(1, std::memory_order_relaxed);
            trace::tracer::global().record(parcels_.here(),
                trace::event_kind::flush_size, action, queue.parcels.size());
            flush_now = detach_batch_locked(queue);
            flush_now->gauge = flush_now->parcels.size();
        }
        else if (queue.parcels.size() == 1)
        {
            // First parcel: arm the queue's flush deadline.
            queue.deadline_ns = now_ns() + params.interval_us * 1000;
            armed = queue.deadline_ns;
        }
    }

    if (flush_now)
        send_batch(dst, std::move(*flush_now));
    else if (armed != no_deadline)
        parcels_.arm_flush_deadline(armed);
}

void coalescing_message_handler::flush()
{
    flush_until(no_deadline, trace::event_kind::flush_forced);
}

void coalescing_message_handler::flush_idle()
{
    idle_flushes_.fetch_add(
        flush_until(no_deadline, trace::event_kind::flush_idle),
        std::memory_order_relaxed);
}

std::size_t coalescing_message_handler::flush_due(
    std::int64_t now_ns, std::int64_t& next_ns)
{
    std::size_t const flushed =
        flush_until(now_ns, trace::event_kind::flush_timeout, &next_ns);
    timer_flushes_.fetch_add(flushed, std::memory_order_relaxed);
    return flushed;
}

std::size_t coalescing_message_handler::flush_until(
    std::int64_t cutoff, trace::event_kind kind, std::int64_t* next)
{
    bool const deadline_flush = kind == trace::event_kind::flush_timeout;
    std::size_t flushed = 0;
    for (auto& shard : shards_)
    {
        // Detach every non-empty queue in one critical section, then send
        // the batches lock-free; tickets keep each destination in order.
        std::vector<std::pair<std::uint32_t, detached_batch>> batches;
        {
            std::lock_guard lock(shard.lock);
            for (auto& [dst, queue] : shard.queues)
            {
                if (queue.parcels.empty())
                    continue;
                if (queue.deadline_ns > cutoff)
                {
                    if (next != nullptr)
                        *next = std::min(*next, queue.deadline_ns);
                    continue;
                }
                if (deadline_flush)
                    parcels_.note_deadline_flush(cutoff - queue.deadline_ns);
                trace::tracer::global().record(parcels_.here(), kind,
                    queue.parcels.front().action, queue.parcels.size());
                auto batch = detach_batch_locked(queue);
                batch.gauge = batch.parcels.size();
                batches.emplace_back(dst, std::move(batch));
            }
        }
        flushed += batches.size();
        for (auto& [dst, batch] : batches)
            send_batch(dst, std::move(batch));
    }
    return flushed;
}

std::vector<parcel::parcel> coalescing_message_handler::purge()
{
    std::vector<parcel::parcel> purged;
    for (auto& shard : shards_)
    {
        std::lock_guard lock(shard.lock);
        for (auto& [dst, queue] : shard.queues)
        {
            if (queue.parcels.empty())
                continue;
            queue.deadline_ns = no_deadline;
            queue.queued_bytes = 0;
            shard.gauge.fetch_sub(
                queue.parcels.size(), std::memory_order_release);
            for (auto& p : queue.parcels)
                purged.push_back(std::move(p));
            queue.parcels.clear();
        }
    }
    return purged;
}

std::size_t coalescing_message_handler::queued_parcels() const
{
    std::size_t total = 0;
    for (auto const& shard : shards_)
        total += shard.gauge.load(std::memory_order_acquire);
    return total;
}

}    // namespace coal::coalescing
