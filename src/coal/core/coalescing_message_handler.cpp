#include <coal/core/coalescing_message_handler.hpp>

#include <coal/common/assert.hpp>
#include <coal/common/logging.hpp>
#include <coal/common/stopwatch.hpp>
#include <coal/trace/tracer.hpp>

#include <algorithm>
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

void coalescing_message_handler::send_locked(
    queue_shard& shard, std::uint32_t dst, destination_queue& queue)
{
    // The push happens under the shard lock, so batches of one
    // destination enter the outbound queue in shard-lock order whichever
    // path sends them.  The gauge drops after the push: by then the batch
    // is counted in pending_sends().  The caller wakes a worker
    // (wake_sender) after it drops the lock.
    std::size_t const queued = queue.parcels.size();
    queue.deadline_ns = no_deadline;
    queue.queued_bytes = 0;
    counters_->record_message(queued);
    parcels_.push_message(dst, std::exchange(queue.parcels, {}));
    shard.gauge.fetch_sub(queued, std::memory_order_release);
}

void coalescing_message_handler::send_past_locked(queue_shard& shard,
    std::uint32_t dst, destination_queue& queue, parcel::parcel&& p)
{
    queue.parcels.push_back(std::move(p));
    shard.gauge.fetch_add(1, std::memory_order_relaxed);
    send_locked(shard, dst, queue);
}

void coalescing_message_handler::enqueue(parcel::parcel&& p)
{
    coalescing_params params = params_->get();
    std::int64_t const gap_ns = counters_->record_parcel();
    std::uint32_t const dst = p.dest;
    auto& shard = shard_for(dst);

    // Disabled: pass through, one parcel per message.  Degraded link
    // (dark, credit-starved or suspected peer): batching only stacks
    // coalescing delay on top of retransmission timeouts, so send at once
    // too (effectively nparcels = 1 until the link heals).  Either way,
    // whatever an earlier setting left queued for the destination goes
    // first.
    bool const disabled = !params.coalescing_enabled();
    if (disabled || parcels_.link_degraded(dst))
    {
        if (!disabled)
        {
            breaker_bypasses_.fetch_add(1, std::memory_order_relaxed);
            trace::tracer::global().record(parcels_.here(),
                trace::event_kind::coalescing_bypass, p.action);
        }
        {
            std::lock_guard lock(shard.lock);
            send_past_locked(shard, dst, shard.queues[dst], std::move(p));
        }
        parcels_.wake_sender();
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

    bool sent = false;
    std::int64_t armed = no_deadline;
    {
        std::lock_guard lock(shard.lock);
        auto& queue = shard.queues[dst];

        // Sparse-traffic bypass: if parcels arrive further apart than the
        // wait time and nothing is queued, coalescing would only add
        // latency — send directly (this is what "effectively disables"
        // coalescing for sparse phases, §II-B).
        bool const sparse = params.sparse_bypass && gap_ns >= 0 &&
            gap_ns > params.interval_us * 1000 && queue.parcels.empty();
        if (stopped_.load(std::memory_order_acquire) || sparse)
        {
            // A stopped (tearing-down) handler queues nothing either.
            if (sparse)
                trace::tracer::global().record(parcels_.here(),
                    trace::event_kind::coalescing_bypass, p.action);
            send_past_locked(shard, dst, queue, std::move(p));
            sent = true;
        }
        else
        {
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
                // Queue full: send it (its deadline goes with it).
                size_flushes_.fetch_add(1, std::memory_order_relaxed);
                trace::tracer::global().record(parcels_.here(),
                    trace::event_kind::flush_size, action,
                    queue.parcels.size());
                send_locked(shard, dst, queue);
                sent = true;
            }
            else if (queue.parcels.size() == 1)
            {
                // First parcel: arm the queue's flush deadline.
                queue.deadline_ns = now_ns() + params.interval_us * 1000;
                armed = queue.deadline_ns;
            }
        }
    }

    if (sent)
        parcels_.wake_sender();
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
            send_locked(shard, dst, queue);
            ++flushed;
        }
    }
    if (flushed != 0)
        parcels_.wake_sender();
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
