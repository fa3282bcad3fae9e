#include <coal/net/sim_network.hpp>

#include <coal/common/assert.hpp>
#include <coal/common/logging.hpp>
#include <coal/common/stopwatch.hpp>
#include <coal/timing/busy_work.hpp>

#include <algorithm>
#include <chrono>

namespace coal::net {

sim_network::sim_network(std::uint32_t num_localities, cost_model model)
  : num_localities_(num_localities)
  , model_(model)
  , handlers_(num_localities)
  , link_free_ns_(static_cast<std::size_t>(num_localities) * num_localities, 0)
  , link_stats_(static_cast<std::size_t>(num_localities) * num_localities)
  , down_(num_localities, 0)
{
    COAL_ASSERT(num_localities_ > 0);
    delivery_thread_ = std::thread([this] { delivery_loop(); });
}

sim_network::~sim_network()
{
    shutdown();
}

void sim_network::set_delivery_handler(
    std::uint32_t dst, delivery_handler handler)
{
    COAL_ASSERT(dst < num_localities_);
    std::lock_guard lock(mutex_);
    handlers_[dst] = std::move(handler);
}

void sim_network::send(std::uint32_t src, std::uint32_t dst,
    serialization::wire_message&& message)
{
    COAL_ASSERT(src < num_localities_ && dst < num_localities_);

    std::size_t const bytes = message.size();

    // The wire is contiguous: flatten the fragment chain exactly here, at
    // the transport boundary.  Single-fragment messages move their buffer
    // out (zero copy); real gathers are counted by the buffer pool.
    serialization::shared_buffer buffer = std::move(message).flatten();

    // Sender-side CPU cost: burned *here*, on the caller's thread, which
    // is the background-work context of the sending locality.  This is
    // the per-message overhead that parcel coalescing amortizes.
    timing::spin_for_us(model_.sender_cpu_us(bytes));

    std::int64_t const now = now_ns();
    auto const transmit_ns =
        static_cast<std::int64_t>(model_.transmit_us(bytes) * 1000.0);
    auto const latency_ns =
        static_cast<std::int64_t>(model_.wire_latency_us * 1000.0);

    {
        std::lock_guard lock(mutex_);
        if (stopping_ || down_[src] != 0 || down_[dst] != 0)
        {
            // Shutdown races and crashed endpoints drop the message by
            // design — but the drop must be visible:
            // sent == delivered + dropped at quiescence.
            messages_sent_.fetch_add(1, std::memory_order_relaxed);
            bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
            messages_dropped_.fetch_add(1, std::memory_order_relaxed);
            return;
        }

        // Serialize the directed link: transmission begins when the
        // previous message's tail has left the wire.
        auto& link_free = link_free_ns_[link_index(src, dst)];
        std::int64_t const start = std::max(now, link_free);
        std::int64_t const done = start + transmit_ns;
        link_free = done;

        pending_message msg;
        msg.due_ns = done + latency_ns;
        msg.seq = next_seq_++;
        msg.src = src;
        msg.dst = dst;
        msg.payload = std::move(buffer);

        auto& ls = link_stats_[link_index(src, dst)];
        ls.messages += 1;
        ls.bytes += bytes;

        heap_.push(std::move(msg));
        in_flight_.fetch_add(1, std::memory_order_acq_rel);
    }
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
    cv_.notify_one();
}

void sim_network::delivery_loop()
{
    std::unique_lock lock(mutex_);
    for (;;)
    {
        if (stopping_)
            return;

        if (heap_.empty())
        {
            cv_.wait(lock, [&] { return stopping_ || !heap_.empty(); });
            continue;
        }

        std::int64_t const due = heap_.top().due_ns;
        std::int64_t const now = now_ns();
        if (due > now)
        {
            cv_.wait_for(lock, std::chrono::nanoseconds(due - now));
            continue;
        }

        // Deliver: detach the message and call the handler unlocked.
        pending_message msg = std::move(
            const_cast<pending_message&>(heap_.top()));
        heap_.pop();

        bool const crashed = down_[msg.src] != 0 || down_[msg.dst] != 0;
        delivery_handler handler = crashed ? nullptr : handlers_[msg.dst];
        lock.unlock();

        std::size_t const bytes = msg.payload.size();
        if (handler)
        {
            handler(msg.src, std::move(msg.payload));
            messages_delivered_.fetch_add(1, std::memory_order_relaxed);
            bytes_delivered_.fetch_add(bytes, std::memory_order_relaxed);
        }
        else
        {
            if (!crashed)
                COAL_LOG_WARN("net", "dropping message to locality %u "
                                     "(no delivery handler)",
                    msg.dst);
            messages_dropped_.fetch_add(1, std::memory_order_relaxed);
        }

        if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            drain_cv_.notify_all();

        lock.lock();
    }
}

void sim_network::drain()
{
    std::unique_lock lock(drain_mutex_);
    while (in_flight_.load(std::memory_order_acquire) != 0)
        drain_cv_.wait_for(lock, std::chrono::milliseconds(1));
}

transport_stats sim_network::stats() const
{
    transport_stats s;
    s.messages_sent = messages_sent_.load(std::memory_order_relaxed);
    s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
    s.messages_delivered =
        messages_delivered_.load(std::memory_order_relaxed);
    s.bytes_delivered = bytes_delivered_.load(std::memory_order_relaxed);
    s.messages_dropped = messages_dropped_.load(std::memory_order_relaxed);
    return s;
}

link_stats sim_network::link(std::uint32_t src, std::uint32_t dst) const
{
    COAL_ASSERT(src < num_localities_ && dst < num_localities_);
    std::lock_guard lock(mutex_);
    return link_stats_[link_index(src, dst)];
}

bool sim_network::set_locality_down(std::uint32_t locality, bool down)
{
    COAL_ASSERT(locality < num_localities_);
    std::size_t purged = 0;
    {
        std::lock_guard lock(mutex_);
        down_[locality] = down ? 1 : 0;
        if (down)
        {
            // In-flight messages to or from the crashed locality vanish
            // with it.  Rebuild the heap without them; the drops stay
            // visible so sent == delivered + dropped keeps holding.
            std::vector<pending_message> keep;
            keep.reserve(heap_.size());
            while (!heap_.empty())
            {
                pending_message msg =
                    std::move(const_cast<pending_message&>(heap_.top()));
                heap_.pop();
                if (msg.src == locality || msg.dst == locality)
                    ++purged;
                else
                    keep.push_back(std::move(msg));
            }
            for (auto& msg : keep)
                heap_.push(std::move(msg));
        }
        else
        {
            // The restarted incarnation's links start fresh: no backlog
            // of modeled transmission time from before the crash.
            for (std::uint32_t peer = 0; peer != num_localities_; ++peer)
            {
                link_free_ns_[link_index(locality, peer)] = 0;
                link_free_ns_[link_index(peer, locality)] = 0;
            }
        }
    }
    if (purged != 0)
    {
        COAL_LOG_INFO("net", "kill_locality(%u) dropped %zu in-flight "
                             "message(s)",
            locality, purged);
        messages_dropped_.fetch_add(purged, std::memory_order_relaxed);
        in_flight_.fetch_sub(purged, std::memory_order_acq_rel);
        drain_cv_.notify_all();
    }
    return true;
}

void sim_network::shutdown()
{
    {
        std::lock_guard lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    if (delivery_thread_.joinable())
        delivery_thread_.join();

    // Messages still queued at shutdown are dropped, not lost silently:
    // the conservation invariant (sent == delivered + dropped) must hold
    // even across a racy teardown, and drain() must not hang on them.
    std::size_t remaining = 0;
    {
        std::lock_guard lock(mutex_);
        remaining = heap_.size();
        while (!heap_.empty())
            heap_.pop();
    }
    if (remaining != 0)
    {
        COAL_LOG_WARN("net", "shutdown dropped %zu undelivered messages",
            remaining);
        messages_dropped_.fetch_add(remaining, std::memory_order_relaxed);
        in_flight_.fetch_sub(remaining, std::memory_order_acq_rel);
    }
    drain_cv_.notify_all();
}

}    // namespace coal::net
